"""Tests of the benchmark itself: the call counts it reports, its corpus
rules, its tracer and its oracles."""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402

from gamma4 import pipeline  # noqa: E402
from gamma4.medial import PlanarGraph, fan_graph  # noqa: E402


def _calls(tracer):
    return {name: calls for (_phase, name), (_s, calls)
            in layer_totals(tracer.spans).items()}


def test_calls_per_analyze_diagram():
    """The baseline the single double-cover object will reduce."""
    record = corpus.large_orders(1)[5].record
    tracer = Tracer()
    with tracer.installed():
        pipeline.analyze_diagram(record, 1)
    calls = _calls(tracer)
    assert (calls["exactalg.det"], calls["exactalg.smith_normal_form"],
            calls["exactalg.inverse"]) == (3, 2, 2)


def test_calls_per_bundled_operation():
    workload = run.Bundled(1)
    workload.build()
    tracer = Tracer()
    with tracer.installed():
        workload.run(workload.inputs[0])
    calls = _calls(tracer)
    assert calls["pipeline.analyze_diagram"] == 35
    assert calls["bounds.classify"] % 185 == 0


def test_tracer_restores_every_binding():
    from gamma4 import linkform
    before = (pipeline.linking_form, linkform.linking_form, pipeline.analyze_diagram)
    with Tracer().installed():
        assert pipeline.linking_form is linkform.linking_form
        assert pipeline.linking_form is not before[0]
    assert (pipeline.linking_form, linkform.linking_form,
            pipeline.analyze_diagram) == before


def test_self_time_subtracts_children():
    spans = [["outer", 0.0, 10.0, -1, "ops"], ["inner", 1.0, 4.0, 0, "ops"],
             ["inner", 5.0, 6.0, 0, "ops"], ["leaf", 2.0, 3.0, 1, "ops"]]
    totals = layer_totals(spans)
    assert totals[("ops", "outer")] == [6.0, 1]
    assert totals[("ops", "inner")] == [3.0, 2]
    assert totals[("ops", "leaf")] == [1.0, 1]


def _orders(diagrams):
    return [sorted(f.order() for f in d.fans) for d in diagrams]


def test_corpus_repeats_per_seed_and_keeps_the_work():
    for make in (corpus.large_diagrams, corpus.large_orders):
        a, b, c = make(4), make(4), make(5)
        assert corpus.digest(a) == corpus.digest(b) != corpus.digest(c)
        assert _orders(a) == _orders(c)  # the seed leaves |H1| alone
    assert sum(d.record.definiteness is not None for d in a) == 9


def test_tail_percentile_leaves_ten_samples_beyond():
    assert [run.tail_percentile(n) for n in (36, 40, 450)] == [70, 75, 95]


def test_bridge_and_loop_detection():
    assert not corpus.has_bridge_or_loop(fan_graph((1, 1), (1,)))
    assert corpus.has_bridge_or_loop(fan_graph((1, 0), (1,)))
    loop = PlanarGraph(1, [(0, 0, 1)], {0: [0, 0]})
    assert corpus.has_bridge_or_loop(loop)


def test_oracle_catches_a_wrong_verdict():
    diagram = corpus.large_orders(2)[12]
    analysis = pipeline.analyze_diagram(diagram.record, 1)
    assert oracles.check_diagram(diagram, analysis) == []
    flipped = [replace(v, result="NotObstructed" if v.obstructed else "Obstructed")
               for v in analysis.verdicts]
    assert oracles.check_diagram(diagram, replace(analysis, verdicts=flipped))
    assert oracles.check_diagram(diagram, replace(analysis, det=analysis.det + 2))


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
