"""The integer-end medial construction against the dict-based one it
replaced, kept in ``medial_reference``: the same PD code and region
corners (in the same order, the reference's ``(crossing, slot)`` pairs read
as slots ``4*e + s``), or the same exception class and message."""

import importlib.util
import random
from pathlib import Path

import pytest

import medial_reference as ref
from gamma4.errors import DiagramError
from gamma4.medial import PlanarGraph, fan_graph, medial_pd

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_dataset.py"


def make_dataset():
    spec = importlib.util.spec_from_file_location("make_dataset", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome(build, graph):
    """``(pd, region corners as ordered items)``, or the exception's
    class and message."""
    try:
        pd, regions = build(graph)
    except Exception as exc:  # compared by class and message below
        return "raised", type(exc), str(exc)
    return "value", pd, list(regions.items())


def assert_same(graph):
    got, want = outcome(medial_pd, graph), outcome(ref.medial_pd, graph)
    if want[0] == "value":
        want = (*want[:2], [(w, 4 * e + s) for w, (e, s) in want[2]])
    assert got == want
    return got


def random_fans(seed, count):
    """Fans of 1..16 path regions, 0..4 apex and 1..3 path edges per
    region, and a sign drawn for every edge; links are kept."""
    rng = random.Random(seed)
    while count:
        k = rng.randint(1, 16)
        apex = [rng.randint(0, 4) for _ in range(k)]
        if not any(apex):
            continue
        fan = fan_graph(apex, [rng.randint(1, 3) for _ in range(k - 1)])
        edges = [(u, v, rng.choice((1, -1))) for u, v, _eta in fan.edges]
        yield rng, PlanarGraph(fan.vertex_count, edges, fan.rotations)
        count -= 1


def test_random_fans_match_the_reference():
    kinds = set()
    for _rng, graph in random_fans(1414, 400):
        kinds.add(assert_same(graph)[0])
    assert kinds == {"value", "raised"}  # knots and links both met


def test_shuffled_rotations_match_the_reference():
    """Rotations shuffled at one vertex: embeddings on higher-genus
    surfaces, whose medials still close, walk every corner pairing."""
    for rng, graph in random_fans(2718, 150):
        rotations = {w: list(rot) for w, rot in graph.rotations.items()}
        rng.shuffle(rotations[rng.randrange(graph.vertex_count)])
        assert_same(PlanarGraph(graph.vertex_count, graph.edges, rotations))


def test_wheel_155_matches_the_reference():
    kind, pd, _regions = assert_same(make_dataset().WHEEL_155)
    assert kind == "value" and len(pd) == 11


@pytest.mark.parametrize("graph, message", [
    (PlanarGraph(1, [(0, 0, 1)], {0: [0, 0]}), "edge 0 is a loop"),
    (PlanarGraph(2, [(0, 1, 1), (0, 1, 2)], {0: [0, 1], 1: [1, 0]}),
     "edge 1 has sign 2"),
    (PlanarGraph(2, [(0, 1, 1)], {0: [0], 1: []}),
     "edge 0 missing from rotation of vertex 1"),
    (PlanarGraph(3, [(0, 1, 1)] * 3, {0: [0, 1, 2], 1: [2, 1, 0], 2: [1]}),
     "rotation at vertex 2 does not list"),
    (PlanarGraph(2, [(0, 1, 1)] * 3, {0: [0, 1, 2, 1], 1: [2, 1, 0]}),
     "rotation at vertex 0 does not list"),
    (PlanarGraph(2, [(0, 1, 1)] * 2, {0: [0, 1], 1: [1, 0]}),
     "more than one component"),
    (PlanarGraph(1, [], {0: []}), "empty graph"),
])
def test_error_paths_match_the_reference(graph, message):
    kind, cls, text = assert_same(graph)
    assert (kind, cls) == ("raised", DiagramError) and message in text

