#!/usr/bin/env python3
"""Benchmark of gamma4: one workload per run, a closed loop with one
operation in flight, timed with tracing off; ``--trace 1`` makes a
separate traced run for the per-layer metrics.  See perfbench/README.md.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Runs from a source checkout (``src/gamma4``); nothing needs installing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

START = time.perf_counter()  # setup_s counts from here, before gamma4 loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "gamma4" / "data"
SETUP_SAMPLES = 11  # the run's own set-up and ten fresh processes
CLI_SAMPLES = 30
MIN_BEYOND_TAIL = 10
WORKLOADS = ("bundled", "large-diagrams", "large-orders")
END_TO_END = ("throughput_ops_s", "op_p50_ms", "op_tail_ms", "setup_s",
              "peak_rss_mb", "cli_classify_ms")
# functions whose call count per operation is reported as well
COUNTED_CALLS = ("planar.goeritz", "exactalg.det", "exactalg.smith_normal_form",
                 "exactalg.inverse", "exactalg.mat_mul", "linkform.linking_form",
                 "bounds.classify", "pipeline.analyze_diagram")


def per_layer_names():
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names.append(f"{module}.{fn}.ms")
            if f"{module}.{fn}" in COUNTED_CALLS:
                names.append(f"{module}.{fn}.calls")
    return names + ["cli.import_ms", "trace.throughput_ops_s",
                    "trace.overhead_ratio"]


def env_with_src():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Bundled:
    """The shipped dataset: run_classification + report_json, defaults."""

    def __init__(self, seed):
        self.seed = seed  # the shipped data has nothing to draw

    def build(self):
        self.inputs = [(DATA / "knots.csv", DATA / "certificates.csv")]

    def run(self, paths):
        from gamma4 import pipeline
        entries, metadata = pipeline.run_classification(*paths)
        return pipeline.report_json(entries, metadata)

    def digest(self):
        h = hashlib.sha256()
        for path in self.inputs[0]:
            h.update(path.read_bytes())
        return h.hexdigest()

    def describe(self, results):
        if results[0] is None:
            return "no report"
        doc = json.loads(results[0])
        with_pd = sum(1 for k in doc["knots"] if "homology" in k)
        return (f"{doc['summary']['total']} knots, {with_pd} with a diagram, "
                f"summary {doc['summary']['determined']} + "
                f"{doc['summary']['undetermined']} undetermined")

    def check(self, i, result):
        import oracles
        return oracles.check_bundled(result, self.run(self.inputs[i]))


class Generated:
    """A seeded corpus; one operation is analyze_diagram(record, 1)."""

    def __init__(self, seed, make):
        self.seed, self.make = seed, make

    def build(self):
        self.diagrams = self.make(self.seed)
        self.inputs = [d.record for d in self.diagrams]

    def run(self, record):
        from gamma4 import pipeline
        return pipeline.analyze_diagram(record, 1)

    def digest(self):
        import corpus
        return corpus.digest(self.diagrams)

    def describe(self, results):
        done = [r for r in results if r is not None]
        crossings = [d.record.crossings for d in self.diagrams]
        dims = [len(r.goeritz.g) for r in done]
        orders = [r.group.order for r in done]
        quartiles = [round(q) for q in statistics.quantiles(orders, n=4)]
        noncyclic = sum(not r.group.is_cyclic for r in done)
        return (f"{len(self.inputs)} diagrams, crossings {min(crossings)}.."
                f"{max(crossings)}, Goeritz dimension {min(dims)}..{max(dims)}, "
                f"|H1| min {min(orders)} quartiles {quartiles} max {max(orders)}, "
                f"non-cyclic {noncyclic}/{len(done)}")

    def check(self, i, result):
        import oracles
        return oracles.check_diagram(self.diagrams[i], result)


def make_workload(name, seed):
    if name == "bundled":
        return Bundled(seed)
    import corpus
    return Generated(seed, {"large-diagrams": corpus.large_diagrams,
                            "large-orders": corpus.large_orders}[name])


def set_up(name, seed):
    """Import, build the inputs, one warm-up operation."""
    workload = make_workload(name, seed)
    workload.build()
    workload.run(workload.inputs[0])
    return workload


def timed_passes(workload, seconds, passes=None, side=()):
    """Run every input once per pass, in order, until ``seconds`` of
    operations have gone by at the end of a pass (or for exactly ``passes``
    passes).  The ``side`` measurements run one at a time between two
    operations, spread evenly over the run, so that a burst of load from
    outside the process lands on few of them; their time is not counted."""
    n = len(workload.inputs)
    times = [[] for _ in range(n)]
    results, errors = [None] * n, [0] * n
    side = list(side)
    due = [seconds * (j + 1) / (len(side) + 1) for j in range(len(side))]
    done, side_time = 0, 0.0
    t0 = time.perf_counter()
    while True:
        for i, x in enumerate(workload.inputs):
            t = time.perf_counter()
            try:
                results[i] = workload.run(x)
            except Exception:  # counted in failed; the first one is shown
                if not errors[i]:
                    print(f"operation on input {i} raised:\n{traceback.format_exc()}")
                errors[i] += 1
                results[i] = None
            times[i].append(time.perf_counter() - t)
            while side and time.perf_counter() - t0 - side_time >= due[0]:
                s = time.perf_counter()
                side.pop(0)()
                due.pop(0)
                side_time += time.perf_counter() - s
        done += 1
        elapsed = time.perf_counter() - t0 - side_time
        if (passes is None and elapsed >= seconds) or done == passes:
            for task in side:
                task()
            return times, results, errors, done, elapsed


def percentile(values, pct):
    return statistics.quantiles(values, n=1000, method="inclusive")[pct * 10 - 1]


def quiet_times(times):
    """Each input's fastest time over the passes.  Load from outside the
    process only ever adds time, and on a shared machine it comes in
    phases of seconds that a median over one run does not average out."""
    return [min(t) for t in times]


def throughput(times):
    """The rate of one pass at the quiet times."""
    quiet = quiet_times(times)
    return len(quiet) / sum(quiet)


def tail_percentile(n):
    """The highest percentile, a multiple of 5 from 5 to 95, that leaves at
    least MIN_BEYOND_TAIL of ``n`` samples beyond it."""
    return max(5, min(95, 5 * int(20 * (1 - MIN_BEYOND_TAIL / n))))


def timing_metrics(times, elapsed):
    """Each input counts once, with its quiet time (a corpus's inputs differ
    by orders of magnitude).  The bundled workload has a single input, so
    its tail is taken over its operations."""
    ops = sum(len(t) for t in times)
    quiet = quiet_times(times)
    tail_samples = quiet if len(times) > 1 else times[0]
    pct = tail_percentile(len(tail_samples))
    beyond = len(tail_samples) * (100 - pct) // 100
    print(f"samples: {ops} operations over {elapsed:.4g} s ({ops / elapsed:.4g} "
          f"ops/s), {len(quiet)} quiet times; op_tail_ms is p{pct} of "
          f"{len(tail_samples)} {'quiet times' if len(times) > 1 else 'operations'}"
          f", {beyond} beyond")
    return {
        "throughput_ops_s": (throughput(times), "1/s"),
        "op_p50_ms": (statistics.median(quiet) * 1000, "ms"),
        "op_tail_ms": (percentile(tail_samples, pct) * 1000, "ms"),
    }


def python_child(args, timeout=120):
    proc = subprocess.run([sys.executable, *args], env=env_with_src(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


class FreshProcessSamples:
    """Set-up time of the workload and wall time of `gamma4 classify --out
    <tmp>` on the bundled data, each measured in fresh processes."""

    def __init__(self, args, own_setup, tmp):
        self.args, self.out = args, Path(tmp) / "report.json"
        self.setup, self.cli, self.cli_failed = [own_setup], [], 0

    def tasks(self):
        """Set-up and CLI samples, each kind spread evenly over the run."""
        spread = [((k + 0.5) / count, task)
                  for task, count in ((self.setup_sample, SETUP_SAMPLES - 1),
                                      (self.cli_sample, CLI_SAMPLES))
                  for k in range(count)]
        return [task for _position, task in sorted(spread, key=lambda p: p[0])]

    def setup_sample(self):
        child = [__file__, "--workload", self.args.workload, "--seed",
                 str(self.args.seed), "--seconds", "0", "--trace", "0",
                 "--setup-only"]
        self.setup.append(float(python_child(child).split()[-1]))

    def cli_sample(self):
        """A run that exits other than 0, or whose report the bundled oracle
        rejects, counts as a failed operation."""
        import oracles
        t = time.perf_counter()
        try:
            python_child(["-m", "gamma4.cli", "classify", "--out", str(self.out)])
            problems = []
        except RuntimeError as exc:
            problems = [str(exc)]
        self.cli.append(time.perf_counter() - t)
        if not problems:
            text = self.out.read_text()
            problems = oracles.check_bundled(text, text)
        for problem in problems:
            print(f"gamma4 classify: {problem}")
        self.cli_failed += bool(problems)


def cli_import_ms():
    code = ("import time; t = time.perf_counter(); import gamma4.cli; "
            "print(time.perf_counter() - t)")
    return min(float(python_child(["-c", code])) for _ in range(CLI_SAMPLES)) * 1000


def check_outputs(workload, results, errors, done):
    """Run the oracles; returns the failed operation count."""
    failed = sum(errors)
    for i, result in enumerate(results):
        if result is None:
            continue
        problems = workload.check(i, result)
        for problem in problems:
            print(f"input {i}: {problem}")
        if problems:
            failed += done - errors[i]
    return failed


def trace_metrics(workload, args):
    """Untraced passes, then the same number traced; per-layer self time
    and calls per operation, plus the tracing overhead."""
    from tracing import Tracer, layer_totals
    tracer = Tracer()
    with tracer.installed():
        tracer.phase = "build"
        workload.build()
    workload.run(workload.inputs[0])
    times, _results, errors, done, _elapsed = timed_passes(workload, args.seconds / 2)
    plain = throughput(times)
    tracer.phase = "ops"
    with tracer.installed():
        times, results, errors2, _done, _elapsed = timed_passes(
            workload, 0, passes=done)
    traced = throughput(times)
    per_phase = {"build": len(workload.inputs), "ops": done * len(workload.inputs)}
    per_op = {}
    for (phase, name), (seconds, calls) in layer_totals(tracer.spans).items():
        ms, n = per_op.get(name, (0.0, 0.0))
        per_op[name] = (ms + seconds * 1000 / per_phase[phase],
                        n + calls / per_phase[phase])
    metrics = {}
    for module, names in LAYERS.items():
        for fn in names:
            ms, calls = per_op.get(f"{module}.{fn}", (0.0, 0.0))
            metrics[f"{module}.{fn}.ms"] = (ms, "ms")
            if f"{module}.{fn}" in COUNTED_CALLS:
                metrics[f"{module}.{fn}.calls"] = (calls, "count")
    metrics["cli.import_ms"] = (cli_import_ms(), "ms")
    metrics["trace.throughput_ops_s"] = (traced, "1/s")
    metrics["trace.overhead_ratio"] = (plain / traced, "ratio")
    print(f"traced {done} passes: throughput {traced:.4g} ops/s traced "
          f"against {plain:.4g} untraced")
    return metrics, results, [a + b for a, b in zip(errors, errors2)], 2 * done


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # set-up samples for setup_s
    args = parser.parse_args()
    if not (SRC / "gamma4" / "__init__.py").is_file():
        print(f"no gamma4 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        set_up(args.workload, args.seed)
        print(time.perf_counter() - START)
        return 0

    if args.trace:
        workload = make_workload(args.workload, args.seed)
        metrics, results, errors, done = trace_metrics(workload, args)
    else:
        workload = set_up(args.workload, args.seed)
        own_setup = time.perf_counter() - START
        with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
            fresh = FreshProcessSamples(args, own_setup, tmp)
            times, results, errors, done, elapsed = timed_passes(
                workload, args.seconds, side=fresh.tasks())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = timing_metrics(times, elapsed)
        metrics["setup_s"] = (statistics.median(fresh.setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["cli_classify_ms"] = (min(fresh.cli) * 1000, "ms")

    print(f"workload {args.workload}, seed {args.seed}: {workload.describe(results)}")
    print(f"inputs sha256 {workload.digest()}")
    attempted = done * len(workload.inputs)
    failed = check_outputs(workload, results, errors, done)
    if not args.trace:
        attempted += len(fresh.cli)
        failed += fresh.cli_failed
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    assert list(metrics) == (per_layer_names() if args.trace else list(END_TO_END))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
