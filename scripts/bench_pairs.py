#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write the record.

Each side is a clean source tree in a scratch directory: the parent from
``git archive`` of a commit, the change from a commit or, by default, the
working tree's tracked and unignored files as they are on disk.  Neither
holds a ``__pycache__``, and each runs its own ``perfbench/run.py``.  The
two trees must hold the same ``BENCHMARK.json`` and ``perfbench/``, byte
for byte, or the script stops before it runs anything: a change is judged
by the parent's benchmark, never by one it edits.  Every workload of
``BENCHMARK.json`` runs for its ``run_seconds``; per seed the workloads run
in turn, and within a pair both sides get the same seed and run one at a
time, the parent first in the even pairs (the first seed, the third, ...)
and the change first in the odd ones.

The record (``BENCH_<pr>.json`` at the repository root) gives, per workload and end-to-end
metric, each side's median and quartiles over its runs, the relative
change of the median in the metric's worse direction against the bound in
``BENCHMARK.json``, and the pairs the change won; and whether the two
sides write the same bundled report and summary CSV.  With ``--claim`` it
checks a claimed gain: the change better in at least nine tenths of the
pairs (ties count for neither side), and the medians further apart than
the parent's quartile distance.  ``--traced-seeds`` adds traced pairs of
``TRACED_SECONDS`` on the claimed workload with their per-operation calls
and self times.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pr N --seeds 101-110 \\
        --claim bundled:throughput_ops_s --traced-seeds 121-123 \\
        --work-dir /tmp/bench --note "what the change does"

The benchmark's files are only read, never edited.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BENCHMARK_FILES = ("BENCHMARK.json", "perfbench")
TRACED_SECONDS = 10
TRACED_METRICS = ("planar.goeritz.calls", "exactalg.det.calls",
                  "linkform.linking_form.calls", "pipeline.analyze_diagram.calls",
                  "bounds.classify.calls", "knotio.load_dataset.ms",
                  "knotio.parse_pd.ms", "bounds.classify.ms",
                  "planar.goeritz.ms", "linkform.linking_form.ms",
                  "pipeline.run_classification.ms", "pipeline.report_json.ms",
                  "pipeline.resolve_sign_convention.ms",
                  "trace.throughput_ops_s", "trace.overhead_ratio")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def tree_from_commit(ref, dest):
    with tarfile.open(fileobj=BytesIO(git("archive", ref))) as tar:
        tar.extractall(dest)


def tree_from_worktree(dest):
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def benchmark_files(tree):
    """Every file of the benchmark in ``tree``, by path relative to it."""
    found = {}
    for name in BENCHMARK_FILES:
        top = tree / name
        for path in [top] if top.is_file() else sorted(top.rglob("*")):
            if path.is_file():
                found[path.relative_to(tree).as_posix()] = path.read_bytes()
    return found


def differing_benchmark_files(trees):
    parent, change = (benchmark_files(trees[side]) for side in SIDES)
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_side(tree, workload, seed, seconds, trace):
    """One benchmark run; its parsed last line plus its inputs digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=30 * seconds + 600,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-800:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["inputs_sha256"] = next(
        (line.split()[-1] for line in lines if line.startswith("inputs sha256")),
        None)
    return result


def report_identity(trees, work_dir):
    """sha256 of each side's bundled ``gamma4 classify`` report, with the
    tree's own path taken out of its metadata, and of its summary CSV."""
    digests = {}
    for side, tree in trees.items():
        report, summary = work_dir / f"{side}.json", work_dir / f"{side}.csv"
        subprocess.run([sys.executable, "-m", "gamma4.cli", "classify", "--out",
                        str(report), "--summary-csv", str(summary)],
                       cwd=tree, check=True, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=str(tree / "src"),
                                PYTHONDONTWRITEBYTECODE="1"))
        text = report.read_bytes().replace(str(tree).encode(), b"")
        digests[side] = {"report_sha256": hashlib.sha256(text).hexdigest(),
                         "summary_csv_sha256": hashlib.sha256(
                             summary.read_bytes()).hexdigest()}
    return {**digests, "equal": digests["parent"] == digests["change"]}


def order(index):
    return SIDES if index % 2 == 0 else SIDES[::-1]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def better(metric, a, b):
    """True when ``a`` reads strictly better than ``b``."""
    return a > b if metric["better"] == "higher" else a < b


def summarize(metric, runs):
    parent = quartiles(runs["parent"])
    change = quartiles(runs["change"])
    worse_by = (change["median"] - parent["median"]) / parent["median"]
    if metric["better"] == "higher":
        worse_by = -worse_by
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": parent,
        "change": change,
        "change_over_parent": round(change["median"] / parent["median"], 4),
        "worse_by": round(worse_by, 4),
        "bound": metric["bound"],
        "within_bound": worse_by <= metric["bound"],
        "parent_quartile_distance": round(parent["q3"] - parent["q1"], 4),
        "change_better_pairs": sum(better(metric, c, p) for p, c
                                   in zip(runs["parent"], runs["change"])),
        "runs": runs,
    }


def claim_check(workload, name, summary):
    pairs = len(summary["runs"]["parent"])
    needed = math.ceil(0.9 * pairs)
    gap = abs(summary["change"]["median"] - summary["parent"]["median"])
    won = summary["change_better_pairs"]
    improved = better(summary, summary["change"]["median"],
                      summary["parent"]["median"])
    return {
        "metric": name,
        "workload": workload,
        "parent_median": summary["parent"]["median"],
        "change_median": summary["change"]["median"],
        "change_over_parent": summary["change_over_parent"],
        "required": f"better in at least {needed} of {pairs} pairs, and the "
                    f"median gap larger than the parent's quartile distance",
        "change_better_pairs": won,
        "pairs": pairs,
        "median_gap": round(gap, 4),
        "parent_quartile_distance": summary["parent_quartile_distance"],
        "met": (improved and won >= needed
                and gap > summary["parent_quartile_distance"]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", help="commit of the change side "
                        "(default: the working tree)")
    parser.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--seeds", type=seeds, required=True,
                        help="one pair per seed, e.g. 1801-1810")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--traced-seeds", type=seeds, default=[])
    parser.add_argument("--work-dir", required=True, type=Path,
                        help="an empty or absent scratch directory for the trees")
    parser.add_argument("--note", default="", help="what the change does")
    args = parser.parse_args()

    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs: give two seeds or more")
    if args.work_dir.exists() and any(args.work_dir.iterdir()):
        parser.error(f"{args.work_dir} is not empty")
    trees = {side: args.work_dir / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir(parents=True)
    tree_from_commit(args.parent, trees["parent"])
    if args.change:
        tree_from_commit(args.change, trees["change"])
    else:
        tree_from_worktree(trees["change"])

    differing = differing_benchmark_files(trees)
    if differing:
        sys.exit("the change edits the benchmark; a claimed gain is measured "
                 "on the parent's benchmark only. Differing files: "
                 + ", ".join(differing))
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: {side: [] for side in SIDES} for w in workloads}
    for i, seed in enumerate(args.seeds):
        for workload in workloads:
            for side in order(i):
                result = run_side(trees[side], workload, seed, seconds, 0)
                results[workload][side].append(result)
                print(f"seed {seed} {workload} {side}: throughput "
                      f"{result['metrics']['throughput_ops_s']['value']:.4g} "
                      f"ops/s, failed {result['failed']}", flush=True)

    record = {
        "change": args.note,
        "parent": git("rev-parse", "--short", args.parent).decode().strip(),
        "harness": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace T, each side's own perfbench/ in a "
                   f"clean tree without __pycache__",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                f"PYTHONDONTWRITEBYTECODE=1",
        "method": f"{len(args.seeds)} pairs per workload at seeds "
                  f"{args.seeds[0]}-{args.seeds[-1]}; per seed the workloads "
                  f"run in turn ({', '.join(workloads)}); within a pair the "
                  f"same seed, the parent first in even pairs and the change "
                  f"first in odd pairs; runs one at a time; quartiles are "
                  f"statistics.quantiles(n=4, method='inclusive') over a "
                  f"side's runs; worse_by is the relative change of the median "
                  f"in the metric's worse direction",
        "claim": None,
        "identity": report_identity(trees, args.work_dir),
        "workloads": {},
    }
    for workload, by_side in results.items():
        runs = {side: by_side[side] for side in SIDES}
        record["workloads"][workload] = {
            "seeds": args.seeds,
            "pairs": len(args.seeds),
            "first": {str(seed): order(i)[0] for i, seed in enumerate(args.seeds)},
            "inputs_sha256_equal_per_seed": all(
                p["inputs_sha256"] == c["inputs_sha256"]
                for p, c in zip(runs["parent"], runs["change"])),
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
            "correct": all(r["correct"] for s in SIDES for r in runs[s]),
            "metrics": {
                name: summarize(metric, {
                    s: [round(r["metrics"][name]["value"], 4) for r in runs[s]]
                    for s in SIDES})
                for name, metric in metrics.items()},
        }
    if args.claim:
        workload, _, name = args.claim.partition(":")
        record["claim"] = claim_check(
            workload, name, record["workloads"][workload]["metrics"][name])

    if args.traced_seeds:
        workload = args.claim.partition(":")[0] if args.claim else workloads[0]
        record["traced"] = {}
        for i, seed in enumerate(args.traced_seeds):
            got = {side: run_side(trees[side], workload, seed,
                                  TRACED_SECONDS, 1) for side in order(i)}
            record["traced"][f"{workload} seed {seed}"] = {
                "order": f"{order(i)[0]} first",
                "correct": {s: got[s]["correct"] for s in SIDES},
                "per_operation": {
                    name: {**{s: round(got[s]["metrics"][name]["value"], 4)
                              for s in SIDES},
                           "unit": got["parent"]["metrics"][name]["unit"]}
                    for name in TRACED_METRICS},
            }

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if record["claim"]:
        print(f"claim met: {record['claim']['met']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
