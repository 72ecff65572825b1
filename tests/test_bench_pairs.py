"""The pair runner refuses a claim the benchmark does not declare."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_declared_claim_is_split_into_workload_and_metric():
    assert _bench_pairs().claimed("bundled:throughput_ops_s", SPEC) == (
        "bundled", "throughput_ops_s")


@pytest.mark.parametrize("claim", ["bundeld:throughput_ops_s",
                                   "bundled:throughput", "bundled",
                                   "throughput_ops_s:bundled"])
def test_a_misspelt_claim_exits_1_listing_the_names(claim):
    with pytest.raises(SystemExit) as exit_:
        _bench_pairs().claimed(claim, SPEC)
    message = str(exit_.value.code)
    assert repr(claim) in message
    assert all(w["name"] in message for w in SPEC["workloads"])
    assert all(m["name"] in message for m in SPEC["end_to_end"])
