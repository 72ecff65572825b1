"""The pair runner refuses a claim the benchmark does not declare, checks
report identity under every sign convention and with Klein verdicts, and
counts each side's source lines."""

import importlib.util
import json
import subprocess
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


def test_one_tree_on_both_sides_writes_the_same_reports(tmp_path):
    identity = _bench_pairs().report_identity(
        {"parent": ROOT, "change": ROOT}, tmp_path)
    assert identity["equal"]
    assert list(identity["parent"]) == ["auto", "fixed+", "fixed-",
                                        "enable-klein"]
    # each setting reaches the CLI: every report's metadata names its own
    assert len({d["report_sha256"] for d in identity["parent"].values()}) == 4


@pytest.mark.parametrize("setting", ["auto", "fixed+", "fixed-",
                                     "enable-klein"])
def test_a_report_that_moves_under_one_setting_is_not_equal(
        tmp_path, monkeypatch, setting):
    bench_pairs = _bench_pairs()
    flags = bench_pairs.IDENTITY_SETTINGS[setting]

    def classify(argv, cwd, **_kw):
        got = tuple(argv[4:argv.index("--out")])
        moved = cwd.name == "change" and got == flags
        report = Path(argv[argv.index("--out") + 1])
        report.write_text(f"{cwd} {got} {moved}")
        Path(argv[argv.index("--summary-csv") + 1]).write_text(str(got))

    monkeypatch.setattr(subprocess, "run", classify)
    trees = {side: tmp_path / side for side in ("parent", "change")}
    identity = bench_pairs.report_identity(trees, tmp_path)
    assert not identity["equal"]
    assert [name for name in identity["parent"]
            if identity["parent"][name] != identity["change"][name]] == [setting]


def test_source_lines_count_the_package_python_files_as_wc_does(tmp_path):
    package = tmp_path / "src" / "gamma4"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "data" / "b.py").write_text("z = 3")  # no final newline
    (package / "data" / "knots.csv").write_text("name\nk\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "c.py").write_text("w = 4\n")
    assert _bench_pairs().source_lines(tmp_path) == 3
