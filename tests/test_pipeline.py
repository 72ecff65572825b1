"""Pipeline orchestration: cross-checks, fixed points, sign calibration."""

import csv
import hashlib
import itertools
import json
from dataclasses import replace
from math import gcd

import pytest

from gamma4 import bounds, pipeline
from gamma4.bounds import GammaBounds
from gamma4.cli import main
from gamma4.errors import DataError, InconsistencyError
from gamma4.knotio import DATASET_COLUMNS, render_pd
from gamma4.linkform import (INAPPLICABLE, NOT_OBSTRUCTED, OBSTRUCTED,
                             FiniteAbelianGroup, LinkingForm,
                             definiteness_consistency)

HEADER = ",".join(DATASET_COLUMNS)
CERT_HEADER = "source,h,target,target_gamma4,figure_ref"


def write_rows(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def edit_dataset(knots_csv, tmp_path, name, **changes):
    """Copy the bundled dataset with one row's cells replaced."""
    with open(knots_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["name"] == name:
            row.update(changes)
    out = tmp_path / "knots.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DATASET_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return out


def test_wrong_signature_is_an_inconsistency(knots_csv, certificates_csv, tmp_path):
    bad = edit_dataset(knots_csv, tmp_path, "11n155", signature="-4")
    with pytest.raises(InconsistencyError) as err:
        pipeline.run_classification(bad, certificates_csv)
    assert "11n155" in str(err.value) and "signature" in str(err.value)


def test_signature_off_by_two_contradicts_the_determinant_sign(
        dataset_by_name, monkeypatch):
    # no ingested signature or determinant: only det G can catch it
    rec = replace(dataset_by_name["11n155"], signature=None, determinant=None)
    pipeline.analyze_diagram(rec, 1)
    from gamma4 import exactalg
    original = exactalg.signature
    monkeypatch.setattr(exactalg, "signature", lambda m: original(m) + 2)
    with pytest.raises(InconsistencyError) as err:
        pipeline.analyze_diagram(rec, 1)
    assert "11n155" in str(err.value) and "det G" in str(err.value)



def test_odd_signature_exits_4(capsys, monkeypatch, tmp_path):
    from gamma4 import exactalg
    original = exactalg.signature
    monkeypatch.setattr(exactalg, "signature", lambda m: original(m) + 1)
    assert main(["classify", "--out", str(tmp_path / "r.json")]) == 4
    assert "odd signature" in capsys.readouterr().err


def test_wrong_determinant_is_an_inconsistency(knots_csv, certificates_csv, tmp_path):
    bad = edit_dataset(knots_csv, tmp_path, "11n155", determinant="49")
    with pytest.raises(InconsistencyError) as err:
        pipeline.run_classification(bad, certificates_csv)
    assert "det" in str(err.value)


def test_duplicate_names_rejected(tmp_path, certificates_csv):
    knots = write_rows(tmp_path / "knots.csv", HEADER, [
        "k1,11,,,,,,,,,,,,false,,",
        "k1,11,,,,,,,,,,,,false,,",
    ])
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, [])
    with pytest.raises(DataError, match=r"row 3: duplicate knot name k1 "
                                        r"\(first at row 2\)"):
        pipeline.run_classification(knots, certs)


def test_certificate_chain_resolves_by_fixed_point(tmp_path):
    """b's upper bound depends on a's classification and c's on b's; the
    chain c -> b -> a -> slice settles at uppers 1, 2, 3."""
    knots = write_rows(tmp_path / "knots.csv", HEADER, [
        "a,11,,,,,,,,,,,,false,,",
        "b,11,,,,,,,,,,,,false,,",
        "c,11,,,,,,,,,,,,false,,",
    ])
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, [
        "a,0,0_1,slice,f1",
        "b,0,a,1,f2",
        "c,0,b,1,f3",
    ])
    entries, _meta = pipeline.run_classification(knots, certs)
    uppers = {e.name: e.bounds.upper for e in entries}
    assert uppers == {"a": 1, "b": 2, "c": 3}


def test_certificate_sweep_that_never_settles_is_an_inconsistency(
        tmp_path, monkeypatch, capsys):
    # only a cycle of band moves is swept, so the guard needs one: a <-> b
    knots = write_rows(tmp_path / "knots.csv", HEADER, [
        "a,11,,,,,,,,,,,,false,,",
        "b,11,,,,,,,,,,,,false,,",
    ])
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, [
        "a,0,b,1,f1",
        "b,0,a,1,f2",
    ])
    calls = itertools.count()

    def never_settling(rec, verdicts, certs, resolve):
        return GammaBounds(name=rec.name, upper=2 + next(calls))

    monkeypatch.setattr(bounds, "classify", never_settling)
    with pytest.raises(InconsistencyError, match="did not converge after 3"):
        pipeline.run_classification(knots, certs)
    assert main(["classify", "--dataset", str(knots), "--certificates",
                 str(certs), "--out", str(tmp_path / "r.json")]) == 4
    assert "did not converge" in capsys.readouterr().err


def test_certificate_claim_contradicting_run_is_flagged(tmp_path, dataset_by_name):
    # "a" is pinned at gamma4 = 2 by sig-arf + clasp-1 data, but a
    # certificate claims a band move *to* it with target gamma4 = 1
    knots = write_rows(tmp_path / "knots.csv", HEADER, [
        "a,11,,-4,0,1,,,1,1,,,,false,,",
        "b,11,,,,,,,,,,,,false,,",
    ])
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, ["b,0,a,1,f"])
    with pytest.raises(InconsistencyError) as err:
        pipeline.run_classification(knots, certs)
    assert "claims" in str(err.value)


def test_certificate_claim_against_an_undetermined_lower_exits_4(
        tmp_path, capsys):
    # "a" is only known to lie in [2, 5] (sig-arf, crossing floor), which
    # already contradicts the claim gamma4(a) = 1
    knots = write_rows(tmp_path / "knots.csv", HEADER, [
        "a,11,,-4,0,,,,,,,,,false,,",
    ])
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, ["B,0,a,1,fig"])
    assert main(["classify", "--dataset", str(knots), "--certificates",
                 str(certs), "--out", str(tmp_path / "r.json")]) == 4
    assert "B -> a claims the target has gamma4 = 1" in capsys.readouterr().err


def test_sign_convention_flips_on_uniform_contradiction(tmp_path, dataset_by_name):
    """A dataset whose only definiteness row contradicts +G^-1 across the
    board is read as a convention artifact and flipped."""
    pd_text = render_pd(dataset_by_name["11n38"].pd)  # form +1/3 under +
    knots = write_rows(tmp_path / "knots.csv", HEADER, [
        f'a,11,"{pd_text}",-2,1,,,,,,,,,false,3,-1',
    ])
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, [])
    entries, meta = pipeline.run_classification(knots, certs)
    assert meta["linking_sign"]["value"] == -1
    assert "flipped" in meta["linking_sign"]["note"]
    # under the flipped convention the row is consistent: no obstruction
    assert entries[0].bounds.lower == 1


def test_sign_vote_minus_clause_never_decides():
    """Why ``resolve_sign_convention`` needs no ``not all(under_minus)``:
    on every unit k of Z_n and for both required signs, a definiteness row
    obstructed under +1 is NotObstructed under -1, and a row is
    Inapplicable under both signs or under neither."""
    obstructed = 0
    for n in range(3, 200, 2):
        group = FiniteAbelianGroup((n,))
        for k in range(1, n):
            if gcd(k, n) != 1:
                continue
            form = LinkingForm(group=group, b=((k,),))
            for required in (1, -1):
                plus, minus = (definiteness_consistency(form.fix_sign(s),
                                                        required).result
                               for s in (1, -1))
                if plus == OBSTRUCTED:
                    obstructed += 1
                    assert minus == NOT_OBSTRUCTED, (n, k, required)
                assert (plus == INAPPLICABLE) == (minus == INAPPLICABLE), (
                    n, k, required)
    assert obstructed > 0


def test_sign_convention_mixed_pattern_keeps_plus(classification):
    _entries, meta = classification
    assert meta["linking_sign"]["value"] == 1
    assert meta["linking_sign"]["requested"] == "auto"


def test_forced_sign_conventions(knots_csv, certificates_csv):
    _e, meta_plus = pipeline.run_classification(knots_csv, certificates_csv,
                                                sign_convention="fixed+")
    assert meta_plus["linking_sign"]["value"] == 1
    # forcing the wrong global sign flips every definiteness comparison:
    # all six of the undetermined knots become (wrongly) obstructed and
    # 11n38's special-case obstruction disappears
    entries, meta_minus = pipeline.run_classification(knots_csv,
                                                      certificates_csv,
                                                      sign_convention="fixed-")
    assert meta_minus["linking_sign"]["value"] == -1
    summary = pipeline.summarize(entries)
    assert summary["determined"] == {"1": 121, "2": 62}
    assert summary["undetermined"] == 2
    undet = {e.name for e in entries if not e.bounds.determined}
    assert undet == {"11n38", "11n131"}


def test_report_reproducible_from_its_own_echoed_inputs(classification):
    entries, metadata = classification
    text1 = pipeline.report_json(entries, metadata)
    echoed = json.loads(text1)["metadata"]
    entries2, metadata2 = pipeline.run_classification(
        echoed["dataset_path"], echoed["certificates_path"],
        enable_klein=echoed["klein_enabled"],
        sign_convention=echoed["linking_sign"]["requested"])
    text2 = pipeline.report_json(entries2, metadata2)
    assert text1 == text2


def test_homology_order_matches_ingested_determinant(dataset):
    from gamma4.linkform import homology
    from gamma4.planar import goeritz
    for rec in dataset:
        if rec.pd is not None and rec.determinant is not None:
            assert homology(goeritz(rec.pd)).order == rec.determinant, rec.name


def test_entries_sorted_by_natural_name_order(classification):
    entries, _meta = classification
    names = [e.name for e in entries]
    assert names[0] == "11n1" and names[1] == "11n2"
    assert names.index("11n10") == 9
    assert names == sorted(names, key=pipeline.natural_key)


def test_klein_enabled_adds_verdicts_only_on_p_plus_p(knots_csv, certificates_csv):
    entries, _meta = pipeline.run_classification(knots_csv, certificates_csv,
                                                 enable_klein=True)
    # every bundled realization has cyclic H1, so the Klein test never
    # applies and the counts are unchanged
    summary = pipeline.summarize(entries)
    assert summary["determined"] == {"1": 121, "2": 57}
    for e in entries:
        if e.analysis is not None:
            assert all(v.rule != "klein-discriminant" for v in e.analysis.verdicts)


def test_klein_verdict_reachable_on_noncyclic_homology():
    # the granny knot has H1 = Z3 + Z3, so the discriminant test applies
    from conftest import connect_sum, torus2
    from gamma4.knotio import KnotRecord

    granny = connect_sum(torus2(3), torus2(3))
    rec = KnotRecord(name="granny", crossings=6, pd=granny)
    analysis = pipeline.analyze_diagram(rec, sign=1, enable_klein=True)
    assert analysis.group.invariant_factors == (3, 3)
    klein = [v for v in analysis.verdicts if v.rule == "klein-discriminant"]
    assert len(klein) == 1
    # both summands carry +-1/3, so the discriminant is +-1 mod 3: no
    # obstruction to a punctured Klein bottle
    assert klein[0].result == "NotObstructed"
    # the Mobius test reports Inapplicable on the non-cyclic group
    mobius = [v for v in analysis.verdicts if v.rule == "mobius-cyclic"]
    assert mobius[0].result == "Inapplicable"


def test_factorize_runs_at_most_once_per_analysis(dataset, monkeypatch):
    from gamma4 import linkform
    calls = []
    original = linkform.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(linkform, "factorize", counting)
    for rec in dataset:
        if rec.pd is not None:
            calls.clear()
            pipeline.analyze_diagram(rec, 1, enable_klein=True)
            assert len(calls) <= 1, (rec.name, calls)


def knots_digest(report_text):
    """sha256 of the report's knots section, re-serialized canonically
    (the metadata holds checkout paths, so it is left out)."""
    knots = json.loads(report_text)["knots"]
    return hashlib.sha256(
        json.dumps(knots, indent=2, sort_keys=True).encode()).hexdigest()


def test_bundled_report_knots_digest(classification):
    report = pipeline.report_json(*classification)
    assert knots_digest(report) == (
        "7e2a4a5ce00b6317714d2851536c441f4be778342fda90c2fb39fca86f1b82b5")


def test_bundled_report_knots_block_bytes(classification):
    """The raw knots block, from its opening line through its closing one:
    pins key order, separators and escaping inside the knot lines, which
    the canonical re-serialization above does not see."""
    lines = pipeline.report_json(*classification).splitlines()
    start = lines.index('  "knots": [')
    stop = lines.index("  ],", start)
    assert stop - start - 1 == 185
    block = "\n".join(lines[start:stop + 1]) + "\n"
    assert hashlib.sha256(block.encode()).hexdigest() == (
        "e574cf2f5321b5246a2d15867cfb3ca6a7060c52fa38beafe9234ef65117d180")


def test_bundled_summary_csv_digest(classification):
    summary = pipeline.summary_csv(classification[0])
    assert hashlib.sha256(summary.encode()).hexdigest() == (
        "68f1e18d0f228c923f8c9ed11ababd709462897d846e034643f332023f88e3fc")


def test_bundled_report_has_one_line_per_knot(classification):
    entries, metadata = classification
    lines = pipeline.report_json(entries, metadata).splitlines()
    start = lines.index('  "knots": [')
    knot_lines = lines[start + 1:start + 1 + len(entries)]
    assert lines[start + 1 + len(entries)] == "  ],"
    for e, line in zip(entries, knot_lines, strict=True):
        assert line.startswith("    {")
        assert json.loads(line.removesuffix(",")) == pipeline.entry_dict(e)
    assert sum(line.startswith("    {") for line in lines) == len(entries)


@pytest.mark.parametrize("options", [
    {}, {"sign_convention": "fixed-"}, {"enable_klein": True}])
def test_report_parses_to_the_indented_document(knots_csv, certificates_csv,
                                                options):
    entries, metadata = pipeline.run_classification(knots_csv,
                                                    certificates_csv, **options)
    doc = {"metadata": metadata, "summary": pipeline.summarize(entries),
           "knots": [pipeline.entry_dict(e) for e in entries]}
    assert json.loads(pipeline.report_json(entries, metadata)) == json.loads(
        json.dumps(doc, indent=2, sort_keys=True))


def test_empty_report_renders_an_empty_knots_list(tmp_path):
    knots = write_rows(tmp_path / "knots.csv", HEADER, [])
    certs = write_rows(tmp_path / "certificates.csv", CERT_HEADER, [])
    text = pipeline.report_json(*pipeline.run_classification(knots, certs))
    assert '  "knots": [],\n' in text
    doc = json.loads(text)
    assert doc["knots"] == [] and doc["summary"]["total"] == 0


def test_over_directions_runs_once_per_diagram(dataset):
    """Parsing resolves the directions; every checkerboard coloring,
    the nugatory retry included, reads the same ones.  A profile hook
    counts the calls however a module imported the function."""
    import sys
    from conftest import connect_sum, torus2
    from gamma4.knotio import KnotRecord, over_directions, parse_pd
    calls = []

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is over_directions.__code__:
            calls.append(frame)

    kinked = connect_sum(torus2(3), parse_pd("PD[X[1,1,2,2]]"))
    texts = [render_pd(rec.pd) for rec in dataset if rec.pd is not None]
    for text in texts + [render_pd(kinked)]:
        calls.clear()
        sys.setprofile(count)
        try:
            rec = KnotRecord(name="k", crossings=11, pd=parse_pd(text))
            pipeline.analyze_diagram(rec, 1)
        finally:
            sys.setprofile(None)
        assert len(calls) == 1, text


def test_a_shared_cover_gives_the_same_analysis(dataset):
    """One double cover read under both signs, with Klein on and off, is
    what the sign vote and the final pass do with it."""
    for rec in dataset:
        if rec.pd is None:
            continue
        cover = pipeline.double_cover(rec)
        for sign, klein in itertools.product((1, -1), (False, True)):
            assert (pipeline.analyze_diagram(rec, sign, klein, cover=cover)
                    == pipeline.analyze_diagram(rec, sign, klein)), rec.name


def test_an_analysis_on_a_built_cover_computes_no_determinant():
    """The granny knot (H1 = Z3 + Z3) has a 2x2 nondegeneracy minor, which
    the cover's linking form checked once; fixing the sign and running the
    verdicts, Klein's included, take no determinant."""
    import sys
    from conftest import connect_sum, torus2
    from gamma4 import exactalg
    from gamma4.knotio import KnotRecord
    rec = KnotRecord(name="granny", crossings=6,
                     pd=connect_sum(torus2(3), torus2(3)))
    cover = pipeline.double_cover(rec)
    assert cover.group.invariant_factors == (3, 3)
    calls = []

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is exactalg.det.__code__:
            calls.append(frame)

    for sign, klein in itertools.product((1, -1), (False, True)):
        sys.setprofile(count)
        try:
            pipeline.analyze_diagram(rec, sign, klein, cover=cover)
        finally:
            sys.setprofile(None)
        assert calls == [], (sign, klein)


@pytest.mark.parametrize("convention", ["auto", "fixed+", "fixed-"])
def test_one_double_cover_per_diagram_per_run(knots_csv, certificates_csv,
                                              convention):
    """Covers are keyed by PD code, and the sign vote and the final pass
    share them: the 21 diagrams hold 16 distinct PD codes, so a run builds
    16 Goeritz matrices and 16 linking forms, whatever the convention.  Two
    runs build 2 x 16: no cover outlives its run."""
    import sys
    from gamma4 import linkform, planar
    counted = {planar.goeritz.__code__: 0, linkform.linking_form.__code__: 0}

    def count(frame, event, _arg):
        if event == "call" and frame.f_code in counted:
            counted[frame.f_code] += 1

    after = []
    sys.setprofile(count)
    try:
        for _ in range(2):
            entries, _meta = pipeline.run_classification(
                knots_csv, certificates_csv, sign_convention=convention)
            after.append(list(counted.values()))
    finally:
        sys.setprofile(None)
    diagrams = [e.record.pd for e in entries if e.analysis is not None]
    assert (len(diagrams), len(set(diagrams))) == (21, 16)
    assert after == [[16, 16], [2 * 16, 2 * 16]]


def rows_sharing_a_diagram(knots_csv, tmp_path, **second):
    """11n22 and then 11n112, which share one PD code, as a table of their
    own; ``second`` replaces cells of the 11n112 row."""
    with open(knots_csv, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["name"] in ("11n22", "11n112")]
    assert [r["name"] for r in rows] == ["11n22", "11n112"]
    assert rows[0]["pd"] == rows[1]["pd"]
    rows[1].update(second)
    out = tmp_path / "shared.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DATASET_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return out


@pytest.mark.parametrize("cell, value, message", [
    ("determinant", "1", "|det G| = 55 but the table says 1"),
    ("signature", "-2", "Goeritz signature 2 disagrees with the ingested "
                        "signature -2"),
    ("arf", "1", "ingested Arf invariant 1 but |det G| = 55 is 7 mod 8"),
])
def test_a_shared_diagram_is_checked_against_each_record(
        knots_csv, tmp_path, cell, value, message):
    """The second record reads the first one's cover, and its own ingested
    values are still checked against it."""
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, [])
    bad = rows_sharing_a_diagram(knots_csv, tmp_path, **{cell: value})
    with pytest.raises(InconsistencyError) as err:
        pipeline.run_classification(bad, certs)
    assert str(err.value).startswith(f"11n112: {message}")


def test_records_sharing_a_diagram_get_the_analysis_of_their_own(
        knots_csv, tmp_path):
    certs = write_rows(tmp_path / "certs.csv", CERT_HEADER, [])
    entries, meta = pipeline.run_classification(
        rows_sharing_a_diagram(knots_csv, tmp_path), certs)
    first, second = (e.analysis for e in entries)
    assert first.goeritz is second.goeritz  # one cover for both
    sign = meta["linking_sign"]["value"]
    for e in entries:
        assert e.analysis == pipeline.analyze_diagram(e.record, sign)


@pytest.mark.parametrize("bad, raised", [
    # both outside the sign vote: table order decides
    (("11n22", "11n155"), "11n22"),
    # the vote's record is built first, though later in the table
    (("11n22", "11n40"), "11n40"),
    # both in the vote: table order again
    (("11n17", "11n178"), "11n17"),
])
def test_first_inconsistent_record_is_the_one_reported(
        knots_csv, certificates_csv, tmp_path, bad, raised):
    first = edit_dataset(knots_csv, tmp_path, bad[0], determinant="1")
    both = edit_dataset(first, tmp_path, bad[1], determinant="1")
    with pytest.raises(InconsistencyError) as err:
        pipeline.run_classification(both, certificates_csv)
    assert str(err.value).startswith(f"{raised}: |det G|")


def test_arf_must_agree_with_the_determinant(knots_csv, certificates_csv,
                                             tmp_path, capsys):
    """Levine: Arf(K) = 0 iff |det K| = +-1 (mod 8); 11n155 has det 51,
    which is 3 mod 8, so its Arf invariant is 1."""
    bad = edit_dataset(knots_csv, tmp_path, "11n155", arf="0")
    with pytest.raises(InconsistencyError,
                       match=r"^11n155: ingested Arf invariant 0 but \|det G\| "
                             r"= 51 is 3 mod 8"):
        pipeline.run_classification(bad, certificates_csv)
    assert main(["classify", "--dataset", str(bad), "--out",
                 str(tmp_path / "r.json")]) == 4
    assert "Arf" in capsys.readouterr().err
