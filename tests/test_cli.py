"""CLI contract: subcommands, exit codes, deterministic reports."""

import csv
import json
from fractions import Fraction

import pytest
from sympy import factorint, legendre_symbol

from conftest import TREFOIL_PD
from gamma4 import planar
from gamma4.cli import main
from gamma4.knotio import DATASET_COLUMNS, parse_pd, render_pd
from gamma4.medial import fan_graph, medial_pd


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_goeritz_inline(capsys):
    code, out, _err = run(capsys, "goeritz", "--pd", TREFOIL_PD)
    assert code == 0
    assert "det G" in out and "mu" in out
    assert "Smith form diagonal" in out


def test_goeritz_unknot(capsys):
    code, out, _err = run(capsys, "goeritz", "--pd", "PD[]")
    assert code == 0
    assert "det G = 1" in out


def test_goeritz_csv_dump(capsys):
    code, out, _err = run(capsys, "goeritz", "--pd", TREFOIL_PD, "--csv")
    assert code == 0
    assert "G' as CSV" in out and "G as CSV" in out


def test_goeritz_outer_face_prints_that_coloring(capsys):
    pd = parse_pd(TREFOIL_PD)
    gd = planar.goeritz(pd, outer=0)
    # face 0 is not the default outer face, and its coloring differs
    assert planar.default_outer_face(planar.faces(pd)) != 0
    assert gd.g == [[-2, 1], [1, -2]] != planar.goeritz(pd).g
    code, out, _err = run(capsys, "goeritz", "--pd", TREFOIL_PD, "--outer", "0")
    assert code == 0
    assert "G (row/column 0 deleted):\n  [-2  1]\n  [ 1 -2]\n" in out
    assert f"mu = {gd.mu}\n" in out


@pytest.mark.parametrize("outer", ["5", "-1"])
def test_goeritz_outer_face_out_of_range_exits_2(capsys, outer):
    code, out, err = run(capsys, "goeritz", "--pd", TREFOIL_PD, "--outer", outer)
    assert code == 2 and out == ""
    assert f"outer face {outer} out of range 0..4" in err


@pytest.mark.parametrize("outer", [None, "0", "1", "2", "3"])
def test_goeritz_accepts_kinks_of_both_kinds(capsys, outer):
    # each coloring of this unknot makes one of its two kinks nugatory
    extra = () if outer is None else ("--outer", outer)
    code, out, _err = run(capsys, "goeritz", "--pd",
                          "PD[X[1,1,2,4], X[3,2,4,3]]", *extra)
    assert code == 0
    assert "det G = 1\n" in out or "det G = -1\n" in out
    assert "signature = sig(G) - mu = 0\n" in out


def test_goeritz_malformed_exits_2(capsys):
    code, _out, err = run(capsys, "goeritz", "--pd", "PD[X[1,2]]")
    assert code == 2
    assert "diagram error" in err


def test_goeritz_semantic_error_exits_2(capsys):
    code, _out, err = run(capsys, "goeritz", "--pd",
                          "PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,2]]")
    assert code == 2
    assert "label" in err


def test_goeritz_without_a_diagram_exits_2(capsys):
    code, out, err = run(capsys, "goeritz")
    assert code == 2 and out == ""
    assert "no diagram given: use --pd or --pd-file" in err


def test_goeritz_from_file(capsys, tmp_path):
    path = tmp_path / "diagram.pd"
    path.write_text(TREFOIL_PD + "\n")
    code, out, _err = run(capsys, "goeritz", "--pd-file", str(path))
    assert code == 0 and "det G" in out


def test_goeritz_pd_file_is_read_as_utf8(capsys, tmp_path):
    """A no-break space (two bytes in UTF-8) is whitespace, whatever the
    locale's encoding."""
    path = tmp_path / "diagram.pd"
    path.write_bytes(TREFOIL_PD.replace(" ", "\u00a0").encode("utf-8"))
    code, out, _err = run(capsys, "goeritz", "--pd-file", str(path))
    assert code == 0 and "det G" in out


def test_goeritz_pd_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "diagram.pd"
    path.write_bytes(b"PD[X[1,\xff")
    code, out, err = run(capsys, "goeritz", "--pd-file", str(path))
    assert code == 2 and out == ""
    assert f"{path}: not UTF-8 text: byte 0xff at offset 7" in err


def test_obstruct_known_knot(capsys):
    code, out, _err = run(capsys, "obstruct", "--knot", "11n155")
    assert code == 0
    assert "mobius-cyclic: Obstructed" in out
    assert "sig-arf" in out


def test_obstruct_not_obstructed_knot(capsys):
    code, out, _err = run(capsys, "obstruct", "--knot", "11n17")
    assert code == 0
    assert "mobius-cyclic: NotObstructed" in out
    assert "definiteness: NotObstructed" in out
    assert "not == 4" in out


def test_obstruct_unknown_knot_exits_3(capsys):
    code, _out, err = run(capsys, "obstruct", "--knot", "99n1")
    assert code == 3
    assert "lookup error" in err


def test_obstruct_a_knot_without_a_diagram_exits_3(capsys):
    code, out, err = run(capsys, "obstruct", "--knot", "11n1")
    assert code == 3 and out == ""
    assert "knot '11n1' has no diagram in the dataset" in err


def test_obstruct_without_ingested_signature_says_so(capsys):
    code, out, _err = run(capsys, "obstruct", "--knot", "11n1",
                          "--pd-override", TREFOIL_PD)
    assert code == 0
    assert out.startswith("11n1: H1 = Z3, ")
    assert out.endswith("  sig-arf: signature or Arf not ingested\n")


def test_linkform_prints_the_form_and_its_square_class(capsys):
    code, out, _err = run(capsys, "linkform", "--knot", "11n155")
    assert code == 0
    assert out.partition("\n")[2] == (
        "  lambda(g0, .) = 23/51\n"
        "  square class of k, lambda(g0, g0) = k/n: (k/3) = -1, (k/17) = -1\n")


def test_linkform_json(capsys):
    code, out, _err = run(capsys, "linkform", "--knot", "11n155", "--json")
    assert code == 0
    _header, _, payload = out.partition("\n")
    doc = json.loads(payload)
    assert doc["invariant_factors"] == [51]
    assert "generator_orbit" not in doc
    # the published 20/51, up to the global sign
    assert doc["square_class"] in [
        {str(p): legendre_symbol(k % p, p) for p in (3, 17)} for k in (20, -20)]


def test_linkform_json_on_a_trivial_h1(capsys, tmp_path):
    """The unknot's H1 is trivial, which is cyclic: the document is the one
    any cyclic group gets, with empty factors, form and square class."""
    knots = tmp_path / "knots.csv"
    knots.write_text(",".join(DATASET_COLUMNS) + "\nu,0,PD[],,,,,,,,,,,false,,\n")
    code, out, _err = run(capsys, "linkform", "--knot", "u",
                          "--dataset", str(knots), "--json")
    assert code == 0
    _header, _, payload = out.partition("\n")
    assert json.loads(payload) == {
        "knot": "u", "invariant_factors": [], "form": [], "square_class": {},
        "verdicts": [{"rule": "mobius-cyclic", "result": "NotObstructed",
                      "witness": "trivial H1"}]}


def test_linkform_json_reports_square_class_at_large_order(capsys, tmp_path):
    """A 45-crossing diagram with H1 = Z_623421, 623421 = 3^2 * 113 * 613:
    the square class stands for an orbit of 51,408 fractions."""
    pd, _regions = medial_pd(fan_graph((3, 3, 5, 4, 4, 3), (5, 3, 5, 5, 5)))
    knots = tmp_path / "knots.csv"
    with knots.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DATASET_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerow({c: "" for c in DATASET_COLUMNS} | {
            "name": "fan45", "crossings": str(len(pd)), "pd": render_pd(pd),
            "slice": "false"})
    code, out, _err = run(capsys, "linkform", "--knot", "fan45",
                          "--dataset", str(knots), "--json")
    assert code == 0
    _header, _, payload = out.partition("\n")
    doc = json.loads(payload)
    assert doc["invariant_factors"] == [623421]
    assert "generator_orbit" not in doc
    [[value]] = doc["form"]
    k = Fraction(value).numerator
    assert sorted(doc["square_class"], key=int) == ["3", "113", "613"]
    assert doc["square_class"] == {str(p): legendre_symbol(k % p, p)
                                   for p in factorint(623421)}


def test_classify_writes_deterministic_report(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _o, _e = run(capsys, "classify", "--out", str(out1))
    code2, _o, _e = run(capsys, "classify", "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["summary"]["total"] == 185
    assert doc["summary"]["slice_all_at_1"] is True
    assert doc["metadata"]["calibration"]["signature_rule"] == "sig(G) - mu"
    assert len(doc["knots"]) == 185
    first = doc["knots"][0]
    assert first["name"] == "11n1"
    assert first["bounds"] == {"lower": 1, "upper": 1, "gamma_bar_upper": 5}


def test_classify_to_stdout_prints_only_the_report(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 0
    from gamma4 import pipeline
    from gamma4.cli import bundled
    entries, metadata = pipeline.run_classification(
        bundled("knots.csv"), bundled("certificates.csv"))
    json.loads(out)
    assert out == pipeline.report_json(entries, metadata)
    assert "knots: 185" in err


def test_classify_summary_csv(capsys, tmp_path):
    out = tmp_path / "summary.csv"
    code, _o, _e = run(capsys, "classify", "--summary-csv", str(out),
                       "--out", str(tmp_path / "r.json"))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,lower,upper,status,rules"
    assert len(lines) == 186


def test_verify_theorem_reports_known_discrepancy(capsys):
    """The bundled transcription classifies 184 of 185 knots exactly as
    published; the printed data for 11n131 is internally inconsistent (see
    data/README.md), so the strict count check reports the mismatch and
    exits 4 as its contract requires."""
    code, out, _err = run(capsys, "verify-theorem", "--list-mismatches")
    assert code == 4
    assert "'at_1': 121" in out
    assert "'at_2': 57" in out
    assert "undetermined: 11n131" in out


def test_classify_rejects_bad_dataset(capsys, tmp_path):
    bad = tmp_path / "knots.csv"
    bad.write_text("name,crossings\nk,11\n")
    code, _out, err = run(capsys, "classify", "--dataset", str(bad),
                          "--out", str(tmp_path / "r.json"))
    assert code == 4
    assert "inconsistency" in err



def test_classify_rejects_a_short_row(capsys, tmp_path):
    bad = tmp_path / "knots.csv"
    bad.write_text(",".join(DATASET_COLUMNS) + "\nk1\n")
    code, _out, err = run(capsys, "classify", "--dataset", str(bad),
                          "--out", str(tmp_path / "r.json"))
    assert code == 4
    assert "rejected rows: row 2: non-integer crossings" in err


def test_classify_rejects_surplus_cells(capsys, tmp_path):
    bad = tmp_path / "knots.csv"
    bad.write_text(",".join(DATASET_COLUMNS) + "\nk1,11" + "," * 14 + ",x\n")
    code, _out, err = run(capsys, "classify", "--dataset", str(bad),
                          "--out", str(tmp_path / "r.json"))
    assert code == 4
    assert "rejected rows: row 2: 1 cell(s) beyond the 16-column header" in err


def test_classify_slice_claim_onto_an_unflagged_knot_exits_4(capsys, tmp_path):
    knots = tmp_path / "knots.csv"
    knots.write_text(",".join(DATASET_COLUMNS) + "\na,11,,-4,0,,,,,,,,,false,,\n")
    certs = tmp_path / "certificates.csv"
    certs.write_text("source,h,target,target_gamma4,figure_ref\nB,0,a,slice,fig\n")
    code, _out, err = run(capsys, "classify", "--dataset", str(knots),
                          "--certificates", str(certs),
                          "--out", str(tmp_path / "r.json"))
    assert code == 4
    assert "B -> a claims the target is slice" in err


def test_classify_empty_dataset(capsys, tmp_path):
    header = ("name,crossings,pd,signature,arf,g4,u_lo,u_hi,us_lo,us_hi,"
              "c4_lo,c4_hi,crosscap_hi,slice,determinant,definiteness\n")
    empty_knots = tmp_path / "knots.csv"
    empty_knots.write_text(header)
    empty_certs = tmp_path / "certificates.csv"
    empty_certs.write_text("source,h,target,target_gamma4,figure_ref\n")
    code, out, _err = run(capsys, "classify",
                          "--dataset", str(empty_knots),
                          "--certificates", str(empty_certs),
                          "--out", str(tmp_path / "r.json"))
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["summary"]["total"] == 0 and doc["knots"] == []


def dataset_with_11n38_twice(tmp_path, knots_csv):
    """The bundled 11n38 row (row 2), then 11n17's row renamed 11n38."""
    lines = knots_csv.read_text().splitlines()
    first = next(line for line in lines if line.startswith("11n38,"))
    second = next(line for line in lines if line.startswith("11n17,"))
    knots = tmp_path / "knots.csv"
    knots.write_text(f"{lines[0]}\n{first}\n11n38{second[len('11n17'):]}\n")
    return knots


@pytest.mark.parametrize("command", [["obstruct"], ["linkform", "--json"],
                                     ["classify"]])
def test_a_repeated_knot_name_exits_4_in_every_command(
        capsys, tmp_path, knots_csv, command):
    knots = dataset_with_11n38_twice(tmp_path, knots_csv)
    target = (["--out", str(tmp_path / "r.json")] if command == ["classify"]
              else ["--knot", "11n38"])
    code, out, err = run(capsys, *command, *target, "--dataset", str(knots))
    assert code == 4 and out == ""
    assert "row 3: duplicate knot name 11n38 (first at row 2)" in err


@pytest.mark.parametrize("command", [["obstruct"], ["linkform", "--json"],
                                     ["classify"]])
def test_genus_zero_without_the_slice_flag_exits_4_in_every_command(
        capsys, tmp_path, knots_csv, command):
    with open(knots_csv, newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if r["name"] == "11n38")
    row["g4"] = "0"
    knots = tmp_path / "knots.csv"
    with knots.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DATASET_COLUMNS)
        writer.writeheader()
        writer.writerow(row)
    target = (["--out", str(tmp_path / "r.json")] if command == ["classify"]
              else ["--knot", "11n38"])
    code, out, err = run(capsys, *command, *target, "--dataset", str(knots))
    assert code == 4 and out == ""
    assert "row 2: g4 = 0 without the slice flag" in err


@pytest.mark.parametrize("command, bad", [("classify", "knots"),
                                          ("classify", "certificates"),
                                          ("obstruct", "knots")])
def test_a_file_that_is_not_utf8_exits_4(capsys, tmp_path, knots_csv,
                                         certificates_csv, command, bad):
    """A 0xff byte in row 2's first cell names the file and the offset."""
    paths = {"knots": knots_csv, "certificates": certificates_csv}
    data = paths[bad].read_bytes()
    at = data.index(b"\n") + 1
    paths[bad] = tmp_path / f"{bad}.csv"
    paths[bad].write_bytes(data[:at] + b"\xff" + data[at + 1:])
    argv = [command, "--dataset", str(paths["knots"])]
    if command == "classify":
        argv += ["--certificates", str(paths["certificates"]),
                 "--out", str(tmp_path / "r.json")]
    else:
        argv += ["--knot", "11n38"]
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert f"{paths[bad]}: not UTF-8 text: byte 0xff at offset {at}" in err


def test_missing_dataset_file(capsys, tmp_path):
    code, _out, err = run(capsys, "classify",
                          "--dataset", str(tmp_path / "nope.csv"),
                          "--out", str(tmp_path / "r.json"))
    assert code == 4
    assert "io error" in err


def test_goeritz_11n155_prints_published_matrix(capsys, dataset_by_name):
    from gamma4.knotio import render_pd
    pd_text = render_pd(dataset_by_name["11n155"].pd)
    code, out, _err = run(capsys, "goeritz", "--pd", pd_text)
    assert code == 0
    assert "det G = -51" in out
    assert "[ 3 -1  0 -1]" in out
    assert "invariant factors: [51]" in out


def one_row_11n17_with_negative_definiteness(tmp_path, knots_csv):
    """The bundled 11n17 row alone, its definiteness flipped to -1: the
    +1/47 form contradicts it under +G^-1, so ``auto`` resolves to -1."""
    lines = knots_csv.read_text().splitlines()
    row = next(line for line in lines if line.startswith("11n17,"))
    assert row.endswith(",1")
    knots = tmp_path / "knots.csv"
    knots.write_text(f"{lines[0]}\n{row[:-1]}-1\n")
    certs = tmp_path / "certificates.csv"
    certs.write_text("source,h,target,target_gamma4,figure_ref\n")
    return knots, certs


def test_auto_sign_resolves_alike_in_every_command(capsys, tmp_path, knots_csv):
    knots, certs = one_row_11n17_with_negative_definiteness(tmp_path, knots_csv)
    report = tmp_path / "r.json"
    code, _out, _err = run(capsys, "classify", "--dataset", str(knots),
                           "--certificates", str(certs), "--out", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["metadata"]["linking_sign"]["value"] == -1
    [knot] = doc["knots"]
    definiteness = [v for v in knot["verdicts"] if v["rule"] == "definiteness"]
    assert [v["result"] for v in definiteness] == ["NotObstructed"]

    code, out, _err = run(capsys, "obstruct", "--knot", "11n17",
                          "--dataset", str(knots))
    assert code == 0
    assert "definiteness: NotObstructed" in out

    code, out, _err = run(capsys, "linkform", "--knot", "11n17",
                          "--dataset", str(knots), "--json")
    assert code == 0
    header, _, payload = out.partition("\n")
    assert "global sign -1" in header
    assert json.loads(payload)["form"] == [[knot["linking_fraction"]]]


def test_obstruct_and_linkform_take_no_certificates(capsys):
    for command in ("obstruct", "linkform"):
        with pytest.raises(SystemExit):
            main([command, "--knot", "11n17", "--certificates", "c.csv"])
        capsys.readouterr()


LEFT_TREFOIL_PD = "PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]"
RIGHT_TREFOIL_PD = "PD[X[4,2,5,1], X[2,6,3,5], X[6,4,1,3]]"


@pytest.mark.parametrize("command", [["obstruct"], ["linkform", "--json"]])
def test_pd_override_is_analyzed_not_the_dataset_diagram(capsys, command):
    """11n38 (det 3, signature -2) votes on the sign, so its own double
    cover is built before the override is read; the override must get a
    cover of its own.  The left trefoil agrees with the row, its mirror
    contradicts the ingested signature."""
    code, out, _err = run(capsys, *command, "--knot", "11n38",
                          "--pd-override", LEFT_TREFOIL_PD)
    assert code == 0
    assert "= Z3" in out.partition("\n")[0]
    if "--json" in command:
        assert json.loads(out.partition("\n")[2])["invariant_factors"] == [3]

    code, out, err = run(capsys, *command, "--knot", "11n38",
                         "--pd-override", RIGHT_TREFOIL_PD)
    assert code == 4 and out == ""
    assert ("Goeritz signature 2 disagrees with the ingested signature -2"
            in err)
