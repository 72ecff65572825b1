"""PD parsing, rendering, and CSV ingestion."""

import hashlib
import json
import random
import re
from dataclasses import fields

import pytest

from conftest import TREFOIL_PD, mirror, torus2
from gamma4.errors import DataError, PDSemanticError, PDSyntaxError
from gamma4 import knotio
from gamma4.knotio import (_DATASET_PARSERS, CERTIFICATE_COLUMNS,
                           DATASET_COLUMNS, SLICE, BandMoveCertificate,
                           KnotRecord, PDCode, _parse_int, load_certificates,
                           load_dataset, over_directions, parse_pd, render_pd)


def test_parse_unknot():
    pd = parse_pd("PD[]")
    assert len(pd) == 0 and pd.crossings == ()


def test_parse_trefoil():
    pd = parse_pd(TREFOIL_PD)
    assert len(pd) == 3
    assert pd.crossings[0] == (1, 4, 2, 5)


def test_parse_is_whitespace_insensitive():
    spaced = "PD[ X[1,4,2,5] ,\n X[3,6,4,1],X[5,2,6,3] ]"
    assert parse_pd(spaced) == parse_pd(TREFOIL_PD)


def test_whitespace_squeeze_is_what_the_regex_removed():
    """``parse_pd`` squeezes with ``str.split()``, which removes the code
    points ``re.sub(r"\\s+", "", ...)`` removed, at every code point."""
    regex = re.compile(r"\s+")
    differ = [hex(cp) for cp in range(0x110000)
              if "".join(f"a{chr(cp)}b".split()) != regex.sub("", f"a{chr(cp)}b")]
    assert differ == []
    spaces = [chr(cp) for cp in range(0x110000) if not chr(cp).split()]
    assert all(parse_pd(f"PD[{c}]") == PDCode(crossings=()) for c in spaces)


def test_parse_reports_label_multiplicity_with_crossing_index():
    with pytest.raises(PDSemanticError) as err:
        parse_pd("PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,2]]")
    assert "crossing" in str(err.value)
    assert "label 2" in str(err.value)


def test_parse_rejects_label_out_of_range():
    with pytest.raises(PDSemanticError):
        parse_pd("PD[X[1,7,2,5], X[3,6,4,1], X[5,2,6,3]]")


def test_parse_rejects_entirely_missing_label():
    # label 1 never occurs; no crossing can be blamed but the error is clean
    with pytest.raises(PDSemanticError) as err:
        parse_pd("PD[X[2,4,3,4], X[3,2,4,2]]")
    assert "label 1 occurs 0 times" in str(err.value)


def test_parse_rejects_broken_under_strand_succession():
    # under-strand must exit at a+1 (mod 2n)
    with pytest.raises(PDSemanticError):
        parse_pd("PD[X[1,4,5,2], X[3,6,4,1], X[5,2,6,3]]")


def test_parse_rejects_double_headed_edges():
    # labels counted twice each and locally consecutive, but edge 1 enters
    # two crossings and leaves none
    with pytest.raises(PDSemanticError):
        parse_pd("PD[X[1,3,2,4], X[3,1,4,2]]")


@pytest.mark.parametrize("crossings, crossing, reason", [
    (((1, 2, 2),), 0, "3 labels, expected 4"),
    (((1, 4, 2, 5), (3, 6, 4, 1, 2), (5, 2, 6, 3)), 1, "5 labels, expected 4"),
    (((1, 7, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), 0, "label 7 out of range 1..6"),
    (((1, 2, 2, 1), (3, 4, 4, 4)), 1, "label 3 occurs 1 times"),
    (((1, 2, 2, 1), (3, 3, 3, 4)), 1, "label 3 occurs 3 times"),
    (((1, 1, 1, 2),), 0, "label 1 occurs 3 times"),
    (((1, 1, 1, 1), (2, 2, 3, 4)), 0, "label 1 occurs 4 times"),
], ids=["3-labels", "5-labels", "out-of-range", "used-once", "used-thrice",
        "one-crossing-thrice", "used-four-times"])
def test_pd_code_rejects_with_the_crossing_index(crossings, crossing, reason):
    # the constructor checks a code built directly, not only a parsed one
    with pytest.raises(PDSemanticError, match=f"^crossing {crossing}: .*{reason}"
                       ) as err:
        PDCode(crossings)
    assert err.value.crossing == crossing


def test_parse_syntax_errors():
    for text in ("PD", "PD[X[1,2,3]]", "PD[X[1,2,3,4]", "X[1,2,3,4]",
                 "PD[X[1,2,3,4];X[3,4,1,2]]", "PD[X[a,2,3,4]]"):
        with pytest.raises(PDSyntaxError):
            parse_pd(text)


def test_parse_rejects_a_trailing_comma():
    with pytest.raises(PDSyntaxError, match="trailing ','"):
        parse_pd("PD[X[4,2,5,1], X[2,6,3,5], X[6,4,1,3],]")
    with pytest.raises(PDSyntaxError, match="malformed crossing token"):
        parse_pd("PD[X[4,2,5,1],, X[2,6,3,5], X[6,4,1,3]]")
    assert len(parse_pd("PD[X[4,2,5,1], X[2,6,3,5], X[6,4,1,3]]")) == 3


def test_render_round_trip_on_assorted_diagrams():
    diagrams = [parse_pd("PD[]"), parse_pd(TREFOIL_PD),
                torus2(5), torus2(7), mirror(torus2(5))]
    for pd in diagrams:
        assert parse_pd(render_pd(pd)) == pd


def test_round_trip_on_dataset_diagrams(dataset):
    for rec in dataset:
        if rec.pd is not None:
            assert parse_pd(render_pd(rec.pd)) == rec.pd


def test_over_directions_trefoil_and_kinks():
    assert over_directions(parse_pd(TREFOIL_PD)) == [1, 1, 1]
    # one-crossing kinks: the mod-2 ambiguity resolves by head/tail counting
    assert over_directions(parse_pd("PD[X[1,1,2,2]]")) == [-1]
    assert over_directions(parse_pd("PD[X[1,2,2,1]]")) == [1]


# dataset ingestion --------------------------------------------------------


def test_bundled_dataset_loads(dataset):
    assert len(dataset) == 185
    names = {rec.name for rec in dataset}
    assert len(names) == 185
    assert all(rec.crossings == 11 for rec in dataset)
    assert sum(1 for rec in dataset if rec.slice) == 16
    assert sum(1 for rec in dataset if rec.pd is not None) == 21


def _counting_parse_pd(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_pd(text)

    monkeypatch.setattr(knotio, "parse_pd", counted)
    return calls


def test_each_distinct_pd_cell_is_parsed_once_per_load(monkeypatch, knots_csv):
    """The bundled 21 PD cells hold 16 distinct texts; no memo outlives
    its load."""
    calls = _counting_parse_pd(monkeypatch)
    records = load_dataset(knots_csv)
    cells = [rec.pd for rec in records if rec.pd is not None]
    assert len(cells) == 21 and len(calls) == 16 == len(set(calls))
    load_dataset(knots_csv)
    assert len(calls) == 32


def test_rows_with_the_same_pd_text_share_one_pd_code(dataset):
    by_text = {}
    for rec in dataset:
        if rec.pd is not None:
            by_text.setdefault(render_pd(rec.pd), []).append(rec.pd)
    shared = [pds for pds in by_text.values() if len(pds) > 1]
    assert len(by_text) == 16 and len(shared) == 5
    assert all(pd is pds[0] for pds in shared for pd in pds)


def test_a_malformed_pd_cell_is_rejected_on_every_row(monkeypatch, tmp_path):
    calls = _counting_parse_pd(monkeypatch)
    bad = '"PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,2]]"'
    path = _write_csv(tmp_path, [f"k1,3,{bad},,,,,,,,,,,false,,",
                                 f"k2,3,\"{TREFOIL_PD}\",,,,,,,,,,,false,,",
                                 f"k3,3,{bad},,,,,,,,,,,false,,"])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert err.value.rows == (2, 4)
    assert len(calls) == 3


def test_dataset_order_independence(tmp_path, knots_csv):
    lines = knots_csv.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    rng = random.Random(3)
    rng.shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + rows) + "\n")
    original = load_dataset(knots_csv)
    permuted = load_dataset(shuffled)
    key = lambda rec: rec.name
    assert sorted(original, key=key) == sorted(permuted, key=key)


def _write_csv(tmp_path, rows):
    header = ("name,crossings,pd,signature,arf,g4,u_lo,u_hi,us_lo,us_hi,"
              "c4_lo,c4_hi,crosscap_hi,slice,determinant,definiteness")
    path = tmp_path / "knots.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_odd_signature_rejected_with_row_number(tmp_path):
    path = _write_csv(tmp_path, ["k1,11,,3,0,1,,,,,,,,false,,"])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "row 2" in str(err.value)
    assert err.value.rows == (2,)


def test_ladder_violation_rejected(tmp_path):
    # g4 = 3 exceeds u_hi = 1: violates g4 <= c4 <= us <= u
    path = _write_csv(tmp_path, ["k1,11,,0,0,3,1,1,,,,,,false,,"])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "ladder" in str(err.value)


def test_slice_with_positive_genus_rejected(tmp_path):
    path = _write_csv(tmp_path, ["k1,11,,0,0,1,,,,,,,,true,,"])
    with pytest.raises(DataError):
        load_dataset(path)


def test_genus_zero_without_the_slice_flag_rejected(tmp_path):
    path = _write_csv(tmp_path, ["k1,11,,,,0,,,,,,,,false,,"])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value).endswith(
        "rejected rows: row 2: g4 = 0 without the slice flag")
    assert load_dataset(_write_csv(tmp_path, ["k1,11,,,,0,,,,,,,,true,,"]))


def test_even_determinant_rejected(tmp_path):
    path = _write_csv(tmp_path, ["k1,11,,0,0,1,,,,,,,,false,10,"])
    with pytest.raises(DataError):
        load_dataset(path)


def test_non_integer_field_rejected(tmp_path):
    path = _write_csv(tmp_path, ["k1,11,,zero,0,1,,,,,,,,false,,"])
    with pytest.raises(DataError):
        load_dataset(path)
    # the crossing number is read unsigned, so a negative one never loads
    path = _write_csv(tmp_path, ["k1,-11,,,,,,,,,,,,false,,"])
    with pytest.raises(DataError, match="row 2: non-integer crossings: '-11'"):
        load_dataset(path)


def _regex_parse_int(cell, what, allow_sign=True):
    """An integer cell read by the ``[+-]?\\d+`` pattern: the reference
    for the regex-free parser."""
    cell = cell.strip()
    if not re.fullmatch(r"[+-]?\d+" if allow_sign else r"\d+", cell):
        raise ValueError(f"non-integer {what}: {cell!r}")
    return int(cell)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("cell", [" 7 ", "+3", "-0", "\u0661\u0662", "\u00b2",
                                  "1_000", "3.0", "+", "0x1", "+11", "", "- 1"])
def test_integer_cells_read_as_the_regex_did(cell):
    """Every integer cell gives the value, or the message, that the
    ``[+-]?\\d+`` pattern gave: signed (an invariant, a band twist) and
    unsigned (the crossing number, which rejects "+11")."""
    signed = _outcome(_regex_parse_int, cell, "signature")
    unsigned = _outcome(_regex_parse_int, cell, "crossings", False)
    if cell.strip():
        assert _outcome(_DATASET_PARSERS["signature"], cell, "signature") == signed
    assert _outcome(_DATASET_PARSERS["crossings"], cell, "crossings") == unsigned
    assert _outcome(_parse_int, cell.strip(), "signature") == signed


def test_decimal_digits_are_what_the_regex_called_digits():
    """``str.isdecimal`` and ``\\d`` on ``str`` both mean Unicode category
    Nd, at every code point."""
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\d", every) == [ch for ch in every if ch.isdecimal()]


def test_missing_mandatory_column(tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text("name,crossings\nk1,11\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "missing mandatory columns" in str(err.value)


def test_repeated_column_rejected(tmp_path):
    # a second signature column would otherwise override the first: -4 -> 2
    path = tmp_path / "knots.csv"
    header = ("name,crossings,pd,signature,arf,g4,u_lo,u_hi,us_lo,us_hi,"
              "c4_lo,c4_hi,crosscap_hi,slice,determinant,definiteness")
    path.write_text(f"{header},signature,arf\nk1,11,,-4,0,2,,,,,,,,false,,,2,1\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "header names columns more than once ['signature', 'arf']" in str(err.value)


def test_bad_rows_are_all_reported(tmp_path):
    path = _write_csv(tmp_path, [
        "k1,11,,3,0,1,,,,,,,,false,,",   # odd signature
        "k2,11,,0,0,1,,,,,,,,false,,",   # fine
        "k3,11,,0,7,1,,,,,,,,false,,",   # bad arf
        "k4,11,,,,,,,,,,,,false,,2",     # definiteness 2
        "k5,11,,,,,,,,,2,1,,false,,",    # empty c4 range
        "k6,11,,,,,,,,,,,,maybe,,",      # slice cell maybe
        " ,11,,,,,,,,,,,,false,,",       # empty knot name
    ])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert err.value.rows == (2, 4, 5, 6, 7, 8)
    assert str(err.value).endswith(
        "row 5: definiteness 2 not +-1; row 6: empty c4 range [2,1]; "
        "row 7: bad boolean slice: 'maybe'; row 8: empty knot name")
    # a file without even a header has no row to name
    path.write_text("")
    with pytest.raises(DataError, match="empty file, header required"):
        load_dataset(path)


def test_repeated_name_is_one_more_rejected_row(tmp_path):
    path = _write_csv(tmp_path, [
        "k1,11,,,,,,,,,,,,false,,",
        "k2,11,,3,,,,,,,,,,false,,",     # odd signature
        "k1,11,,,,,,,,,,,,false,,",      # k1 again
        "k2,11,,,,,,,,,,,,false,,",      # row 3 was rejected: first k2
        "k2,11,,,,,,,,,,,,false,,",
    ])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert err.value.rows == (3, 4, 6)
    assert str(err.value).endswith(
        "rejected rows: row 3: odd signature 3; "
        "row 4: duplicate knot name k1 (first at row 2); "
        "row 6: duplicate knot name k2 (first at row 5)")


def test_dataset_columns_are_the_record_fields_in_order():
    assert DATASET_COLUMNS == [f.name for f in fields(KnotRecord)]



def test_short_row_reads_missing_cells_as_empty(tmp_path):
    path = _write_csv(tmp_path, ["k1", "k2,11"])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "rejected rows: row 2: non-integer crossings" in str(err.value)
    assert err.value.rows == (2,)
    (record,) = load_dataset(_write_csv(tmp_path, ["k2,11"]))
    assert (record.name, record.crossings, record.pd, record.slice) == ("k2", 11, None, False)


def test_surplus_cells_reject_the_row(tmp_path):
    path = _write_csv(tmp_path, ["k1,11,,,,,,,,,,,,false,,",
                                 "k2,11,,,,,,,,,,,,false,,,,x"])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert ("rejected rows: row 3: 2 cell(s) beyond the 16-column header"
            in str(err.value))
    assert err.value.rows == (3,)


def test_blank_lines_are_skipped_and_not_counted(tmp_path):
    rows = ["k1,11,,,,,,,,,,,,false,,", "", "k2,11,,,,,,,,,,,,false,,"]
    assert [r.name for r in load_dataset(_write_csv(tmp_path, rows))] == ["k1", "k2"]
    path = _write_csv(tmp_path, rows + ["", "", "k3,11,,3,,,,,,,,,,false,,"])
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value).endswith("rejected rows: row 4: odd signature 3")
    assert err.value.rows == (4,)


def test_blank_first_line_is_a_header_without_columns(tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text("\n" + ",".join(DATASET_COLUMNS) + "\nk1,11,,,,,,,,,,,,false,,\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: missing mandatory columns {DATASET_COLUMNS}"


# certificates --------------------------------------------------------------


def test_bundled_certificates_load(certificates_csv):
    certs = load_certificates(certificates_csv)
    assert len(certs) == 151
    assert all(c.h in (-1, 0, 1) for c in certs)
    assert all(c.target_gamma4 in (1, SLICE) for c in certs)
    by_source = {}
    for c in certs:
        by_source.setdefault(c.source, []).append(c)
    assert by_source["11n38"][0].target == "3_1"
    assert by_source["11n1"][0].h == -1
    assert by_source["11n1"][0].target_gamma4 == SLICE


# sha256 of the JSON list of every bundled certificate's fields, in
# CERTIFICATE_COLUMNS order, as the frozen-dataclass certificates gave them
BUNDLED_CERTIFICATES_SHA256 = (
    "bebe5dcf55ec9ba40a5bd4bd80b30dd42842831c1351fe6122a696358c85e959")


def test_bundled_certificate_fields_are_unchanged(certificates_csv):
    certs = load_certificates(certificates_csv)
    rows = [[getattr(c, name) for name in CERTIFICATE_COLUMNS] for c in certs]
    assert rows[0] == ["11n38", 0, "3_1", 1, "Fig. 4"]
    assert rows[-1] == ["11n129", 0, "unknown", SLICE,
                        "band move stated without figure"]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == BUNDLED_CERTIFICATES_SHA256


def test_certificate_is_an_immutable_value():
    cert = BandMoveCertificate(source="11n38", h=0, target="3_1",
                               target_gamma4=1)
    assert cert.figure_ref == ""
    assert list(BandMoveCertificate._fields) == CERTIFICATE_COLUMNS
    assert cert == BandMoveCertificate("11n38", 0, "3_1", 1, "")
    assert cert != BandMoveCertificate("11n38", 0, "3_1", SLICE, "")
    for name in CERTIFICATE_COLUMNS:
        with pytest.raises(AttributeError):
            setattr(cert, name, "x")


def _write_certs(tmp_path, rows):
    path = tmp_path / "certificates.csv"
    path.write_text("\n".join(["source,h,target,target_gamma4,figure_ref"]
                              + rows) + "\n")
    return path


def test_certificate_examples(tmp_path):
    certs = load_certificates(_write_certs(tmp_path, [
        "11n38,0,3_1,1,Fig. 4",
        "11n1,-1,0_1,slice,Fig. 5a",
    ]))
    assert certs[0].target_gamma4 == 1
    assert certs[1].target_gamma4 == SLICE


def test_certificate_out_of_range_twist(tmp_path):
    with pytest.raises(DataError):
        load_certificates(_write_certs(tmp_path, ["X,2,Y,1,"]))


def test_certificate_bad_target_gamma(tmp_path):
    with pytest.raises(DataError):
        load_certificates(_write_certs(tmp_path, ["X,0,Y,3,"]))


def test_certificate_bad_rows_are_all_reported(tmp_path):
    path = _write_certs(tmp_path, [
        "X,2,Y,1,",       # twist out of range
        "X,0,Y,1,",       # fine
        " ,0,Y,1,",       # empty source
        "X,0,Y,3,",       # target_gamma4 neither 1 nor slice
    ])
    with pytest.raises(DataError) as err:
        load_certificates(path)
    assert err.value.rows == (2, 4, 5)
    assert str(err.value).endswith(
        "rejected rows: row 2: band twist h=2 not in {-1,0,1}; "
        "row 4: empty source name; "
        "row 5: target_gamma4 3 must be 1 or 'slice'")
    path.write_text("")
    with pytest.raises(DataError, match="empty file, header required"):
        load_certificates(path)


def test_certificate_dangling_target_allowed(tmp_path):
    certs = load_certificates(_write_certs(tmp_path, ["X,0,nowhere,slice,"]))
    assert certs[0].target == "nowhere"


def test_certificate_short_row_reads_missing_cells_as_empty(tmp_path):
    with pytest.raises(DataError) as err:
        load_certificates(_write_certs(tmp_path, ["X,0,Y", "X,0,Y,1"]))
    assert "rejected rows: row 2: non-integer target_gamma4" in str(err.value)
    assert err.value.rows == (2,)
    (cert,) = load_certificates(_write_certs(tmp_path, ["X,0,Y,1"]))
    assert (cert.target_gamma4, cert.figure_ref) == (1, "")


def test_certificate_surplus_cells_reject_the_row(tmp_path):
    # an unquoted comma in the figure reference spills into a sixth cell
    with pytest.raises(DataError) as err:
        load_certificates(_write_certs(tmp_path, ["X,0,Y,1,Fig 2, 3"]))
    assert ("rejected rows: row 2: 1 cell(s) beyond the 5-column header"
            in str(err.value))
    assert err.value.rows == (2,)


def test_certificate_repeated_column_rejected(tmp_path):
    # a second target column would otherwise read C instead of B
    path = tmp_path / "certificates.csv"
    path.write_text("source,h,target,target_gamma4,figure_ref,target\n"
                    "A,0,B,1,Fig. 1,C\n")
    with pytest.raises(DataError, match=r"more than once \['target'\]"):
        load_certificates(path)


def test_certificate_blank_lines_are_skipped_and_not_counted(tmp_path):
    rows = ["X,0,Y,1,a", "", "X,1,Z,slice,b"]
    certs = load_certificates(_write_certs(tmp_path, rows))
    assert [c.figure_ref for c in certs] == ["a", "b"]
    with pytest.raises(DataError) as err:
        load_certificates(_write_certs(tmp_path, rows + ["", "X,2,Y,1,c"]))
    assert str(err.value).endswith("rejected rows: row 4: band twist h=2 not in {-1,0,1}")
    assert err.value.rows == (4,)


def test_certificate_blank_first_line_is_a_header_without_columns(tmp_path):
    path = tmp_path / "certificates.csv"
    path.write_text("\n" + ",".join(CERTIFICATE_COLUMNS) + "\nX,0,Y,1,a\n")
    with pytest.raises(DataError) as err:
        load_certificates(path)
    assert str(err.value) == f"{path}: missing mandatory columns {CERTIFICATE_COLUMNS}"
