"""Classification rules: obstructions, clasp bounds, certificates."""

import itertools
from dataclasses import replace

import pytest

from gamma4 import bounds as bounds_module
from gamma4 import linkform
from gamma4.bounds import (CITATIONS, GammaBounds, clasp_number, classify,
                           classify_all, sig_arf_obstruction, upper_from_clasp)
from gamma4.errors import InconsistencyError
from gamma4.knotio import (CERTIFICATE_COLUMNS, DATASET_COLUMNS, SLICE,
                           BandMoveCertificate, KnotRecord, load_certificates,
                           load_dataset)
from gamma4.linkform import (NOT_OBSTRUCTED, OBSTRUCTED, RULE_MOBIUS_CYCLIC,
                             ObstructionVerdict)


def rec(**kw):
    base = dict(name="k", crossings=11)
    base.update(kw)
    return KnotRecord(**base)


def cert(source="k", h=0, target="t", target_gamma4=1, figure_ref="fig"):
    return BandMoveCertificate(source=source, h=h, target=target,
                               target_gamma4=target_gamma4,
                               figure_ref=figure_ref)


# sig + 4*Arf ---------------------------------------------------------------


def test_sig_arf_examples():
    assert sig_arf_obstruction(-4, 0) is True
    assert sig_arf_obstruction(0, 1) is True
    assert sig_arf_obstruction(-2, 0) is False


def test_sig_arf_truth_table():
    for sigma in range(-16, 17, 2):
        for arf in (0, 1):
            assert sig_arf_obstruction(sigma, arf) == ((sigma + 4 * arf) % 8 == 4)


def test_sig_arf_rejects_bad_input():
    with pytest.raises(ValueError):
        sig_arf_obstruction(3, 0)
    with pytest.raises(ValueError):
        sig_arf_obstruction(0, 2)


# clasp number ---------------------------------------------------------------


def test_clasp_exact_from_unknotting():
    assert clasp_number(rec(g4=1, u_lo=1, u_hi=1)) == (1, 1)
    assert clasp_number(rec(g4=2, u_lo=2, u_hi=2)) == (2, 2)


def test_clasp_interval():
    assert clasp_number(rec(g4=1, u_lo=1, u_hi=2)) == (1, 2)
    assert clasp_number(rec(g4=1)) == (1, None)
    assert clasp_number(rec(g4=1, us_lo=1, us_hi=1)) == (1, 1)


def test_clasp_uses_ingested_range():
    assert clasp_number(rec(g4=1, c4_lo=2, c4_hi=3, u_hi=3)) == (2, 3)


def test_clasp_empty_intersection():
    # an empty clasp range breaks the ladder, so no record can hold one
    with pytest.raises(ValueError, match="ladder violation: g4 3 > u 2"):
        rec(g4=3, u_hi=2, c4_lo=3)


def test_clasp_requires_g4():
    with pytest.raises(ValueError):
        clasp_number(rec())


# Prop-2.1-style uppers -------------------------------------------------------


def test_upper_from_clasp_branches():
    assert upper_from_clasp(1, 1) == (2, 2)
    assert upper_from_clasp(2, 2) == (2, 2)   # g4 = c4 ties gamma to Gamma
    assert upper_from_clasp(2, 1) == (3, 2)   # c4 = 2 without the tie
    assert upper_from_clasp(4, 3) == (4, 4)   # even, != 2
    assert upper_from_clasp(3, 3) == (4, 4)
    with pytest.raises(ValueError):
        upper_from_clasp(0, 0)


def test_upper_misc():
    b = classify(rec(g4=1), [], [], lambda c: None)
    uppers = [(r.rule, r.detail) for r in b.reasons
              if r.detail.startswith("upper")]
    assert uppers == [
        ("crossing-floor", "upper <= 5: floor(11/2)"),
        ("orientable-genus", "upper <= 3: 2*1 + 1")]
    b = classify(rec(g4=1, crosscap_hi=2), [], [], lambda c: None)
    assert (b.upper, b.reasons[2].rule) == (2, "crosscap")
    assert classify(rec(slice=True, g4=0), [], [], lambda c: None).upper == 1


# certificates ----------------------------------------------------------------


def test_apply_certificate_slice_target():
    b = classify(rec(), [], [cert(target_gamma4=SLICE)], lambda c: None)
    assert b.upper == 1
    assert b.reasons[-1].rule == "band-move"
    assert b.reasons[-1].detail == "upper <= 1: band move (h=+0) to slice t [fig]"


def test_apply_certificate_gamma_target():
    b = classify(rec(), [], [cert(target_gamma4=1)], lambda c: 1)
    assert b.upper == 2
    assert b.reasons[-1].detail == ("upper <= 2: band move (h=+0) to t with "
                                    "gamma4 = 1 [fig]")


def test_apply_certificate_never_raises_upper():
    # the first move leaves upper 2; resolved 2 gives candidate 3: no change
    first = cert(figure_ref="first")
    b = classify(rec(), [], [first, cert()],
                 lambda c: 1 if c is first else 2)
    assert b.upper == 2
    assert [r.detail for r in b.reasons if r.rule == "band-move"] == [
        "upper <= 2: band move (h=+0) to t with gamma4 = 1 [first]"]


def test_apply_certificate_requires_resolution():
    # an unresolved target bounds nothing and leaves no reason
    b = classify(rec(), [], [cert()], lambda c: None)
    assert b.upper == 5
    assert not any(r.rule == "band-move" for r in b.reasons)


# classify ---------------------------------------------------------------------


def obstructed_verdict():
    return ObstructionVerdict(OBSTRUCTED, "mobius-cyclic", "no generator")


def test_classify_slice_ignores_everything_else():
    b = classify(rec(slice=True, g4=0, signature=0, arf=0),
                 [obstructed_verdict()], [], lambda c: None)
    assert (b.lower, b.upper) == (1, 1)
    assert b.gamma_bar_upper == 0


def test_classify_sig_arf_with_clasp_one():
    b = classify(rec(signature=-4, arf=0, g4=1, us_lo=1, us_hi=1),
                 [], [], lambda c: None)
    assert (b.lower, b.upper) == (2, 2)
    rules = {r.rule for r in b.reasons}
    assert "sig-arf" in rules


def test_classify_clasp_two_route():
    b = classify(rec(signature=-4, arf=0, g4=2, u_lo=2, u_hi=2),
                 [], [], lambda c: None)
    assert (b.lower, b.upper) == (2, 2)


def test_classify_obstruction_plus_band_move():
    b = classify(rec(), [obstructed_verdict()],
                 [cert(target_gamma4=1)], lambda c: 1)
    assert (b.lower, b.upper) == (2, 2)


def test_classify_undetermined_band_move_only():
    b = classify(rec(), [ObstructionVerdict(NOT_OBSTRUCTED, "mobius-cyclic", "g")],
                 [cert(target_gamma4=1)], lambda c: 1)
    assert (b.lower, b.upper) == (1, 2)
    assert not b.determined


def test_classify_defaults_to_crossing_floor():
    b = classify(rec(), [], [], lambda c: None)
    assert (b.lower, b.upper) == (1, 5)


def test_classify_monotone_in_certificates():
    base = classify(rec(), [], [], lambda c: None)
    more = classify(rec(), [], [cert(target_gamma4=1)], lambda c: 1)
    assert more.upper <= base.upper
    even_more = classify(rec(), [], [cert(target_gamma4=SLICE)], lambda c: None)
    assert even_more.upper <= more.upper


def test_classify_inconsistent_when_obstructed_and_slice_move():
    with pytest.raises(InconsistencyError):
        classify(rec(), [obstructed_verdict()],
                 [cert(target_gamma4=SLICE)], lambda c: None)


def test_classify_rejects_foreign_certificate():
    with pytest.raises(ValueError):
        classify(rec(name="a"), [], [cert(source="b")], lambda c: 1)


def test_reasons_accumulate_with_citations():
    b = classify(rec(signature=-4, arf=0),
                 [], [cert(target_gamma4=1)], lambda c: 1)
    assert all(r.citation for r in b.reasons)
    assert any("band move" in r.detail for r in b.reasons)
    assert any(r.rule == "sig-arf" for r in b.reasons)


def test_every_rule_has_a_citation():
    # a reason looks its rule up in CITATIONS, so a rule without an entry
    # raises KeyError rather than citing its own name
    rules = {value for module in (bounds_module, linkform)
             for name, value in vars(module).items() if name.startswith("RULE_")}
    assert rules == set(CITATIONS)
    with pytest.raises(KeyError):
        GammaBounds(name="k").raise_lower(2, "uncited-rule", "detail")


def test_non_improving_rule_leaves_no_reason():
    # with c4 = 1 already forcing upper 2, a band move to a gamma4 = 1
    # target adds nothing and therefore no reason
    b = classify(rec(signature=-4, arf=0, g4=1, us_lo=1, us_hi=1),
                 [], [cert(target_gamma4=1)], lambda c: 1)
    assert (b.lower, b.upper) == (2, 2)
    assert not any("band move" in r.detail for r in b.reasons)


# every rule on one record ------------------------------------------------------


def test_every_rule_golden_trail():
    """The exact (rule, detail) trail, in order, with every upper and
    lower rule present.  A reason is kept only when it moves a bound, so
    the obstructed verdict after sig-arf leaves none; a slice move makes
    the upper 1, so it is pinned without the lower rules and raises with
    them."""
    full = rec(crossings=21, g4=3, c4_lo=4, c4_hi=4, crosscap_hi=6,
               signature=-4, arf=0)
    uppers = [
        ("crossing-floor", "upper <= 10: floor(21/2)"),
        ("orientable-genus", "upper <= 7: 2*3 + 1"),
        ("crosscap", "upper <= 6: crosscap number <= 6"),
        ("crossing-floor", "Gamma4 <= 10: floor(21/2)"),
        ("orientable-genus", "Gamma4 <= 6: Gamma4 <= 2*g4 = 6 by definition"),
        ("clasp-parity", "upper <= 4: c4 = 4 exactly"),
        ("clasp-parity", "Gamma4 <= 4: c4 = 4 exactly"),
        ("band-move", "upper <= 3: band move (h=-1) to t with gamma4 = 2 [fig]"),
    ]
    band = cert(h=-1)
    slice_move = cert(h=1, target="0_1", target_gamma4=SLICE, figure_ref="s")

    def trail(record, verdicts, certs):
        b = classify(record, verdicts, certs, lambda c: 2)
        return (b.lower, b.upper, b.gamma_bar_upper,
                [(r.rule, r.detail) for r in b.reasons])

    assert trail(full, [obstructed_verdict()], [band]) == (2, 3, 4, uppers + [
        ("sig-arf", "lower >= 2: sigma = -4, Arf = 0")])
    # sigma + 4*Arf = 0 (mod 8): the verdict raises the lower bound instead
    assert trail(replace(full, arf=1), [obstructed_verdict()], [band]) == (
        2, 3, 4, uppers + [(RULE_MOBIUS_CYCLIC, "lower >= 2: no generator")])
    assert trail(replace(full, signature=None, arf=None), [],
                 [band, slice_move]) == (1, 1, 4, uppers + [
        ("band-move", "upper <= 1: band move (h=+1) to slice 0_1 [s]")])
    with pytest.raises(InconsistencyError, match="after rule sig-arf"):
        classify(full, [], [band, slice_move], lambda c: 2)
    # g4 = c4 with gamma = Gamma names the tie rule instead
    tied = classify(rec(g4=2, c4_lo=2, c4_hi=2), [], [], lambda c: None)
    assert [(r.rule, r.detail) for r in tied.reasons][-2:] == [
        ("clasp-equals-genus", "upper <= 2: c4 = 2 exactly"),
        ("clasp-parity", "Gamma4 <= 2: c4 = 2 exactly")]


# the certificate ledger ---------------------------------------------------------


def test_classify_all_trusts_an_outside_target_and_chains_inside():
    # b comes first, so its target a must be classified before it
    records = [rec(name="b"), rec(name="a")]
    certs = [cert(source="b", target="a"), cert(source="a", target="x")]
    bounds = classify_all(records, {}, certs)
    assert (bounds["a"].upper, bounds["b"].upper) == (2, 3)


def test_classify_all_checks_a_claim_against_an_undetermined_lower():
    # a is [2, 5]: not determined, yet a claim that gamma4(a) = 1 is false
    records = [rec(name="a", signature=-4, arf=0), rec(name="b")]
    with pytest.raises(InconsistencyError,
                       match="b -> a claims .* proved gamma4 >= 2"):
        classify_all(records, {}, [cert(source="b", target="a")])


def test_classify_all_checks_a_slice_claim_against_the_slice_flag(tmp_path):
    # a is not flagged slice (and sig-arf proves gamma4(a) >= 2), so the
    # ledger's claim that B moves to a slice knot a is false
    knots = tmp_path / "knots.csv"
    knots.write_text(",".join(DATASET_COLUMNS) + "\na,11,,-4,0,,,,,,,,,false,,\n")
    certs = tmp_path / "certificates.csv"
    certs.write_text(",".join(CERTIFICATE_COLUMNS) + "\nB,0,a,slice,fig\n")
    records, ledger = load_dataset(knots), load_certificates(certs)
    with pytest.raises(InconsistencyError,
                       match="B -> a claims the target is slice but the "
                             "dataset does not flag it slice"):
        classify_all(records, {}, ledger)
    flagged = [rec(name="a", slice=True)]
    assert classify_all(flagged, {}, ledger)["a"].upper == 1
    # a slice claim onto a knot outside the dataset is still trusted
    assert classify_all([rec(name="B")], {}, ledger)["B"].upper == 1


def test_a_cycle_that_never_settles_is_swept_over_the_whole_ledger(monkeypatch):
    # the only cycle is a <-> b, but the guard and the re-sweeps count all
    # four knots: 4 + 1 sweeps of 4 knots each
    records = [rec(name=n) for n in ("c", "a", "d", "b")]
    certs = [cert(source="a", target="b"), cert(source="b", target="a"),
             cert(source="c", target="a"), cert(source="d", target="x")]
    calls = itertools.count()

    def never_settling(rec, verdicts, certs, resolve):
        return GammaBounds(name=rec.name, upper=2 + next(calls))

    monkeypatch.setattr(bounds_module, "classify", never_settling)
    with pytest.raises(InconsistencyError, match="did not converge after 5 "):
        classify_all(records, {}, certs)
    assert next(calls) == 5 * 4
