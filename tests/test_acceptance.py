"""Acceptance suite: one test (or parametrized family) per criterion.

Each criterion prints through pytest as its own pass/fail line.  Two
assertions are expected to fail on the bundled data and are left failing
on purpose: the published entry for 11n131 (linking form 39/67) is
internally inconsistent -- 39 is a quadratic residue mod 67, every square
class mod 67 contains +1 or -1, and det == 3 (mod 4) forces sigma == 2
(mod 4) -- so no rule in scope can push its lower bound to 2, and the
strict published counts (121/58/6) cannot be reproduced from the printed
data.  See src/gamma4/data/README.md for the full analysis.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from conftest import (checked_inverse, cyclic_form, identity,
                      reference_inverse, sympy_inverse)
from gamma4 import pipeline
from gamma4.bounds import sig_arf_obstruction
from gamma4.exactalg import det, mat_mul, mat_transpose, smith_normal_form, signature
from gamma4.linkform import (INAPPLICABLE, NOT_OBSTRUCTED, OBSTRUCTED,
                             generator_values, homology, linking_form,
                             mobius_obstruction_cyclic)
from gamma4.planar import faces, goeritz, signature_via_goeritz

GOERITZ_11N155 = [[3, -1, 0, -1], [-1, 5, -1, 0], [0, -1, 0, 2], [-1, 0, 2, 0]]

# the fourteen knots settled through the linking form, with the published
# fraction of a generator's self-linking
OBSTRUCTION_TABLE = {
    "11n22": Fraction(42, 55), "11n29": Fraction(14, 51),
    "11n33": Fraction(22, 51), "11n56": Fraction(12, 35),
    "11n84": Fraction(18, 35), "11n92": Fraction(2, 15),
    "11n101": Fraction(19, 39), "11n112": Fraction(53, 55),
    "11n125": Fraction(61, 63), "11n131": Fraction(39, 67),
    "11n138": Fraction(13, 15), "11n155": Fraction(20, 51),
    "11n176": Fraction(11, 63), "11n184": Fraction(2, 87),
}

# the undetermined six: published signed fraction and required definiteness
UNDETERMINED_SIX = {
    "11n17": (Fraction(1, 47), 1),
    "11n40": (Fraction(-1, 79), -1),
    "11n159": (Fraction(1, 71), 1),
    "11n166": (Fraction(1, 59), 1),
    "11n177": (Fraction(1, 83), 1),
    "11n178": (Fraction(-1, 95), -1),
}

SLICE_16 = ["11n4", "11n21", "11n37", "11n39", "11n42", "11n49", "11n50",
            "11n67", "11n73", "11n74", "11n83", "11n97", "11n116", "11n132",
            "11n139", "11n172"]


def analysis_of(dataset_by_name, name):
    return pipeline.analyze_diagram(dataset_by_name[name], sign=1)


# criterion 1: Goeritz golden test ------------------------------------------


def test_goeritz_golden_11n155(dataset_by_name):
    started = time.perf_counter()
    pd = dataset_by_name["11n155"].pd
    for outer in range(len(faces(pd).walks)):
        gd = goeritz(pd, outer=outer)
        assert abs(det(gd.g)) == 51  # determinant is coloring-independent
    # the default rooting (largest face = the unbounded region of the
    # reconstructed diagram) reproduces the published matrix verbatim
    assert goeritz(pd).g == GOERITZ_11N155
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


# criterion 2: linking-form golden test --------------------------------------


def test_linking_form_golden_11n155(dataset_by_name):
    gd = goeritz(dataset_by_name["11n155"].pd)
    assert homology(gd).invariant_factors == (51,)
    form = linking_form(gd)
    orbit = generator_values(form)
    target = Fraction(20, 51)
    assert target in orbit or (-target) % 1 in orbit
    assert Fraction(1, 51) not in orbit
    assert Fraction(50, 51) not in orbit

    # independent brute-force check over m = 1..50 on the published value:
    # 20 m^2 == +-1 (mod 51) must have no solution
    assert all((20 * m * m) % 51 not in (1, 50) for m in range(1, 51))
    # and the orbit from the computed generator agrees with direct squaring
    v = form.self_value()
    direct = {(m * m * v) % 1 for m in range(1, 51) if gcd(m, 51) == 1}
    assert direct == orbit


# criterion 3: obstruction table ----------------------------------------------


@pytest.mark.parametrize("name", sorted(OBSTRUCTION_TABLE))
def test_obstruction_table_fractions(dataset_by_name, name):
    analysis = analysis_of(dataset_by_name, name)
    orbit = generator_values(analysis.form)
    frac = OBSTRUCTION_TABLE[name]
    assert frac % 1 in orbit or (-frac) % 1 in orbit, \
        f"{name}: published fraction {frac} not in the generator orbit"


@pytest.mark.parametrize("name", sorted(OBSTRUCTION_TABLE))
def test_obstruction_table_verdicts(dataset_by_name, name):
    """All fourteen are claimed Obstructed.  11n131 fails by necessity:
    39 is a quadratic residue mod 67, so its form cannot meet the
    obstruction (known defect in the published table, data/README.md)."""
    analysis = analysis_of(dataset_by_name, name)
    mobius = [v for v in analysis.verdicts
              if v.rule in ("mobius-cyclic", "mobius-prime-square")]
    assert any(v.result == OBSTRUCTED for v in mobius), \
        (f"{name}: expected Obstructed, got "
         f"{[(v.rule, v.result) for v in mobius]}")


def test_obstruction_table_runtime(dataset_by_name):
    started = time.perf_counter()
    for name in OBSTRUCTION_TABLE:
        analysis = analysis_of(dataset_by_name, name)
        generator_values(analysis.form)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"


# criterion 4: the undetermined six -------------------------------------------


@pytest.mark.parametrize("name", sorted(UNDETERMINED_SIX))
def test_undetermined_six(dataset_by_name, classification, name):
    frac, required = UNDETERMINED_SIX[name]
    analysis = analysis_of(dataset_by_name, name)
    n = frac.denominator
    assert analysis.group.invariant_factors == (n,)
    orbit = generator_values(analysis.form)
    assert frac % 1 in orbit, \
        f"{name}: form does not represent {frac} under the fixed convention"
    assert (-frac) % 1 not in orbit, \
        f"{name}: sign of the published fraction is not pinned"
    for v in analysis.verdicts:
        if v.rule in ("mobius-cyclic", "mobius-prime-square"):
            assert v.result == NOT_OBSTRUCTED
        if v.rule == "definiteness":
            assert v.result == NOT_OBSTRUCTED, \
                f"{name}: definiteness column {required} inconsistent"
    assert dataset_by_name[name].definiteness == required
    entries, _meta = classification
    entry = next(e for e in entries if e.name == name)
    assert (entry.bounds.lower, entry.bounds.upper) == (1, 2)


# criterion 5: 11n38 ------------------------------------------------------------


def test_11n38_special_case(dataset_by_name, classification):
    analysis = analysis_of(dataset_by_name, "11n38")
    assert analysis.group.invariant_factors == (3,)
    assert analysis.form.self_value() in (Fraction(1, 3), Fraction(2, 3))
    mobius = next(v for v in analysis.verdicts if v.rule == "mobius-cyclic")
    assert mobius.result == NOT_OBSTRUCTED  # +-1/3 is always represented
    definiteness = next(v for v in analysis.verdicts if v.rule == "definiteness")
    assert definiteness.result == OBSTRUCTED
    entries, _meta = classification
    entry = next(e for e in entries if e.name == "11n38")
    assert (entry.bounds.lower, entry.bounds.upper) == (2, 2)
    assert any(r.rule == "definiteness" for r in entry.bounds.reasons)
    assert any(r.rule == "band-move" for r in entry.bounds.reasons)


# criterion 6: full classification ----------------------------------------------


def test_full_run_sound_and_fast(classification):
    started = time.perf_counter()
    entries, metadata = pipeline.run_classification(
        metadata_path(classification, "dataset_path"),
        metadata_path(classification, "certificates_path"))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    summary = pipeline.summarize(entries)
    assert summary["total"] == 185
    assert summary["slice_knots"] == 16
    assert summary["slice_all_at_1"] is True
    for name in SLICE_16:
        e = next(x for x in entries if x.name == name)
        assert (e.bounds.lower, e.bounds.upper) == (1, 1)
    # every determined knot carries a full reason chain
    for e in entries:
        if e.bounds.determined:
            assert e.bounds.reasons


def metadata_path(classification, key):
    return classification[1][key]


def test_theorem_counts_published(classification):
    """Strict published counts: 121 at gamma4=1, 58 at 2, 6 undetermined.

    Expected to fail on the bundled transcription: the printed data for
    11n131 cannot support gamma4 >= 2 by any rule in scope (see module
    docstring and data/README.md), so the honest run reports 121/57/7."""
    entries, _meta = classification
    summary = pipeline.summarize(entries)
    got = (summary["determined"].get("1", 0), summary["determined"].get("2", 0),
           summary["undetermined"])
    assert got == (121, 58, 6), \
        (f"got {got}; the single discrepancy is 11n131, whose published "
         f"linking form 39/67 provably cannot obstruct (data/README.md)")


def test_undetermined_set_matches_published_plus_defect(classification):
    entries, _meta = classification
    undetermined = {e.name for e in entries if not e.bounds.determined}
    assert undetermined == {"11n17", "11n40", "11n131", "11n159", "11n166",
                            "11n177", "11n178"}
    for e in entries:
        if not e.bounds.determined:
            assert (e.bounds.lower, e.bounds.upper) == (1, 2)


# criterion 7: property suites ---------------------------------------------------


def test_snf_postconditions_1000_random_matrices():
    rng = random.Random(20260809)
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(m)
        assert mat_mul(mat_mul(snf.U, m), snf.V) == snf.D
        assert abs(det(snf.U)) == 1 and abs(det(snf.V)) == 1
        diag = snf.diagonal
        nonzero = [d for d in diag if d]
        assert all(d >= 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def test_inverse_exactness_random():
    rng = random.Random(99)
    done = 0
    while done < 300:
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(m) == 0:
            continue
        # m * N = d * I with d = |det m|, and N/d is the rational inverse
        assert checked_inverse(m) == reference_inverse(m) == sympy_inverse(m)
        done += 1


def test_signature_congruence_invariance_random():
    rng = random.Random(4242)
    done = 0
    while done < 200:
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-5, 5)
        if det(m) == 0:
            continue
        p = identity(n)
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                for row in p:
                    row[j] += c * row[i]
        conj = mat_mul(mat_transpose(p), mat_mul(m, p))
        assert signature(conj) == signature(m)
        done += 1


def exponents_all_odd(n):
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2 == 0:
                return False
        p += 1
    return True


def test_mobius_verdicts_match_exhaustive_oracle_up_to_200():
    """For every odd cyclic order <= 200 and 50 random unit form values:
    the verdict equals a direct loop over all group elements."""
    rng = random.Random(1234)
    for n in range(3, 201, 2):
        units = [k for k in range(1, n) if gcd(k, n) == 1]
        sample = units if len(units) <= 50 else rng.sample(units, 50)
        applicable = exponents_all_odd(n)
        for k in sample:
            verdict = mobius_obstruction_cyclic(cyclic_form(n, k))
            if not applicable:
                assert verdict.result == INAPPLICABLE, (n, k)
                continue
            # oracle: any element a (== m*g) with lambda(a,a) = +-1/n,
            # under either global sign, defeats the obstruction
            hit = any((s * m * m * k) % n in (1, n - 1)
                      for m in range(n) for s in (1, -1))
            expected = NOT_OBSTRUCTED if hit else OBSTRUCTED
            assert verdict.result == expected, (n, k)


def test_sig_arf_truth_table_all_residues():
    for sigma_mod8 in (0, 2, 4, 6):
        for sigma in (sigma_mod8, sigma_mod8 - 8, sigma_mod8 + 8):
            for arf in (0, 1):
                expected = (sigma + 4 * arf) % 8 == 4
                assert sig_arf_obstruction(sigma, arf) == expected


# criterion 8: signature calibration ---------------------------------------------


def test_signature_calibration_across_dataset(dataset):
    """Gordon-Litherland signature equals the ingested signature for every
    knot with a diagram, under the shipped convention calibration."""
    checked = 0
    for rec in dataset:
        if rec.pd is None or rec.signature is None:
            continue
        assert signature_via_goeritz(goeritz(rec.pd)) == rec.signature, rec.name
        checked += 1
    assert checked >= 10  # calibration set is large enough to pin conventions
