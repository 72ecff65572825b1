"""The one-pass certificate ledger against the whole-table sweep it
replaced, kept in ``ledger_reference``: every knot gets the same lower,
upper, Gamma_4 upper and reasons, or both raise InconsistencyError, on
seeded random ledgers with chains against table order, two- and
three-knot cycles, self-loops, targets outside the table and slice
claims; and the pass classifies each knot of an acyclic ledger once."""

import random

import pytest

import ledger_reference as ref
from gamma4 import bounds
from gamma4.bounds import classify_all
from gamma4.errors import InconsistencyError
from gamma4.knotio import SLICE, BandMoveCertificate, KnotRecord
from gamma4.linkform import (NOT_OBSTRUCTED, OBSTRUCTED, RULE_MOBIUS_CYCLIC,
                             ObstructionVerdict)


def cert(source, target, target_gamma4=1, h=0):
    return BandMoveCertificate(source=source, h=h, target=target,
                               target_gamma4=target_gamma4,
                               figure_ref=f"{source}->{target}")


def outcome(classify, records, verdicts, certs):
    """Each knot's (lower, upper, Gamma_4 upper, reasons), or
    InconsistencyError."""
    try:
        got = classify(records, verdicts, certs)
    except InconsistencyError:
        return InconsistencyError
    return {name: (b.lower, b.upper, b.gamma_bar_upper, b.reasons)
            for name, b in got.items()}


def random_record(rng, name):
    """A record, drawn until ``KnotRecord`` accepts one, as a loaded row
    must be."""
    while True:
        c4_lo, c4_hi = rng.choice([(None, None), (None, 2), (1, 1), (1, 3),
                                   (2, 2), (3, 3)])
        try:
            return KnotRecord(
                name=name, crossings=rng.choice([7, 9, 11]),
                signature=rng.choice([None, -4, -2, 0, 2]),
                arf=rng.choice([None, None, 0, 1]), g4=rng.choice([None, 0, 1, 2]),
                c4_lo=c4_lo, c4_hi=c4_hi,
                crosscap_hi=rng.choice([None, None, 2, 3, 4]),
                slice=rng.random() < 0.15)
        except ValueError:
            continue


def random_ledger(rng, shape):
    n = rng.randint(1, 7) if shape == "random" else rng.randint(3, 7)
    names = [f"k{i}" for i in range(n)]
    records = [random_record(rng, name) for name in names]
    verdicts = {name: [ObstructionVerdict(rng.choice([OBSTRUCTED, NOT_OBSTRUCTED]),
                                          RULE_MOBIUS_CYCLIC, "w")]
                for name in names if rng.random() < 0.2}
    certs = []
    # band moves to knots outside the table: trusted as 1 or slice
    for name in names:
        if rng.random() < 0.4:
            certs.append(cert(name, rng.choice(["x", "0_1"]),
                              rng.choice([1, SLICE]), rng.choice([-1, 0, 1])))
    if shape == "chain":  # each knot's target is listed after it
        certs += [cert(a, b) for a, b in zip(names, names[1:])]
    elif shape in ("cycle2", "cycle3"):
        cycle = rng.sample(names, int(shape[-1]))
        certs += [cert(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    elif shape == "self-loop":
        certs.append(cert(names[-1], names[-1]))
        certs.append(cert(names[0], names[-1]))
    if shape != "chain":
        for _ in range(rng.randint(0, n)):
            certs.append(cert(rng.choice(names + ["y"]), rng.choice(names),
                              SLICE if rng.random() < 0.2 else 1))
    rng.shuffle(certs)
    return records, verdicts, certs


@pytest.fixture
def classify_calls(monkeypatch):
    """The names ``bounds.classify`` is called on, in call order."""
    classify = bounds.classify
    calls = []

    def counted(rec, *args):
        calls.append(rec.name)
        return classify(rec, *args)

    monkeypatch.setattr(bounds, "classify", counted)
    return calls


@pytest.mark.parametrize("shape", ["chain", "cycle2", "cycle3", "self-loop",
                                   "random"])
def test_random_ledgers_match_the_global_sweep(shape, classify_calls):
    rng = random.Random(f"ledger-{shape}")
    settled = raised = 0
    for _ in range(400):
        records, verdicts, certs = random_ledger(rng, shape)
        expected = outcome(ref.classify_all, records, verdicts, certs)
        classify_calls.clear()
        got = outcome(classify_all, records, verdicts, certs)
        assert got == expected, (records, verdicts, certs)
        if expected is InconsistencyError:
            raised += 1
            continue
        settled += 1
        if shape == "chain":
            assert sorted(classify_calls) == sorted(r.name for r in records)
    # both outcomes are exercised, so neither comparison is vacuous
    assert settled >= 100 and raised >= 20, (settled, raised)


def test_a_two_knot_cycle_gets_the_same_bounds_as_the_global_sweep():
    # b is listed first and waits on a, which waits on b; a also moves to
    # a slice knot outside the table, so the cycle settles at a = 1, b = 2
    records = [KnotRecord(name="b", crossings=11),
               KnotRecord(name="a", crossings=11)]
    certs = [cert("b", "a"), cert("a", "b"), cert("a", "0_1", SLICE)]
    got = classify_all(records, {}, certs)
    assert outcome(classify_all, records, {}, certs) == outcome(
        ref.classify_all, records, {}, certs)
    assert (got["a"].upper, got["b"].upper) == (1, 2)
    assert got["b"].reasons[-1].detail == (
        "upper <= 2: band move (h=+0) to a with gamma4 = 1 [b->a]")


def test_a_long_chain_is_classified_once_per_knot(classify_calls):
    # each row's target is the next row, so the targets-first search runs
    # 5,000 deep: the pass must neither recurse nor sweep again
    n = 5000
    records = [KnotRecord(name=f"k{i}", crossings=11) for i in range(n)]
    certs = [cert(f"k{i}", f"k{i + 1}") for i in range(n - 1)]
    certs.append(cert(f"k{n - 1}", "0_1", SLICE))
    got = classify_all(records, {}, certs)
    assert len(classify_calls) == n and classify_calls[0] == f"k{n - 1}"
    assert [got[f"k{i}"].upper for i in (n - 1, n - 2, n - 6, 0)] == [1, 2, 5, 5]
