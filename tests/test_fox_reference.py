"""H1 and |det| of the double branched cover from the Goeritz matrix
against the Fox colouring matrix of the same PD code (``fox_reference``),
which reads no face, colouring or Goeritz data: on the bundled diagrams,
both benchmark corpora, and bundled diagrams with one mutation each."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fox_reference as fox
from conftest import TREFOIL_PD, connect_sum, torus2
from gamma4 import pipeline
from gamma4.errors import DiagramError, PDSemanticError
from gamma4.knotio import KnotRecord, PDCode, parse_pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402  (the benchmark's corpora, read only)

# the seed draws each slot's mirror image, which moves the Goeritz side
CORPUS_SEEDS = (1, 2)


def assert_fox_agrees(rec, seed=None):
    analysis = pipeline.analyze_diagram(rec, 1)
    assert fox.h1(rec.pd) == (analysis.group.invariant_factors,
                              analysis.det), (rec.name, seed)


def test_fox_matrix_of_the_trefoil():
    pd = parse_pd(TREFOIL_PD)
    assert [sorted(row) for row in fox.fox_matrix(pd)] == [[-1, -1, 2]] * 3
    assert fox.h1(pd) == ((3,), 3)
    assert fox.h1(parse_pd("PD[]")) == ((), 1)


def test_fox_h1_of_a_connected_sum_is_the_direct_sum():
    assert fox.h1(connect_sum(torus2(3), torus2(5))) == ((15,), 15)
    assert fox.h1(connect_sum(torus2(3), torus2(3))) == ((3, 3), 9)


def test_fox_agrees_on_the_bundled_diagrams(dataset):
    diagrams = [rec for rec in dataset if rec.pd is not None]
    assert len(diagrams) == 21
    for rec in diagrams:
        assert_fox_agrees(rec)


@pytest.mark.parametrize("make", [corpus.large_diagrams, corpus.large_orders],
                         ids=["large-diagrams", "large-orders"])
def test_fox_agrees_on_the_benchmark_corpora(make):
    for seed in CORPUS_SEEDS:
        for diagram in make(seed):
            assert_fox_agrees(diagram.record, seed)


@st.composite
def mutated_pd_codes(draw, diagrams):
    """The crossings of one of ``diagrams`` with one mutation, as raw
    tuples: a crossing dropped, two slots swapped, a crossing rotated (a
    crossing change, where the code stays valid) or reversed, or one slot
    relabelled."""
    crossings = [list(quad) for quad in draw(st.sampled_from(diagrams)).crossings]
    n = len(crossings)
    i = draw(st.integers(0, n - 1))
    slot = st.integers(0, 3)
    kind = draw(st.sampled_from(("drop", "swap", "rotate", "reverse", "relabel")))
    if kind == "drop":
        del crossings[i]
    elif kind == "swap":
        j, s, t = draw(st.integers(0, n - 1)), draw(slot), draw(slot)
        crossings[i][s], crossings[j][t] = crossings[j][t], crossings[i][s]
    elif kind == "rotate":
        r = draw(st.integers(1, 3))
        crossings[i] = crossings[i][r:] + crossings[i][:r]
    elif kind == "reverse":
        crossings[i].reverse()
    else:
        crossings[i][draw(slot)] = draw(st.integers(1, 2 * n))
    return tuple(map(tuple, crossings))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fox_agrees_on_mutated_bundled_diagrams(dataset, data):
    """A mutation the pipeline accepts gives the Fox H1 and |det|; one it
    rejects raises PDSemanticError, when ``PDCode`` is built, or
    DiagramError (an InconsistencyError would mean det and signature
    disagree, anything else a crash)."""
    diagrams = [rec.pd for rec in dataset if rec.pd is not None]
    mutated = data.draw(mutated_pd_codes(diagrams))
    try:
        pd = PDCode(mutated)
        analysis = pipeline.analyze_diagram(
            KnotRecord(name="mutant", crossings=len(pd), pd=pd), 1)
    except (PDSemanticError, DiagramError):
        return
    assert fox.h1(pd) == (analysis.group.invariant_factors, analysis.det)
