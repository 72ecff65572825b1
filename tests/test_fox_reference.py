"""H1 and |det| of the double branched cover from the Goeritz matrix
against the Fox colouring matrix of the same PD code (``fox_reference``),
which reads no face, colouring or Goeritz data."""

import sys
from pathlib import Path

import pytest

import fox_reference as fox
from conftest import TREFOIL_PD, connect_sum, torus2
from gamma4 import pipeline
from gamma4.knotio import parse_pd

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
