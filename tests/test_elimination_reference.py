"""The lazily scaled Bareiss ``det`` (the last pivot of the
bottom-right-first elimination that ``inverse`` also runs) and
``signature`` (diagonal pivots, the same fused update) against the dense
top-left-first kernels they replaced, kept in ``elimination_reference``:
the same integer, or the same exception class and message, on Goeritz
matrices (bundled, both benchmark corpora, the fan constructions), a dense
random 32x32 symmetric matrix, small matrices that reach each lazily
scaled path, and sparse, banded and block-diagonal matrices up to
12x12."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import elimination_reference as ref
from conftest import fan_goeritz_matrices, structured_matrices
from gamma4.exactalg import det, signature
from gamma4.planar import goeritz

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402  (the benchmark's corpora, read only)

CORPUS_SEEDS = (1, 2)


def outcome(f, m):
    """f's result, or the class and text of the exception it raised."""
    try:
        return f(m)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def assert_same(m):
    assert outcome(det, m) == outcome(ref.det, m), m
    assert outcome(signature, m) == outcome(ref.signature, m), m


def test_bundled_goeritz_matrices(dataset):
    matrices = [goeritz(rec.pd).g for rec in dataset if rec.pd is not None]
    assert len(matrices) == 21
    for g in matrices:
        assert_same(g)


@pytest.mark.parametrize("make", [corpus.large_diagrams, corpus.large_orders],
                         ids=["large-diagrams", "large-orders"])
def test_benchmark_corpora(make):
    for seed in CORPUS_SEEDS:
        for diagram in make(seed):
            assert_same(goeritz(diagram.record.pd).g)


def test_fan_goeritz_matrices():
    for g in fan_goeritz_matrices():
        assert_same(g)


def test_dense_random_symmetric_matrix():
    rng = random.Random(5)
    n = 32
    upper = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    m = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    assert det(m) == ref.det(m) != 0
    assert signature(m) == ref.signature(m)


@pytest.mark.parametrize("m", [
    # det: row 0 sits out pivot 5 and is caught up by 5 in its update
    pytest.param([[2, 1, 1, 0], [1, 3, 0, 1], [0, 0, 4, 1], [0, 0, 1, 5]],
                 id="two-pivots-untouched"),
    # det: rows 0 and 1 sit out pivots 5 and 19, then row 1 pivots and
    # row 0 is updated, both caught up by 19; signature: rows 2 and 3 sit
    # out pivots 2 and 5, then row 2 pivots and row 3 is updated, both
    # caught up by 5
    pytest.param([[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 4, 1], [0, 0, 1, 5]],
                 id="two-pivots-untouched-symmetric"),
    # det: row 0 sits out pivot 7 and is caught up by 7 in its update (the
    # top-left-first reference swaps here instead)
    pytest.param([[2, 2, 0], [1, 1, 3], [0, 5, 7]], id="swap-in-older-row"),
    # the diagonal left after pivot 2 is all zero: the fold adds row 2, at
    # level 2, to row 1, still at level 1
    pytest.param([[2, 0, 2], [0, 0, 1], [2, 1, 2]], id="fold-levels-1-2"),
    # after the pivot -2 the fold adds row 2, at level -2, to row 0, at 1
    pytest.param([[0, 0, -1], [0, -2, -2], [-1, -2, -2]],
                 id="fold-levels-1-minus-2"),
    # a fold on two rows at level 1 after the pivot -2
    pytest.param([[0, 0, -1], [0, -2, 0], [-1, 0, 0]], id="fold-both-behind"),
    # negative pivots, so the catch-up and the eigenvalue sign read prev;
    # det on the last two: a swap, then a pivot row caught up by -1
    pytest.param([[-1, 0], [0, 1]], id="negative-first-pivot"),
    pytest.param([[0, -1], [-1, 0]], id="hyperbolic-plane"),
    pytest.param([[-1, 0, 0], [0, -1, -1], [0, -1, 0]], id="negative-pivots"),
    # det: the bottom-right 0 swaps in row 0, and that one swap turns the
    # last pivot -1 into det 1
    pytest.param([[-1, 1, 1], [2, 0, -1], [0, 1, 0]], id="catch-up-by-minus-1"),
    # det and signature: a row sits out pivot -1 and is caught up by -1
    # in its update
    pytest.param([[-1, 1, 0], [1, 0, -1], [0, -1, -1]],
                 id="catch-up-by-minus-1-symmetric"),
])
def test_lazily_scaled_paths(m):
    assert_same(m)


@pytest.mark.parametrize("m", [
    [], [[0]], [[5]], [[-3]],
    [[0, 0], [0, 0]],
    [[1, 2], [2, 4]],
    [[0, 1, 2], [0, 3, 1], [0, 1, 1]],
    [[1, 2], [3, 4]],
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2], [3]],
    [[Fraction(1, 2)], [1, 2]],
    [[Fraction(1, 2), 1], [1, 3]],
    [[2.0, 1], [1, 3]],
])
def test_edge_and_rejected_inputs(m):
    """Empty, 1x1, singular, non-symmetric, non-square, ragged and
    non-integer inputs: the same value or the same exception.  A ragged
    matrix with a non-integer entry raises for its shape, checked first."""
    assert_same(m)


@settings(max_examples=300)
@given(structured_matrices())
@example([[2, 2, 0], [1, 1, 3], [0, 5, 7]])
def test_structured_matrices(m):
    assert_same(m)


@settings(max_examples=300)
@given(structured_matrices(symmetric=True))
@example([[2, 0, 2], [0, 0, 1], [2, 1, 2]])
def test_structured_symmetric_matrices(m):
    assert_same(m)
