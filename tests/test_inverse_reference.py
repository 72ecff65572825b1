"""The back-substituting fraction-free ``inverse`` against the
Gauss-Jordan one kept in ``inverse_reference``: the same (N, d), or the
same exception class and message, on the empty and 1x1 inputs, on
matrices that swap rows at several steps, on small matrices that reach
each path of the bottom-right-first elimination (where ``det``, which
reads the same elimination's last pivot, must also match the dense
``elimination_reference.det``), on Goeritz matrices
(bundled, both benchmark corpora, the fan constructions) and the U of
their Smith normal forms, on zero-heavy integer matrices up to 8x8, and
on sparse, banded, block-diagonal and lower-triangular matrices up to
12x12.  With a right-hand side B, ``inverse(m, B)`` must give the
reference's (N*B, d), or raise as it does: for B the identity, for unit
columns and for random integer blocks of 0..3 columns, on the structured
and lower-triangular matrices and on both corpora's G and SNF U."""

import random
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elimination_reference
import inverse_reference as ref
from conftest import (fan_goeritz_matrices, identity, square_matrices,
                      structured_matrices)
from gamma4.exactalg import det, inverse, mat_mul, smith_normal_form
from gamma4.planar import goeritz

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402  (the benchmark's corpora, read only)


def outcome(f, m):
    """f's result, or the class and text of the exception it raised."""
    try:
        return f(m)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def assert_same_inverse(m):
    assert outcome(inverse, m) == outcome(ref.inverse, m), m


def assert_same_solve(m, rhs):
    def reference(m):
        scaled_inverse, d = ref.inverse(m)
        return mat_mul(scaled_inverse, rhs), d

    assert outcome(lambda m: inverse(m, rhs), m) == outcome(reference, m), \
        (m, rhs)


def right_hand_sides(n, rng):
    """The identity; one unit column, and 1..3 of them at drawn positions
    in drawn order; and integer blocks of 0..3 columns."""
    yield identity(n)
    for k in range(1, min(n, 3) + 1):
        cols = rng.sample(range(n), k)
        yield [[int(i == j) for j in cols] for i in range(n)]
    for k in range(4):
        yield [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]


def assert_same_solves(m, rng):
    for rhs in right_hand_sides(len(m), rng):
        assert_same_solve(m, rhs)


def assert_same_det(m):
    assert outcome(det, m) == outcome(elimination_reference.det, m), m


def test_empty_matrix():
    assert inverse([]) == ref.inverse([]) == ([], 1)


@pytest.mark.parametrize("m", [[[1]], [[-1]], [[-3]], [[7]], [[0]]])
def test_one_by_one(m):
    assert_same_inverse(m)


@pytest.mark.parametrize("perm", list(permutations(range(4))))
def test_permutation_times_diagonal(perm):
    """Every pivot column is zero down to the row the permutation sends
    it to, so most of these swap at several steps (the reversal at steps
    0 and 1)."""
    diagonal = (2, -3, 1, -5)
    assert_same_inverse([[diagonal[i] if j == perm[i] else 0
                          for j in range(4)] for i in range(4)])


@pytest.mark.parametrize("m", [
    [[0, 1, 2], [0, 3, 1], [2, 1, 1]],
    [[0, 0, 1, 2], [0, 1, 0, 3], [0, 2, 5, 1], [4, 1, 0, 0]],
    [[0, 2, 0, 1], [1, 1, 0, 0], [0, 0, 0, 3], [0, 1, 1, 0]],
    [[1, 2, 3], [2, 4, 7], [0, 1, 1]],
    [[0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0, 1, 1, 0, 0],
     [-1, 1, 0, 0, 0]],
])
def test_zero_leading_entries(m):
    assert_same_inverse(m)


@pytest.mark.parametrize("m", [
    # the bottom-right entry is 0, so pivot 1 swaps in row 0 from above
    pytest.param([[1, 2], [3, 0]], id="zero-bottom-right"),
    # three swaps, the last two bringing in a row that sat out a pivot,
    # and pivots caught up by -1: det is -5, so a lost swap sign shows
    pytest.param([[2, 0, -1, 0], [0, 0, 0, -1], [-1, 1, 0, 2], [1, 0, 2, 0]],
                 id="three-swaps"),
    pytest.param([[2, 1, 0], [1, 0, 3], [0, 4, 0]], id="zero-bottom-right-3x3"),
    # rows 0 and 1 sit out pivots 2 and 5; row 1's column-1 entry is 0,
    # so pivot 1 swaps in row 0, still at level 1, and catches it up by 5
    pytest.param([[1, 1, 0, 0], [1, 0, 0, 0], [0, 1, 3, 1], [1, 0, 1, 2]],
                 id="swap-in-row-left-two-pivots"),
    # row 0 sits out pivot 3 and is caught up by 3 inside its update
    pytest.param([[1, 2, 0], [1, 1, 1], [0, 1, 3]], id="fused-catch-up"),
    # the last pivot is negative: d is its absolute value
    pytest.param([[-2, 1], [1, 1]], id="negative-last-pivot"),
    pytest.param([[1, 0, 2], [0, 1, 1], [1, 1, -1]], id="negative-last-pivot-3x3"),
    # an SNF's U: lower-triangular with unit diagonal up to sign, and the
    # same rows permuted
    pytest.param([[1, 0, 0, 0], [2, -1, 0, 0], [-3, 4, 1, 0], [5, 0, -2, -1]],
                 id="unit-lower-triangular"),
    pytest.param([[-3, 4, 1, 0], [1, 0, 0, 0], [5, 0, -2, -1], [2, -1, 0, 0]],
                 id="row-permuted-unit-lower-triangular"),
    pytest.param([[2, 0, 0], [1, -3, 0], [4, 5, 7]], id="lower-triangular"),
    # a Goeritz matrix's shape: symmetric and tridiagonal
    pytest.param([[3, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, -4, 1, 0],
                  [0, 0, 1, 2, -1], [0, 0, 0, -1, -3]], id="tridiagonal-symmetric"),
])
def test_bottom_right_first_paths(m):
    assert outcome(inverse, m)[1] > 0
    assert_same_inverse(m)
    assert det(m) == elimination_reference.det(m) != 0


@pytest.mark.parametrize("m", [
    [[0, 0], [0, 0]],
    [[1, 2], [2, 4]],
    [[0, 1, 2], [0, 3, 1], [0, 1, 1]],
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2], [3]],
    [[Fraction(1, 2)], [1, 2]],
    [[Fraction(1, 2), 1], [1, 3]],
    [[2.0, 1], [1, 3]],
    # every pivot but the top-left one is nonzero
    pytest.param([[1, 1], [1, 1]], id="singular-at-top-left-2x2"),
    pytest.param([[1, 2, 3], [4, 5, 6], [7, 8, 9]], id="singular-at-top-left-3x3"),
    # the bottom-right 0 swaps rows 0 and 2; row 0 sits out pivot 2, is
    # caught up by 2 in its update by pivot 6 and leaves column 0 with no
    # pivot, so det is 0 while inverse raises
    pytest.param([[1, 1, 2], [1, 2, -2], [2, 3, 0]],
                 id="singular-only-in-top-left-column"),
])
def test_rejected_inputs(m):
    """Singular, non-square, ragged and non-integer inputs raise alike,
    and ``det`` gives the same 0 or raises the same exception."""
    assert outcome(inverse, m)[0] in (TypeError, ValueError)
    assert_same_inverse(m)
    assert_same_det(m)


def test_bundled_goeritz_matrices_and_their_snf_u(dataset):
    matrices = [goeritz(rec.pd).g for rec in dataset if rec.pd is not None]
    assert len(matrices) == 21
    for g in matrices:
        assert_same_inverse(g)
        assert_same_inverse(smith_normal_form(g).U)


@pytest.mark.parametrize("make", [corpus.large_diagrams, corpus.large_orders],
                         ids=["large-diagrams", "large-orders"])
def test_benchmark_corpora_and_their_snf_u(make):
    """G and its SNF's U alone and against every kind of right-hand side,
    and U against the unit columns of the Smith generators of order > 1,
    which ``linking_form`` solves for."""
    rng = random.Random(7)
    for seed in (1, 2):
        for diagram in make(seed):
            g = goeritz(diagram.record.pd).g
            snf = smith_normal_form(g)
            for m in (g, snf.U):
                assert_same_inverse(m)
                assert_same_solves(m, rng)
            keep = [i for i, d in enumerate(snf.diagonal) if d > 1]
            assert_same_solve(snf.U, [[int(i == j) for j in keep]
                                      for i in range(len(g))])


def test_solve_of_the_empty_matrix():
    assert inverse([], []) == ([], 1)


@pytest.mark.parametrize("m, rhs", [
    pytest.param([[2, 1], [1, 1]], [[1]], id="too-few-rows"),
    pytest.param([[2, 1], [1, 1]], [[1], [0], [0]], id="too-many-rows"),
    pytest.param([[2, 1], [1, 1]], [], id="no-rows"),
    pytest.param([], [[1]], id="rows-for-an-empty-matrix"),
    pytest.param([[2, 1], [1, 1]], [[1, 0], [0]], id="ragged"),
    pytest.param([[2, 1], [1, 1]], [[1], [0, 1]], id="ragged-short-first"),
])
def test_solve_rejects_a_misshapen_right_hand_side(m, rhs):
    """A bare zip of A's rows with B's would drop B's extra rows, or A's,
    or a row's tail, and solve something else."""
    with pytest.raises(ValueError):
        inverse(m, rhs)


def test_fan_goeritz_matrices_and_their_snf_u():
    for g in fan_goeritz_matrices():
        assert_same_inverse(g)
        assert_same_inverse(smith_normal_form(g).U)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example([[0]])
@example([[0, 1], [1, 0]])
@example([[0, 1], [-1, 0]])
@example([[0, 0, 3], [0, 2, 0], [-1, 0, 0]])
def test_zero_heavy_integer_matrices(m):
    assert_same_inverse(m)


@st.composite
def lower_triangular_matrices(draw):
    """An SNF's U up to 12x12: lower-triangular with a nonzero diagonal,
    mostly +-1, and its rows permuted or not."""
    n = draw(st.integers(1, 12))
    m = [[0] * n for _ in range(n)]
    for i, row in enumerate(m):
        row[i] = draw(st.sampled_from((1, -1)) | st.integers(1, 4))
        for j in draw(st.sets(st.integers(0, max(i - 1, 0)), max_size=i)):
            row[j] = draw(st.integers(-2, 2) | st.integers(-6, 6))
    if draw(st.booleans()):
        m = [m[i] for i in draw(st.permutations(range(n)))]
    return m


@settings(max_examples=300, deadline=None)
@given(structured_matrices() | lower_triangular_matrices(),
       st.randoms(use_true_random=False))
@example([[1, 1, 0, 0], [1, 0, 0, 0], [0, 1, 3, 1], [1, 0, 1, 2]],
         random.Random(0))
def test_structured_matrices(m, rng):
    assert_same_inverse(m)
    assert_same_solves(m, rng)
