"""The in-place fraction-free ``inverse`` against the augmented one it
replaced, kept in ``inverse_reference``: the same (N, d), or the same
exception class and message, on the empty and 1x1 inputs, on matrices
that swap rows at several steps, on Goeritz matrices and the U of their
Smith normal forms, and on zero-heavy integer matrices up to 8x8."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings

import inverse_reference as ref
from conftest import fan_goeritz_matrices, square_matrices
from gamma4.exactalg import inverse, smith_normal_form
from gamma4.planar import goeritz


def outcome(f, m):
    """f's result, or the class and text of the exception it raised."""
    try:
        return f(m)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def assert_same_inverse(m):
    assert outcome(inverse, m) == outcome(ref.inverse, m), m


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
    [[0, 0], [0, 0]],
    [[1, 2], [2, 4]],
    [[0, 1, 2], [0, 3, 1], [0, 1, 1]],
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2], [3]],
    [[Fraction(1, 2), 1], [1, 3]],
    [[2.0, 1], [1, 3]],
])
def test_rejected_inputs(m):
    """Singular, non-square, ragged and non-integer inputs raise alike."""
    assert outcome(inverse, m)[0] in (TypeError, ValueError)
    assert_same_inverse(m)


def test_bundled_goeritz_matrices_and_their_snf_u(dataset):
    matrices = [goeritz(rec.pd).g for rec in dataset if rec.pd is not None]
    assert len(matrices) == 21
    for g in matrices:
        assert_same_inverse(g)
        assert_same_inverse(smith_normal_form(g).U)


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
