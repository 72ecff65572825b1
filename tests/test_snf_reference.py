"""The augmented-matrix Smith normal form against the mirrored-operation
one it replaced, kept in ``snf_reference``: equal U, D and V entry for
entry, on Goeritz matrices, singular full Goeritz matrices, small integer
matrices of every shape, and the pivot tie-breaks that the search's stop
at the first unit must keep."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import snf_reference as ref
from conftest import connect_sum, fan_goeritz_matrices, mixed_fan_pd
from gamma4.errors import DiagramError
from gamma4.exactalg import smith_normal_form
from gamma4.planar import faces, goeritz


def assert_same_snf(m):
    new, old = smith_normal_form(m), ref.smith_normal_form(m)
    assert (new.U, new.D, new.V) == (old.U, old.D, old.V), m


def goeritz_at_every_outer_face(pd):
    """G and the singular full G' at the default and every outer face
    that admits a Goeritz matrix."""
    out = []
    for outer in [None, *range(len(faces(pd).walks))]:
        try:
            gd = goeritz(pd, outer=outer)
        except DiagramError:
            continue
        out += [gd.g, gd.gfull]
    return out


def test_bundled_goeritz_matrices(dataset):
    diagrams = [rec.pd for rec in dataset if rec.pd is not None]
    assert len(diagrams) == 21
    for pd in diagrams:
        for m in goeritz_at_every_outer_face(pd):
            assert_same_snf(m)


def test_fan_and_mixed_fan_goeritz_matrices():
    for m in fan_goeritz_matrices():
        assert_same_snf(m)
    pds = [mixed_fan_pd(dim, seed) for dim in (3, 6, 9) for seed in range(3)]
    pds.append(connect_sum(mixed_fan_pd(4, 0), mixed_fan_pd(6, 1)))
    for pd in pds:
        for m in goeritz_at_every_outer_face(pd):
            assert_same_snf(m)


@pytest.mark.parametrize("m", [
    # -1 before +1 in row-major order
    [[3, -1], [1, 4]],
    [[0, 5, -1], [1, 0, 2], [2, 1, 7]],
    # 2 before 1 in the same row
    [[2, 1, 3], [4, 5, 6]],
    [[0, 2, 4, 1], [1, 3, 0, 2]],
    # a 1 in a later row than an earlier 2
    [[2, 4, 6], [3, 1, 5]],
    [[2, 3], [4, 6], [5, 1]],
    # a trailing block whose first row is all zero
    [[1, 0, 0], [0, 0, 0], [0, 2, 3]],
    [[1, 2, 3], [2, 4, 6], [0, 2, 5]],
    [[0, 0, 0], [0, 2, -1], [0, 1, 3]],
])
def test_pivot_tie_breaks(m):
    """The first entry of least |value| in row-major order is the pivot,
    whether or not it is a unit."""
    assert_same_snf(m)


def low_rank(rng, rows, cols, rank, bound):
    """A rows x cols product of random rows x rank and rank x cols factors."""
    a = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rows)]
    b = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_random_matrices_of_every_shape_and_rank():
    rng = random.Random(8)
    for _ in range(1500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(rows, cols))
        assert_same_snf(low_rank(rng, rows, cols, rank, rng.choice((1, 3, 9))))


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5)) if rows else 0
    entries = st.integers(-12, 12) | st.just(0)
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300)
@given(small_matrices())
@example([])
@example([[]])
@example([[0]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4], [6, 8], [10, 12]])
@example([[2, 0], [0, 3]])
def test_small_integer_matrices(m):
    assert_same_snf(m)
