"""Exact integer linear algebra: determinants, inverses, Smith form,
signatures.

Oracles are independent of the implementation paths they check: cofactor
expansion against Bareiss elimination, Jacobi's leading-minor sign rule
against congruence diagonalization, sympy's inverse against fraction-free
elimination and back substitution.  The integer kernels are also held to
the plain algorithms they replaced (Gauss-Jordan over ``Fraction`` in
conftest, the product, rational congruence signature): equal values, and
ints out of every kernel.  ``inverse`` returns (N, d) with m*N = d*I and
d = |det m|; the tests compare N/d.  Non-integer entries are rejected with
TypeError.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (checked_inverse, fan_goeritz_matrices, identity,
                      reference_inverse, square_matrices, sympy_inverse)
from gamma4.exactalg import (SNFResult, det, inverse,
                             mat_mul, mat_transpose, require_square,
                             signature, smith_normal_form)
from gamma4.planar import goeritz

GOERITZ_11N155 = [[3, -1, 0, -1], [-1, 5, -1, 0], [0, -1, 0, 2], [-1, 0, 2, 0]]


def det_cofactor(m):
    """Textbook cofactor expansion; the independent determinant oracle."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def jacobi_signature(m):
    """Jacobi's rule: with all leading principal minors nonzero, the
    signature is n minus twice the number of sign changes in the minor
    sequence 1, D1, ..., Dn."""
    n = len(m)
    minors = [1]
    for k in range(1, n + 1):
        mk = det([row[:k] for row in m[:k]])
        assert mk != 0, "oracle needs nonzero leading minors"
        minors.append(mk)
    changes = sum(1 for a, b in zip(minors, minors[1:]) if a * b < 0)
    return n - 2 * changes


def is_unimodular(m):
    try:
        require_square(m)
    except ValueError:
        return False
    return abs(det(m)) == 1


# the plain algorithms the integer kernels replace ----------------------------


def reference_mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def reference_signature(m):
    """Rational congruence diagonalization."""
    n = require_square(m)
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        raise ValueError("signature requires a symmetric matrix")
    a = [[Fraction(x) for x in row] for row in m]

    def add_row_col(src, dst, f=1):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        for row in a:
            row[dst] += f * row[src]

    sig = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    raise ValueError("signature requires a nonsingular matrix")
                add_row_col(j, i)
        pivot = a[i][i]
        for r in range(i + 1, n):
            if a[r][i] != 0:
                add_row_col(i, r, -a[r][i] / pivot)
        sig += 1 if pivot > 0 else -1
    return sig


def typed(m):
    """Entries with their types, so that 1 and Fraction(1) differ."""
    return [[(type(x), x) for x in row] for row in m]


def integral(m):
    return all(type(x) is int for row in m for x in row)


def outcome(f, *args):
    """f's result, or the type and text of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as e:
        return ValueError, str(e)


def random_unimodular(n, rng, ops=12):
    p = identity(n)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for row in p:
            row[j] += c * row[i]
    return p


# determinants -----------------------------------------------------------


def test_det_printed_goeritz_matrix():
    assert det(GOERITZ_11N155) == -51


def test_det_identity_and_empty():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det([]) == 1
    assert type(det([[2, 1], [1, 1]])) is int


def test_det_agrees_with_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(m) == det_cofactor(m)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_transpose_invariant(m):
    assert det(m) == det(mat_transpose(m))


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


# inverses ---------------------------------------------------------------


def test_inverse_printed_matrix_matches_published_entries():
    assert inverse(GOERITZ_11N155)[1] == 51
    inv = checked_inverse(GOERITZ_11N155)
    assert inv[0][0] == Fraction(20, 51)
    assert inv[0][1] == Fraction(2, 17)
    assert inv[0][2] == Fraction(10, 51)
    assert inv[0][3] == Fraction(1, 17)
    assert inv[2][2] == Fraction(5, 51)


def test_inverse_trivial_and_singular():
    assert inverse([[3]]) == ([[1]], 3)
    assert inverse([[-3]]) == ([[-1]], 3)
    assert inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    assert inverse([]) == ([], 1)
    with pytest.raises(ValueError):
        inverse([[1, 1], [1, 1]])


def test_inverse_exactness_sweep():
    rng = random.Random(11)
    done = 0
    while done < 200:
        n = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        if det(m) == 0:
            continue
        assert checked_inverse(m) == reference_inverse(m)
        done += 1


# Smith normal form ------------------------------------------------------


def check_snf(m, snf: SNFResult):
    assert mat_mul(mat_mul(snf.U, m), snf.V) == snf.D
    assert is_unimodular(snf.U) and is_unimodular(snf.V)
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero, "zero before a nonzero diagonal entry"
    rows, cols = len(m), len(m[0]) if m else 0
    if rows == cols and rows:
        product = 1
        for d in nonzero:
            product *= d
        assert product == abs(det(m)) or (det(m) == 0 and len(nonzero) < rows)


def test_snf_printed_goeritz():
    snf = smith_normal_form(GOERITZ_11N155)
    assert snf.diagonal == [1, 1, 1, 51]
    assert snf.invariant_factors == [51]
    check_snf(GOERITZ_11N155, snf)


def test_snf_divisibility_normalization():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal == [1, 6]
    check_snf([[2, 0], [0, 3]], snf)


def test_snf_zero_matrix():
    snf = smith_normal_form([[0]])
    assert snf.diagonal == [0]
    check_snf([[0]], snf)


@settings(max_examples=150)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_snf_postconditions_property(rows, cols, data):
    m = [[data.draw(st.integers(-15, 15)) for _ in range(cols)]
         for _ in range(rows)]
    check_snf(m, smith_normal_form(m))


# signatures -------------------------------------------------------------


def test_signature_printed_matrix_and_jacobi_oracle():
    assert jacobi_signature(GOERITZ_11N155) == 2
    assert signature(GOERITZ_11N155) == 2


def test_signature_small_cases():
    assert signature([[3, 0], [0, -5]]) == 0
    assert signature(identity(4)) == 4
    assert signature([]) == 0


def test_signature_requires_symmetric_nonsingular():
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        signature([[1, 1], [1, 1]])


def test_signature_hyperbolic_block():
    # all diagonal entries zero: the off-diagonal fold must kick in
    assert signature([[0, 1], [1, 0]]) == 0
    assert signature([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]]) == 0


def test_signature_agrees_with_jacobi_oracle_when_applicable():
    rng = random.Random(23)
    done = 0
    while done < 150:
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        try:
            oracle = jacobi_signature(m)
        except AssertionError:
            continue
        assert signature(m) == oracle
        done += 1


def test_signature_invariant_under_unimodular_congruence():
    rng = random.Random(41)
    done = 0
    while done < 120:
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        if det(m) == 0:
            continue
        p = random_unimodular(n, rng)
        conj = mat_mul(mat_transpose(p), mat_mul(m, p))
        assert signature(conj) == signature(m)
        done += 1


# the integer kernels against the Fraction algorithms --------------------------


@settings(max_examples=250, deadline=None)
@given(square_matrices())
def test_inverse_matches_fraction_gauss_jordan(m):
    if det(m) == 0:
        assert outcome(inverse, m) == outcome(reference_inverse, m)
    else:
        assert checked_inverse(m) == reference_inverse(m)


@settings(max_examples=200, deadline=None)
@given(square_matrices(symmetric=True))
def test_signature_matches_rational_congruence(m):
    assert outcome(signature, m) == outcome(reference_signature, m)


def matrices(rows, cols, entry):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.data())
def test_mat_mul_matches_fraction_product(rows, inner, cols, data):
    """The product of integer matrices; the reference's sums are exact."""
    entry = st.integers(-50, 50)
    a = data.draw(matrices(rows, inner, entry))
    b = data.draw(matrices(inner, cols, entry))
    assert typed(mat_mul(a, b)) == typed(reference_mat_mul(a, b))
    assert integral(mat_mul(a, b))


SINGULAR = [
    [[0]],
    [[0, 0], [0, 0]],
    [[1, 1], [1, 1]],
    [[0, 1], [0, 2]],
    [[2, 4, 6], [1, 2, 3], [0, 5, -1]],
    [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
    [[1, 2, 3], [2, 4, 5], [3, 6, 8]],
]


@pytest.mark.parametrize("m", SINGULAR)
def test_singular_inputs_raise_the_same_error(m):
    assert det(m) == 0
    expected = outcome(reference_inverse, m)
    assert expected[0] is ValueError
    assert outcome(inverse, m) == expected
    sym = [[m[min(i, j)][max(i, j)] for j in range(len(m))] for i in range(len(m))]
    if det(sym) == 0:
        assert outcome(signature, sym) == outcome(reference_signature, sym)
        assert outcome(signature, sym)[0] is ValueError


def bundled_goeritz_matrices(dataset):
    return [goeritz(rec.pd).g for rec in dataset if rec.pd is not None]


def check_kernels_on_goeritz(g):
    assert checked_inverse(g) == reference_inverse(g)
    assert signature(g) == reference_signature(g)
    u = smith_normal_form(g).U
    w, one = inverse(u)
    assert one == 1 and checked_inverse(u) == reference_inverse(u)
    ginv, _ = inverse(g)
    wt = mat_transpose(w)
    inner = mat_mul(ginv, w)
    assert typed(inner) == typed(reference_mat_mul(ginv, w))
    assert typed(mat_mul(wt, inner)) == typed(reference_mat_mul(wt, inner))
    assert typed(mat_mul(g, g)) == typed(reference_mat_mul(g, g))
    assert integral(inner) and integral(mat_mul(wt, inner))


def test_kernels_match_references_on_bundled_goeritz_matrices(dataset):
    matrices = bundled_goeritz_matrices(dataset)
    assert len(matrices) == 21
    for g in matrices:
        check_kernels_on_goeritz(g)


def test_kernels_match_references_on_fan_medials_up_to_dimension_16():
    matrices = fan_goeritz_matrices()
    assert max(len(g) for g in matrices) == 16
    for g in matrices:
        check_kernels_on_goeritz(g)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_inverse_matches_sympy(m):
    if det(m) != 0:
        assert checked_inverse(m) == sympy_inverse(m)


def test_inverse_matches_sympy_on_goeritz_matrices(dataset):
    for g in bundled_goeritz_matrices(dataset) + fan_goeritz_matrices():
        assert checked_inverse(g) == sympy_inverse(g)


# arguments are left alone ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
def test_no_kernel_mutates_its_argument(m, data):
    """``analyze_diagram`` hands one Goeritz matrix to several kernels, so a
    kernel that eliminated in its argument would corrupt the later calls.
    Each argument deep-equals its snapshot after the call, on singular
    input (which raises) as well."""
    n = len(m)
    sym = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    wide = data.draw(matrices(n, data.draw(st.integers(1, 8)),
                              st.integers(-9, 9)))
    calls = [(det, m), (inverse, m), (smith_normal_form, m),
             (smith_normal_form, wide), (signature, sym), (mat_mul, m, wide),
             (mat_mul, wide, identity(len(wide[0])))]
    for kernel, *args in calls:
        snapshot = copy.deepcopy(args)
        try:
            kernel(*args)
        except ValueError:
            pass
        assert args == snapshot, kernel.__name__


# non-integer input ----------------------------------------------------------


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0])
def test_kernels_reject_non_integer_entries(entry):
    """A Fraction or float entry, integral-valued or not, raises TypeError
    in every kernel instead of being floor-divided."""
    m = [[entry, 1], [1, 3]]
    for kernel in (det, inverse, signature, smith_normal_form):
        with pytest.raises(TypeError):
            kernel(m)
    with pytest.raises(TypeError):
        mat_mul(m, identity(2))
    with pytest.raises(TypeError):
        mat_mul(identity(2), m)
