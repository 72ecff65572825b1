"""Exact integer linear algebra on small dense matrices.

Matrices are plain nested lists of Python ints (arbitrary precision), and
every kernel takes and returns integers only: no floating point and no
rational, as the downstream obstructions are number-theoretic and one
rounding error would silently flip a verdict.  Each kernel works on an
integer copy of its input, which rejects a ``Fraction`` or float entry
with TypeError.  A solve A^-1*B is the integer pair (N, d) with
A*N = d*B, and an inverse the one with B = I; only ``linkform`` turns
such pairs into Q/Z values.

Elimination is fraction-free (Bareiss): each step divides exactly by the
previous pivot, so intermediate entries are minors of the input.  One
lazily scaled step, ``_pivot``, updates only the rows with a nonzero
pivot-column entry.  Any other row keeps its values and ``level[i]``, the
divisor it was last exact at, and is caught up inside its next update,
``(pivot*x - f*y) // level[i]``, exact as the result is a minor
(Sylvester's identity).  ``_eliminate`` takes that step bottom-right
first, clearing the rows above each pivot: ``det`` is its signed last
pivot, and ``inverse`` runs it on ``[A | B]`` (B = I by default) and
solves the lower-triangular left block by exact back substitution for
the columns of B only.  ``signature`` takes the same step on diagonal
pivots.  ``smith_normal_form`` eliminates
on one augmented matrix holding U beside D and V below it, so each row or
column operation is written once and carries its transform along; its
pivot search stops at the first unit.
Coefficient growth stays polynomial at the Goeritz dimensions the
pipeline meets (tens of rows).
"""

from dataclasses import dataclass
from operator import index, mul

IntMatrix = list  # list[list[int]], rectangular


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with g = gcd(a,b) = x*a + y*b, g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def unit_row(n, i):
    """Row i of the n x n identity."""
    row = [0] * n
    row[i] = 1
    return row


def integer_copy(m):
    """A fresh list-of-lists copy of m with int entries; an entry that is
    not an integer (a Fraction, a float) raises TypeError."""
    return [list(map(index, row)) for row in m]


def dimensions(m):
    """(rows, cols) of a rectangular matrix; raises on ragged input."""
    widths = set(map(len, m))
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    return len(m), (widths.pop() if widths else 0)


def require_square(m):
    rows, cols = dimensions(m)
    if rows != cols:
        raise ValueError(f"square matrix required, got {rows}x{cols}")
    return rows


def is_symmetric(m):
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def mat_mul(a, b):
    """Product of two integer matrices."""
    ra, ca = dimensions(a)
    rb, cb = dimensions(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    cols = list(zip(*integer_copy(b)))
    return [[sum(map(mul, row, col)) for col in cols] for row in integer_copy(a)]


def mat_transpose(m):
    rows, cols = dimensions(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def _pivot(a, level, prev, k, rows):
    """One lazy Bareiss step on pivot row k, as the module docstring says:
    catch row k up to ``prev``, update each of ``rows`` whose (possibly
    stale) column-k entry is nonzero, and return the pivot.  Row k is
    caught up into ``top`` only: in ``a`` it stays at its own level, a
    multiple of ``top``."""
    top = a[k]
    if level[k] != prev:
        top = [x * prev // level[k] for x in top]
    pivot = top[k]
    for i in rows:
        f = a[i][k]
        if f:
            a[i] = [(pivot * x - f * y) // level[i]
                    for x, y in zip(a[i], top)]
            level[i] = pivot
    return pivot


def _eliminate(a, n):
    """Eliminate the n x n left block of the rows ``a`` in place, pivots
    bottom-right first, to a lower-triangular block; return the signed last
    pivot, +-det of that block (1 when n == 0), or 0 when a column has no
    pivot left.  A zero diagonal entry swaps in the first row above it with
    a nonzero entry there."""
    level = [1] * n
    sign = prev = 1
    for k in reversed(range(n)):
        if not a[k][k]:
            i = next((i for i in range(k) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            level[k], level[i] = level[i], level[k]
            sign = -sign
        prev = _pivot(a, level, prev, k, range(k))
    return sign * prev


def det(m):
    """Determinant of an integer matrix: the signed last pivot of
    ``_eliminate`` on an integer copy.  The shape is checked before the
    entries, so a ragged matrix raises ValueError whatever it holds.  The
    0x0 determinant is 1 (empty product), which is what the unknot's empty
    Goeritz matrix needs."""
    n = require_square(m)
    return _eliminate(integer_copy(m), n)


def inverse(m, rhs=None):
    """A^-1 * B = N/d for an integer matrix A and right-hand side B, as
    the integer pair (N, d) with A*N = d*B and d = |det A| > 0, by Bareiss
    elimination and back solving.  ``rhs`` defaults to the identity, so
    ``inverse(m)`` is A^-1 = N/d; otherwise it must have as many rows as
    A, and N has as many columns as it.

    ``_eliminate`` on ``[A | B]`` leaves a lower-triangular left block
    R = E*A beside E*B, for the product E of its row operations, and its
    last pivot is +-det A, so N = d*A^-1*B solves R*N = d*E*B: row i of N
    is ``(d*(E*B)_i - sum_{j<i} R_ij*N_j) // R_ii``, exact as N is
    integral, and unchanged by the scale a row was left at.  The work
    beyond the elimination of A grows with the columns of B, not of A.
    A lower-triangular input (an SNF's U) updates no row, and a
    tridiagonal one (a Goeritz matrix) about one per pivot.

    Raises ValueError on a singular matrix, and on a ragged ``rhs`` or one
    with the wrong number of rows.
    """
    n = require_square(m)
    if rhs is None:
        rhs = [unit_row(n, i) for i in range(n)]
    elif dimensions(rhs)[0] != n:
        raise ValueError(f"right-hand side needs {n} rows, got {len(rhs)}")
    a = [row + b for row, b in zip(integer_copy(m), integer_copy(rhs))]
    d = abs(_eliminate(a, n))
    if not d:
        raise ValueError("singular matrix has no inverse")
    solution = []
    for i, row in enumerate(a):
        x = row[n:] if d == 1 else [d * y for y in row[n:]]
        for j, r in enumerate(row[:i]):
            if r:
                x = [s - r * y for s, y in zip(x, solution[j])]
        p = row[i]
        solution.append(x if p == 1 else [s // p for s in x])
    return solution, d


@dataclass
class SNFResult:
    """U * A * V = D with U, V unimodular and D = diag(d1 | d2 | ...) >= 0."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        n = min(len(self.D), len(self.D[0]) if self.D else 0)
        return [self.D[i][i] for i in range(n)]

    @property
    def invariant_factors(self):
        """Diagonal entries > 1, i.e. the torsion invariant factors."""
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(m):
    """Smith normal form with unimodular transforms: U*m*V = D.

    The elimination runs on one augmented integer matrix.  Its first
    ``rows`` rows are ``D_i || U_i`` and its last ``cols`` rows are V, so a
    row operation on a top row (reduction, swap, negation, the 2x2 xgcd
    step) carries U along with D, and a column operation, applied to the
    entries < cols of every row, carries V; U, D and V are sliced out at
    the end.  Pivots are chosen by smallest nonzero absolute value, which
    keeps coefficient growth tame at the sizes we meet: the first such
    entry in row-major order, so the search stops at the first entry of
    absolute value 1, which nothing can beat.
    """
    rows, cols = dimensions(m)
    a = ([row + unit_row(rows, i) for i, row in enumerate(integer_copy(m))]
         + [unit_row(cols, j) for j in range(cols)])

    def col_op(j1, j2, q):
        # col j2 -= q * col j1, in D and V alike
        for row in a:
            row[j2] -= q * row[j1]

    def smallest_pivot(t):
        # the first entry of least nonzero |value| in row-major order; a
        # unit cannot be beaten, so the search stops at the first one
        least, at = 0, None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    if x == 1 or x == -1:
                        return i, j
                    if x < 0:
                        x = -x
                    if not least or x < least:
                        least, at = x, (i, j)
        return at

    # Re-selecting the globally smallest entry as pivot on every pass keeps
    # coefficient growth tame; leftover division remainders feed the next
    # pass instead of being chased with swaps, which is what makes the
    # naive algorithm blow up.  The pivot column is done once a pass leaves
    # no remainder.
    t = 0
    while t < min(rows, cols) and (at := smallest_pivot(t)):
        i0, j0 = at
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        top = a[t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // top[t]
                a[i] = [x - q * y for x, y in zip(a[i], top)]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if top[j] != 0:
                col_op(t, j, top[j] // top[t])
                dirty = dirty or top[j] != 0
        if not dirty:
            t += 1

    rank = t
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]

    # Enforce the divisibility chain d1 | d2 | ... by replacing an offending
    # adjacent pair (p, q) with (gcd, lcm); re-scan until stable.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            p, q = a[i][i], a[i + 1][i + 1]
            if q % p != 0:
                changed = True
                col_op(i + 1, i, -1)  # col i += col i+1: block [[p,0],[q,q]]
                g, x, y = xgcd(p, q)
                # rows (i, i+1) <- (x*i + y*(i+1), -(q/g)*i + (p/g)*(i+1)),
                # a determinant-1 step
                a[i], a[i + 1] = ([x * r + y * s for r, s in zip(a[i], a[i + 1])],
                                  [-(q // g) * r + (p // g) * s
                                   for r, s in zip(a[i], a[i + 1])])
                # block is now [[g, y*q], [0, p*q/g]], both diagonal entries
                # positive; y*q is divisible by g
                col_op(i, i + 1, a[i][i + 1] // g)
    upper = a[:rows]
    return SNFResult(U=[row[cols:] for row in upper],
                     D=[row[:cols] for row in upper], V=a[rows:])


def signature(m):
    """Signature (#positive - #negative eigenvalues) of a symmetric matrix,
    computed exactly by symmetric Bareiss elimination.

    After pivots P the rows left hold prev * S, S the Schur complement of
    A[P, P] and prev = det A[P, P], so by Sylvester's law of inertia each
    pivot p = prev * S[k][k] adds one eigenvalue of sign sign(p * prev).
    The pivot is the first nonzero diagonal entry left, and ``_pivot``
    updates the rows left whose own (possibly stale) pivot-column entry is
    nonzero, catching each up inside its update.  An all-zero remaining
    diagonal gets an off-diagonal entry folded onto it (row/col addition, a
    unimodular congruence, so later entries are minors of the congruent
    matrix).

    Requires a nonsingular symmetric integer matrix; 0x0 input has
    signature 0.
    """
    n = require_square(m)
    a = integer_copy(m)
    if not is_symmetric(a):
        raise ValueError("signature requires a symmetric matrix")
    level = [1] * n
    left = list(range(n))
    prev, sig = 1, 0
    while left:
        k = next((i for i in left if a[i][i]), None)
        if k is None:
            k = left[0]
            j = next((j for j in left if a[k][j]), None)
            if j is None:
                raise ValueError("signature requires a nonsingular matrix")
            # row/col k += row/col j at the current level: a[k][k] = 2*a[k][j]
            lk, lj = level[k], level[j]
            a[k] = [x * prev // lk + y * prev // lj for x, y in zip(a[k], a[j])]
            level[k] = prev
            for i in left:
                a[i][k] += a[i][j]
        left.remove(k)
        pivot = _pivot(a, level, prev, k, left)
        sig += 1 if (pivot > 0) == (prev > 0) else -1
        prev = pivot
    return sig
