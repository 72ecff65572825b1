"""The Smith normal form that ``exactalg``'s augmented-matrix version
replaced: D, U and V held apart, every row and column operation mirrored
by hand into the second matrix.  Kept as the reference the tests hold the
new one to.  U fixes which generator each reported linking value names, so
the new U, D and V must equal these entry for entry, not merely be an
equivalent Smith decomposition.
"""

from conftest import identity
from gamma4.exactalg import SNFResult, dimensions, integer_copy, xgcd


def smith_normal_form(m):
    """Smith normal form with unimodular transforms.

    Row and column operations are mirrored into U and V so that
    U*m*V = D exactly.  Pivots are chosen by smallest nonzero absolute
    value, which keeps coefficient growth tame at the sizes we meet.
    """
    rows, cols = dimensions(m)
    d = integer_copy(m)
    u = identity(rows)
    v = identity(cols)

    def row_op(i1, i2, q):
        # row i2 -= q * row i1
        d[i2] = [x - q * y for x, y in zip(d[i2], d[i1])]
        u[i2] = [x - q * y for x, y in zip(u[i2], u[i1])]

    def col_op(j1, j2, q):
        for row in d:
            row[j2] -= q * row[j1]
        for row in v:
            row[j2] -= q * row[j1]

    def row_swap(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def col_swap(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def generalized_row_op(i1, i2, x, y, z, w):
        # (row i1, row i2) <- (x*row i1 + y*row i2, z*row i1 + w*row i2);
        # unimodular as long as x*w - y*z = +-1.
        d[i1], d[i2] = ([x * p + y * q for p, q in zip(d[i1], d[i2])],
                        [z * p + w * q for p, q in zip(d[i1], d[i2])])
        u[i1], u[i2] = ([x * p + y * q for p, q in zip(u[i1], u[i2])],
                        [z * p + w * q for p, q in zip(u[i1], u[i2])])

    def smallest_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        if smallest_pivot(t) is None:
            break
        # Re-selecting the globally smallest entry as pivot on every pass
        # keeps coefficient growth tame; leftover division remainders feed
        # the next pass instead of being chased with swaps, which is what
        # makes the naive algorithm blow up.
        while True:
            i0, j0 = smallest_pivot(t)
            row_swap(t, i0)
            col_swap(t, j0)
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_op(t, i, d[i][t] // d[t][t])
                    dirty = dirty or d[i][t] != 0
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    col_op(t, j, d[t][j] // d[t][t])
                    dirty = dirty or d[t][j] != 0
            if not dirty:
                break
        t += 1

    rank = t
    for i in range(rank):
        if d[i][i] < 0:
            row_negate(i)

    # Enforce the divisibility chain d1 | d2 | ... by replacing an offending
    # adjacent pair (a, b) with (gcd, lcm); re-scan until stable.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = d[i][i], d[i + 1][i + 1]
            if b % a != 0:
                changed = True
                col_op(i + 1, i, -1)  # col i += col i+1: block [[a,0],[b,b]]
                g, x, y = xgcd(a, b)
                generalized_row_op(i, i + 1, x, y, -(b // g), a // g)
                # block is now [[g, y*b], [0, a*b/g]]; y*b is divisible by g
                col_op(i, i + 1, d[i][i + 1] // g)
                if d[i + 1][i + 1] < 0:
                    row_negate(i + 1)
    return SNFResult(U=u, D=d, V=v)

