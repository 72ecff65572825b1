"""The elimination kernels that ``exactalg``'s lazy-scaled Bareiss
replaced: ``det`` rebuilds every row below the pivot at every step, and
``signature`` rebuilds the whole trailing block and divides it by its
content.  Kept as the references the tests hold the new kernels to.  A
determinant and a signature are invariants, so the new kernels must return
exactly these integers, and raise the same exception on the same input.
"""

from functools import reduce
from itertools import chain
from math import gcd

from gamma4.exactalg import integer_copy, is_symmetric, require_square


def det(m):
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination.  The 0x0 determinant is 1 (empty product), which is what
    the unknot's empty Goeritz matrix needs."""
    n = require_square(m)
    if n == 0:
        return 1
    a = integer_copy(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                sign = 0  # a zero column below the diagonal: singular
                break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: every division here is exact over the integers.
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signature(m):
    """Signature (#positive - #negative eigenvalues) of a symmetric matrix,
    computed exactly by integer congruence diagonalization.

    Eliminating the pivot p leaves the Schur complement A22 - a21*a12/p,
    which is congruent to the trailing block (Sylvester's law of inertia).
    The integer block p*A22 - a21*a12 is that complement times p, so the
    running sign flips when p < 0, and the block's content is divided out
    to keep the entries small.  A zero pivot is swapped with a nonzero
    diagonal entry; when every remaining diagonal entry is zero, an
    off-diagonal entry is folded onto the diagonal (row/col addition),
    which is the 2x2 hyperbolic-block step in disguise.

    Requires a nonsingular symmetric integer matrix; 0x0 input has
    signature 0.
    """
    require_square(m)
    a = integer_copy(m)
    if not is_symmetric(a):
        raise ValueError("signature requires a symmetric matrix")
    sign = 1  # sign of the factor by which a is the true Schur complement
    sig = 0
    while a:
        if a[0][0] == 0:
            swap = next((j for j in range(1, len(a)) if a[j][j] != 0), None)
            if swap is not None:
                a[0], a[swap] = a[swap], a[0]
                for row in a:
                    row[0], row[swap] = row[swap], row[0]
            else:
                j = next((j for j in range(1, len(a)) if a[0][j] != 0), None)
                if j is None:
                    raise ValueError("signature requires a nonsingular matrix")
                # add row/col j to row/col 0: a[0][0] becomes 2*a[0][j] != 0
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
        pivot = a[0][0]
        sig += 1 if (pivot > 0) == (sign > 0) else -1
        if pivot < 0:
            sign = -sign
        edge = a[0][1:]
        a = [[pivot * x - r * y for x, y in zip(row[1:], edge)]
             for r, row in zip(edge, a[1:])]
        content = reduce(gcd, chain.from_iterable(a), 0)
        if content > 1:
            a = [[x // content for x in row] for row in a]
    return sig
