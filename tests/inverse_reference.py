"""The fraction-free Gauss-Jordan inverse that ``exactalg`` once ran:
Bareiss elimination of the augmented ``[A | I]``, every row 2n entries
wide, above and below every pivot.  Kept as the reference the tests hold
``exactalg.inverse`` to.  (N, d) with A*N = d*I and d = |det A| is
unique, so the kernel must return exactly these integers, and raise the
same exception on the same input.
"""

from gamma4.exactalg import integer_copy, require_square


def inverse(m):
    """(N, d) with A*N = d*I and d = |det A| > 0, by eliminating
    ``[A | I]`` over the integers, every other row at every step,
    dividing exactly by the previous pivot; the left block ends as p*I
    with p = +-det(A) and the right block as p*A^-1.

    Raises ValueError on a singular matrix.
    """
    n = require_square(m)
    rows = [row + [int(i == j) for j in range(n)]
            for i, row in enumerate(integer_copy(m))]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise ValueError("singular matrix has no inverse")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        top = rows[col]
        pivot = top[col]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                # Sylvester's identity makes every division exact.
                rows[r] = [(pivot * x - f * y) // prev
                           for x, y in zip(rows[r], top)]
        prev = pivot
    if prev < 0:
        return [[-x for x in row[n:]] for row in rows], -prev
    return [row[n:] for row in rows], prev
