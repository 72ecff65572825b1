"""H1 of the double branched cover from the Fox colouring matrix.

The Fox colouring matrix is the Alexander matrix of the Wirtinger
presentation at t = -1 (R. H. Fox, "A quick trip through knot theory",
1962; J. H. Przytycki, "3-coloring and other elementary invariants of
knots", Banach Center Publ. 42, 1998).  Its arcs are the over-strand
classes of edges: the under-strand breaks at every crossing, so a
crossing ``X[a,b,c,d]`` joins only its over-edges, b ~ d.  Each crossing
gives the relation 2 arc(b) - arc(a) - arc(c), and deleting one row and
one column leaves a presentation matrix of H1, whose |det| is the knot
determinant.

It is built from the PD code alone and its Smith form comes from sympy,
so it shares no code with the faces, the checkerboard colouring, the
Goeritz matrix, the eta and type-II conventions, the choice of outer face
or ``exactalg``.  Sympy's Smith form over ``DomainMatrix`` handles every
Fox matrix of the test sets (the bundled diagrams and both benchmark
corpora, up to 58 x 58) in a few milliseconds each.
"""

from math import prod

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors


def arcs(pd):
    """Arc index of every edge label: the classes of b ~ d over all
    crossings ``X[a,b,c,d]``, numbered in order of their least label."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for _a, b, _c, d in pd.crossings:
        parent[find(b)] = find(d)
    index = {}
    labels = sorted({label for quad in pd.crossings for label in quad})
    return {label: index.setdefault(find(label), len(index)) for label in labels}


def fox_matrix(pd):
    """The n x n Fox colouring matrix: row i is crossing i's relation,
    column j is arc j."""
    arc = arcs(pd)
    n = len(set(arc.values()))
    rows = []
    for a, b, c, _d in pd.crossings:
        row = [0] * n
        row[arc[b]] += 2
        row[arc[a]] -= 1
        row[arc[c]] -= 1
        rows.append(row)
    return rows


def h1(pd):
    """(invariant factors > 1 in divisibility order, |det|) of the Fox
    matrix with its first row and first column deleted; |det| is 0 when
    H1 is infinite, and the empty diagram gives ((), 1)."""
    m = [row[1:] for row in fox_matrix(pd)[1:]]
    if not m:
        return (), 1
    diagonal = [abs(int(x))
                for x in invariant_factors(DomainMatrix.from_list(m, ZZ))]
    diagonal += [0] * (len(m) - len(diagonal))
    return tuple(x for x in diagonal if x != 1), prod(diagonal)
