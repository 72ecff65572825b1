"""Shared fixtures and diagram constructors for the test suite.

The anchor knots here carry *textbook* invariant values (torus knots
T(2,n), mirrors, connected sums), so they pin the sign conventions of the
Goeritz/signature machinery independently of anything this package
computes.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st
from sympy import Matrix

from gamma4.errors import DiagramError
from gamma4.exactalg import det, inverse, mat_mul, require_square
from gamma4.knotio import PDCode, over_directions
from gamma4.linkform import FiniteAbelianGroup, LinkingForm
from gamma4.medial import PlanarGraph, fan_graph, medial_pd
from gamma4.planar import goeritz

DATA = Path(__file__).resolve().parent.parent / "src" / "gamma4" / "data"

TREFOIL_PD = "PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]"


def face_edges(pd, fs):
    """The edge labels bordering each face of ``fs = faces(pd)``, in the
    order its walk meets them: a walk arrives at corner ``4*i + s`` along
    the edge labelled at slot s of crossing i."""
    labels = [label for quad in pd.crossings for label in quad]
    return tuple(tuple(labels[q] for q in walk) for walk in fs.walks)


def torus2(n):
    """T(2,n) for odd n, in the chirality of the table knots 3_1, 5_1, ...

    Traveling the closure of the 2-strand braid alternates under/over
    passes; crossing j takes the under pass of edge j (j odd) or j+n
    (j even), and the over pass of the other one.
    """
    assert n % 2 == 1 and n >= 3
    E = 2 * n

    def w(x):
        return (x - 1) % E + 1

    crossings = []
    for j in range(1, n + 1):
        a = j if j % 2 == 1 else j + n
        o = j + n if j % 2 == 1 else j
        crossings.append((w(a), w(o), w(a + 1), w(o + 1)))
    return PDCode(tuple(crossings))


def mirror(pd):
    """Mirror image: reverses the rotational order at every crossing."""
    return PDCode(tuple((a, d, c, b) for (a, b, c, d) in pd.crossings))


def connect_sum(pd1, pd2):
    """Connected sum by splicing edge 2n1 of pd1 into edge 2n2 of pd2."""
    n1, n2 = len(pd1), len(pd2)
    E1, E2, E = 2 * n1, 2 * n2, 2 * (n1 + n2)
    out = []
    for pd, off, cut in ((pd1, 0, E1), (pd2, E1, E2)):
        od = over_directions(pd)
        for i, (a, b, c, d) in enumerate(pd.crossings):
            over_in = b if od[i] == 1 else d

            def relabel(x, slot):
                is_head = slot == 0 or (slot in (1, 3) and x == over_in and
                                        ((slot == 1) == (od[i] == 1)))
                if x == cut:
                    if off == 0:
                        return E if is_head else E1
                    return E1 if is_head else E1 + E2
                return off + x

            out.append(tuple(relabel(x, s) for s, x in enumerate((a, b, c, d))))
    return PDCode(tuple(out))


def strand_structure(rng, n):
    """n crossing quadruples over labels 1..2n: each under-strand runs
    a -> a+1 and each over-strand joins o and o+1, either way round, with
    every label starting one strand.  So each label is used twice and
    enters and leaves one crossing: ``PDCode`` accepts every such code,
    and about a third of them are planar."""
    E = 2 * n
    pool = list(range(1, E + 1))
    rng.shuffle(pool)
    crossings = []
    while pool:
        a = pool.pop()
        o = pool.pop(rng.randrange(len(pool)))
        b, d = (o, o % E + 1) if rng.random() < 0.5 else (o % E + 1, o)
        crossings.append((a, b, a % E + 1, d))
    return tuple(crossings)


def mixed_fan_pd(dim, seed):
    """Non-alternating knot diagram of Goeritz dimension ``dim``: the medial
    of a fan with 1..2 crossings from the apex to each path region, single
    crossings along the path and every crossing sign drawn at random,
    redrawn until the medial closes into a knot."""
    rng = random.Random(f"{dim}:{seed}")
    while True:
        apex = tuple(rng.randint(1, 2) for _ in range(dim))
        fan = fan_graph(apex, (1,) * (dim - 1))
        edges = [(u, v, rng.choice((1, -1))) for u, v, _eta in fan.edges]
        try:
            pd, _regions = medial_pd(PlanarGraph(fan.vertex_count, edges,
                                                 fan.rotations))
            goeritz(pd)
        except DiagramError:
            continue
        return pd


def fan_goeritz_matrices():
    """Goeritz matrices of dimension 5..16 with H1 = Z5, Z73, Z335, Z55,
    Z3833, Z35 and (a connected sum) Z5 + Z5."""
    pds = [mixed_fan_pd(dim, seed)
           for dim, seed in ((5, 2), (8, 5), (11, 1), (13, 3), (16, 0), (16, 2))]
    pds.append(connect_sum(mixed_fan_pd(5, 2), mixed_fan_pd(8, 1)))
    return [goeritz(pd).g for pd in pds]


@st.composite
def square_matrices(draw, symmetric=False):
    """Integer matrices up to 8x8, zero-heavy so that leading pivots vanish
    and force swaps (or folds), with determinants of both signs; on request
    the leading column is zeroed down to a drawn row."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    for i in range(draw(st.integers(0, n - 1))):
        m[i][0] = 0
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    elif draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    return m


@st.composite
def structured_matrices(draw, symmetric=False):
    """Sparse, banded or block-diagonal integer matrices up to 12x12, their
    rows and columns relabelled by one permutation, symmetric on request.
    Few nonzeros per column, so most rows sit out several pivots and are
    caught up later; diagonal entries are zeroed from a drawn row on, and
    entries lean small so that eliminated diagonal entries cancel too, so a
    pivot entry vanishes (``det`` and ``inverse`` swap in a row left at an
    older level) or the remaining diagonal turns all-zero partway
    (``signature`` folds rows at different levels)."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("sparse", "banded", "blocks")))
    if shape == "sparse":
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        cells = draw(st.sets(cell, max_size=3 * n))
    elif shape == "banded":
        width = draw(st.integers(0, 2))
        cells = {(i, j) for i in range(n) for j in range(n) if abs(i - j) <= width}
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n), max_size=n // 2)) | {n})
        cells = {(i, j) for lo, hi in zip([0, *cuts], cuts)
                 for i in range(lo, hi) for j in range(lo, hi)}
    m = [[0] * n for _ in range(n)]
    for i, j in sorted(cells):
        m[i][j] = draw(st.integers(-2, 2) | st.integers(-6, 6))
    perm = draw(st.permutations(range(n)))
    m = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    for i in range(draw(st.integers(0, n)), n):
        m[i][i] = 0
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return m


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# inverses as rationals ------------------------------------------------------


def reference_inverse(m):
    """Gauss-Jordan over Fraction: the algorithm ``exactalg.inverse``
    replaced, kept as a reference."""
    n = require_square(m)
    a = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix has no inverse")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def sympy_inverse(m):
    inv = Matrix(m).inv()
    return [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(len(m))]
            for i in range(len(m))]


def checked_inverse(m):
    """``inverse(m)`` = (N, d) as the Fraction matrix N/d, after checking
    its contract: m*N = d*I with d = |det m|, and N, d integers."""
    num, d = inverse(m)
    assert type(d) is int and all(type(x) is int for row in num for x in row)
    assert d == abs(det(m)) > 0
    assert mat_mul(m, num) == [[d * (i == j) for j in range(len(m))]
                               for i in range(len(m))]
    return [[Fraction(x, d) for x in row] for row in num]


def cyclic_form(n, k, sign_fixed=False):
    """Synthetic linking form k/n on Z_n (trivial group for n = 1)."""
    if n == 1:
        return LinkingForm(group=FiniteAbelianGroup(()), b=(),
                           sign_fixed=sign_fixed)
    return LinkingForm(group=FiniteAbelianGroup((n,)),
                       b=((k % n,),), sign_fixed=sign_fixed)


# knots with table signatures, used to pin the eta/type conventions
def anchor_knots():
    t3, t5 = torus2(3), torus2(5)
    anchors = []
    for n, sigma in ((3, -2), (5, -4), (7, -6), (9, -8), (11, -10)):
        anchors.append((f"T(2,{n})", torus2(n), sigma, n))
        anchors.append((f"mirror-T(2,{n})", mirror(torus2(n)), -sigma, n))
    granny = connect_sum(t3, t3)
    anchors += [
        ("granny", granny, -4, 9),
        ("square", connect_sum(t3, mirror(t3)), 0, 9),
        ("mirror-granny", mirror(granny), 4, 9),
        ("trefoil+cinquefoil", connect_sum(t3, t5), -6, 15),
    ]
    return anchors


@pytest.fixture(scope="session")
def knots_csv():
    return DATA / "knots.csv"


@pytest.fixture(scope="session")
def certificates_csv():
    return DATA / "certificates.csv"


@pytest.fixture(scope="session")
def dataset(knots_csv):
    from gamma4.knotio import load_dataset
    return load_dataset(knots_csv)


@pytest.fixture(scope="session")
def dataset_by_name(dataset):
    return {rec.name: rec for rec in dataset}


@pytest.fixture(scope="session")
def classification(knots_csv, certificates_csv):
    from gamma4 import pipeline
    return pipeline.run_classification(knots_csv, certificates_csv)
