"""Faces, checkerboard colorings, and Goeritz matrices of planar diagrams.

The diagram is a 4-valent plane graph given by its PD code.  Slots of a
crossing ``X[a,b,c,d]`` are numbered 0..3 counterclockwise and flattened:
index ``4*i + s`` is slot s of crossing i and also the corner ("quadrant")
between its slots s and s+1, and ``partner[4*i + s]`` is the other end of
the edge labelled there.  A face walk arriving at slot s sweeps that
corner and leaves along slot s+1, so it arrives next at
``partner[4*i + (s+1) % 4]``.  Faces are exactly the orbits of that walk
rule, and a realizable diagram of n crossings has n + 2 of them
(V - E + F = 2 with V = n, E = 2n).  A face is kept only as its walk of
slots, and its edges are the labels at those slots.

With a coloring fixed (white on the unbounded face), every crossing sees
one opposite pair of white quadrants.  The crossing sign eta and the
type I/II split follow Gordon and Litherland's conventions [GL1978]; since
those are stated by pictures, the two binary choices below (global eta
sign, which orientation pattern counts as type II) were pinned once by
computing signatures of knots with table values (torus knots T(2,n),
their mirrors, and connected sums), and the shipped constants are covered
by the test suite.

[GL1978] C. McA. Gordon, R. A. Litherland, "On the signature of a link",
Invent. Math. 47 (1978).
"""

from dataclasses import dataclass

from . import exactalg
from .errors import DiagramError, InconsistencyError
from .knotio import PDCode

WHITE = "white"
BLACK = "black"

# Convention calibration, pinned by the known-signature test suite.
# ETA_SIGN multiplies every crossing sign; TYPE_II_IS_PARALLEL selects
# which orientation pattern counts as type II ("parallel" = both strands
# crossing their white quadrants in the same rotational sense).  The
# anchor knots single out this pair among the four candidate conventions
# (the other three fail parity or mirror checks).
ETA_SIGN = 1
TYPE_II_IS_PARALLEL = False


def calibration():
    """The convention constants, for report metadata."""
    return {"eta_sign": ETA_SIGN,
            "type_ii_is_parallel": TYPE_II_IS_PARALLEL,
            "signature_rule": "sig(G) - mu"}


@dataclass(frozen=True)
class FaceSet:
    """Faces of the diagram on the 2-sphere.

    ``walks[k]`` lists the corners swept by the walk of face k as slots
    ``4*i + s``, in the order the walk meets them, and
    ``slot_face[4*i + s]`` is the face holding that corner.  The walk
    arrives at each corner along the edge labelled at its slot.
    """

    walks: tuple
    slot_face: tuple


def faces(pd: PDCode) -> FaceSet:
    """Trace all faces; reject diagrams that do not close up planarly."""
    n = len(pd)
    if n == 0:
        raise DiagramError("crossingless diagram has no crossings to trace; "
                           "the unknot is special-cased by goeritz()")
    labels = [label for quad in pd.crossings for label in quad]
    partner = [-1] * (4 * n)
    first = {}
    for slot, label in enumerate(labels):
        other = first.setdefault(label, slot)
        if other != slot:
            partner[other] = slot
            partner[slot] = other

    # a PDCode holds each label at exactly two slots, so a walk step
    # permutes the 4n slots and every walk closes
    slot_face = [-1] * (4 * n)
    walks = []
    for start in range(4 * n):
        if slot_face[start] >= 0:
            continue
        k = len(walks)
        walk = []
        slot = start
        while slot_face[slot] < 0:
            slot_face[slot] = k
            walk.append(slot)
            slot = partner[slot + 1 if slot & 3 != 3 else slot - 3]
        walks.append(tuple(walk))
    if len(walks) != n + 2:
        raise DiagramError(
            f"diagram is not planar: traced {len(walks)} faces, expected {n + 2}")
    return FaceSet(walks=tuple(walks), slot_face=tuple(slot_face))


@dataclass(frozen=True)
class Coloring:
    """Proper checkerboard coloring with the outer face white.

    White regions are indexed R0..Rm with R0 the outer face; per crossing
    we record the incident white-region pair, the sign eta, and the
    Gordon-Litherland type (1 or 2).
    """

    outer_face: int
    colors: tuple            # per face index
    white_faces: tuple       # face indices in R-index order, R0 first
    crossing_white: tuple    # per crossing: (i, j) white-region indices,
                             # i == j at a nugatory crossing
    eta: tuple               # per crossing: +-1
    types: tuple             # per crossing: 1 or 2

    @property
    def white_count(self):
        return len(self.white_faces)


def default_outer_face(fs: FaceSet) -> int:
    """The default coloring's root: most incidences, lowest index."""
    # max keeps the first of equal keys, and the faces ascend
    return max(range(len(fs.walks)), key=lambda k: len(fs.walks[k]))


def _face_colors(fs: FaceSet, outer):
    """Two-color the faces, ``outer`` white.  The edge a walk arrives
    along at corner ``4*i + s`` separates its face from the face of corner
    ``4*i + (s-1) % 4``, so a face's walk lists its neighbors.

    Nothing needs checking.  A :class:`PDCode`'s labels 1..2n run once
    round one strand through every crossing, so the diagram is a connected
    4-valent graph; ``faces`` counted n + 2 faces, so V - E + F = 2 and the
    walks embed it in the sphere; and a connected plane graph with all
    degrees even has no bridge, so no edge has one face on both sides, and
    its faces 2-color.  So the search from ``outer`` colors every face, and
    the four quadrants of each crossing alternate.
    """
    slot_face = fs.slot_face
    colors = [None] * len(fs.walks)
    colors[outer] = WHITE
    stack = [outer]
    while stack:
        k = stack.pop()
        want = BLACK if colors[k] == WHITE else WHITE
        for q in fs.walks[k]:
            nb = slot_face[q - 1 if q & 3 else q + 3]
            if colors[nb] is None:
                colors[nb] = want
                stack.append(nb)
    return colors


def checkerboard(pd: PDCode, fs: FaceSet, outer=None) -> Coloring:
    """Two-color the faces, rooted white at ``outer`` or at
    ``default_outer_face``, and classify every crossing.

    ``outer`` picks the unbounded face; diagrams live on the sphere, so
    the choice is genuine input data recovered from the source picture.
    Either coloring serves [GL1978, Thm 6], so every root is accepted.

    A nugatory crossing, whose two white quadrants lie on one face R, is
    classified like any other and changes neither G' nor mu.  It joins R
    to itself, so its terms in G' cancel.  It is always type I: a closed
    curve inside R through the two white corners separates the
    crossing's four ends into two pairs, and the knot, leaving the
    crossing into one half, must come back through that half's other
    end.  So with white {0,2} the over-strand runs b->d, and with white
    {1,3} it runs d->b; either way the strands are parallel, which is
    type I under the shipped calibration.
    """
    nfaces = len(fs.walks)
    outer = default_outer_face(fs) if outer is None else outer
    if not 0 <= outer < nfaces:
        raise DiagramError(f"outer face {outer} out of range 0..{nfaces - 1}")
    colors = _face_colors(fs, outer)
    white_faces = [outer] + [k for k, col in enumerate(colors)
                             if col == WHITE and k != outer]
    white_index = {k: i for i, k in enumerate(white_faces)}

    over_dir = pd.directions
    crossing_white = []
    etas = []
    types = []
    for c, (f0, f1, f2, f3) in enumerate(zip(*[iter(fs.slot_face)] * 4)):
        white_is_13 = colors[f1] == WHITE
        w1, w2 = (f1, f3) if white_is_13 else (f0, f2)
        crossing_white.append((white_index[w1], white_index[w2]))
        etas.append(ETA_SIGN if white_is_13 else -ETA_SIGN)
        # both strands run white-to-white; they do so in the same rotational
        # sense exactly when the over-strand runs d->b for the {1,3} white
        # pair, or b->d for the {0,2} pair
        parallel = white_is_13 == (over_dir[c] == -1)
        types.append(2 if parallel == TYPE_II_IS_PARALLEL else 1)

    return Coloring(outer_face=outer, colors=tuple(colors),
                    white_faces=tuple(white_faces),
                    crossing_white=tuple(crossing_white),
                    eta=tuple(etas), types=tuple(types))


@dataclass(frozen=True)
class GoeritzData:
    """Full matrix G', reduced Goeritz matrix G, and correction term mu."""

    gfull: list
    g: list
    mu: int


def goeritz(pd: PDCode, outer=None) -> GoeritzData:
    """Goeritz matrix of ``checkerboard``'s white regions, rooted at
    ``outer`` or at checkerboard's default coloring.

    g'(i,j) = -sum of eta over crossings joining white regions Ri and Rj,
    diagonal rows summing to zero; G deletes row and column 0; mu sums
    eta over the type II crossings.  The crossingless unknot diagram gets
    the empty 0x0 matrix, determinant 1, mu 0.
    """
    if len(pd) == 0:
        return GoeritzData(gfull=[[0]], g=[], mu=0)
    col = checkerboard(pd, faces(pd), outer=outer)
    m = col.white_count
    gfull = [[0] * m for _ in range(m)]
    # the zero row sums put each crossing's eta on both diagonal entries;
    # a nugatory crossing joins a region to itself (i == j), so its four
    # updates cancel and it adds nothing
    for (i, j), eta in zip(col.crossing_white, col.eta):
        gfull[i][j] -= eta
        gfull[j][i] -= eta
        gfull[i][i] += eta
        gfull[j][j] += eta
    g = [row[1:] for row in gfull[1:]]
    mu = sum(eta for eta, kind in zip(col.eta, col.types) if kind == 2)
    return GoeritzData(gfull=gfull, g=g, mu=mu)


def signature_via_goeritz(gd: GoeritzData) -> int:
    """Knot signature from Goeritz data: sig(G) - mu [GL1978, Thm 6]."""
    sig = exactalg.signature(gd.g) - gd.mu
    # a knot signature is even; an odd value means the eta/type conventions
    # drifted, so fail loudly rather than propagate a wrong sign downstream
    if sig % 2 != 0:
        raise InconsistencyError(f"odd signature {sig}; convention miscalibrated")
    return sig
