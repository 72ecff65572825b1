"""Faces, checkerboard colorings, and Goeritz matrices of planar diagrams.

The diagram is a 4-valent plane graph given by its PD code.  Slots of a
crossing ``X[a,b,c,d]`` are numbered 0..3 counterclockwise, so the corner
("quadrant") between slots s and s+1 is swept when a face walk arrives at
slot s and leaves at slot s+1.  Faces are exactly the orbits of that
walk rule, and a realizable diagram of n crossings has n + 2 of them
(V - E + F = 2 with V = n, E = 2n).

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
from .errors import DiagramError
from .knotio import PDCode, over_directions

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

    ``faces[k]`` is the cyclic tuple of (edge, side) incidences of face k,
    where side is +1 when the face walk traverses the edge along its
    orientation.  ``corners[k]`` lists the quadrants (crossing, slot)
    swept by the same walk, aligned with ``faces[k]``.
    """

    n: int
    faces: tuple
    corners: tuple

    def quadrant_face(self):
        """Map (crossing, slot) -> face index."""
        lookup = {}
        for k, quads in enumerate(self.corners):
            for quad in quads:
                lookup[quad] = k
        return lookup


def faces(pd: PDCode) -> FaceSet:
    """Trace all faces; reject diagrams that do not close up planarly."""
    n = len(pd)
    if n == 0:
        raise DiagramError("crossingless diagram has no crossings to trace; "
                           "the unknot is special-cased by goeritz()")
    # ends[edge] = list of (crossing, slot) occurrences (exactly two)
    ends = {}
    for i, quad in enumerate(pd.crossings):
        for s, edge in enumerate(quad):
            ends.setdefault(edge, []).append((i, s))

    over_dir = over_directions(pd)

    # knot-orientation heads: slot 0 always, plus the incoming over slot
    incoming_slots = set()
    for i in range(n):
        incoming_slots.add((i, 0))
        incoming_slots.add((i, 1) if over_dir[i] == 1 else (i, 3))

    def next_state(state):
        i, s = state
        depart = (i, (s + 1) % 4)
        edge = pd.crossings[i][(s + 1) % 4]
        first, second = ends[edge]
        return second if first == depart else first

    seen = set()
    all_faces = []
    all_corners = []
    for i in range(n):
        for s in range(4):
            if (i, s) in seen:
                continue
            walk = []
            state = (i, s)
            while state not in seen:
                seen.add(state)
                walk.append(state)
                state = next_state(state)
            if state != walk[0]:
                raise DiagramError("face walk failed to close; inconsistent diagram")
            corners = tuple(walk)
            incid = []
            for (ci, cs) in walk:
                edge = pd.crossings[ci][cs]
                # arriving at a knot-orientation head means the walk ran
                # along the edge's orientation
                side = 1 if (ci, cs) in incoming_slots else -1
                incid.append((edge, side))
            all_faces.append(tuple(incid))
            all_corners.append(corners)

    fs = FaceSet(n=n, faces=tuple(all_faces), corners=tuple(all_corners))
    if len(fs.faces) != n + 2:
        raise DiagramError(
            f"diagram is not planar: traced {len(fs.faces)} faces, expected {n + 2}")
    borders = {}
    for face in fs.faces:
        for edge, _side in face:
            borders[edge] = borders.get(edge, 0) + 1
    bad = [e for e, k in borders.items() if k != 2]
    if bad or len(borders) != 2 * n:
        raise DiagramError(f"edges {sorted(bad)} do not border exactly two faces")
    return fs


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
    crossing_white: tuple    # per crossing: (i, j) white-region indices
    eta: tuple               # per crossing: +-1
    types: tuple             # per crossing: 1 or 2

    @property
    def white_count(self):
        return len(self.white_faces)


def default_outer_face(fs: FaceSet) -> int:
    """Deterministic outer-face choice: most incidences, lowest index wins."""
    return _largest_face(fs, range(len(fs.faces)))


def _largest_face(fs, candidates):
    return max(candidates, key=lambda k: (len(fs.faces[k]), -k))


class _NugatoryCrossing(DiagramError):
    """Both white quadrants of a crossing lie on one face."""


def _face_colors(fs: FaceSet, outer):
    """Two-color the faces, ``outer`` white."""
    nfaces = len(fs.faces)
    adjacency = [set() for _ in range(nfaces)]
    edge_faces = {}
    for k, face in enumerate(fs.faces):
        for edge, _side in face:
            edge_faces.setdefault(edge, []).append(k)
    for edge, ks in edge_faces.items():
        f1, f2 = ks
        if f1 == f2:
            raise DiagramError(f"edge {edge} borders the same face twice; "
                               "cannot checkerboard-color")
        adjacency[f1].add(f2)
        adjacency[f2].add(f1)

    colors = [None] * nfaces
    colors[outer] = WHITE
    stack = [outer]
    while stack:
        k = stack.pop()
        for nb in adjacency[k]:
            want = BLACK if colors[k] == WHITE else WHITE
            if colors[nb] is None:
                colors[nb] = want
                stack.append(nb)
            elif colors[nb] != want:
                raise DiagramError("face adjacency graph is not bipartite")
    if any(c is None for c in colors):
        raise DiagramError("disconnected face structure")
    return colors


def checkerboard(pd: PDCode, fs: FaceSet, outer=None) -> Coloring:
    """Two-color the faces and classify every crossing.

    Rejects nugatory crossings (both white quadrants on the same face).
    ``outer`` picks the unbounded face; diagrams live on the sphere, so
    the choice is genuine input data recovered from the source picture.
    """
    nfaces = len(fs.faces)
    if outer is None:
        outer = default_outer_face(fs)
    if not 0 <= outer < nfaces:
        raise DiagramError(f"outer face {outer} out of range 0..{nfaces - 1}")
    colors = _face_colors(fs, outer)

    white_faces = [outer] + [k for k in range(nfaces) if colors[k] == WHITE and k != outer]
    white_index = {k: i for i, k in enumerate(white_faces)}

    quad_face = fs.quadrant_face()
    over_dir = over_directions(pd)
    crossing_white = []
    etas = []
    types = []
    for c in range(fs.n):
        qf = [quad_face[(c, s)] for s in range(4)]
        if colors[qf[0]] != colors[qf[2]] or colors[qf[1]] != colors[qf[3]] \
                or colors[qf[0]] == colors[qf[1]]:
            raise DiagramError("quadrant colors do not alternate", crossing=c)
        white_is_13 = colors[qf[1]] == WHITE
        pair = (qf[1], qf[3]) if white_is_13 else (qf[0], qf[2])
        if pair[0] == pair[1]:
            raise _NugatoryCrossing(
                "nugatory crossing: white quadrants share a face", crossing=c)
        crossing_white.append((white_index[pair[0]], white_index[pair[1]]))
        etas.append(ETA_SIGN * (1 if white_is_13 else -1))
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

    @property
    def white_count(self):
        return len(self.gfull)


def goeritz(pd: PDCode, outer=None) -> GoeritzData:
    """Goeritz matrix of the white coloring rooted at the outer face.

    g'(i,j) = -sum of eta over crossings joining white regions Ri and Rj,
    diagonal rows summing to zero; G deletes row and column 0; mu sums
    eta over the type II crossings.  The crossingless unknot diagram gets
    the empty 0x0 matrix, determinant 1, mu 0.

    Without an explicit ``outer``, a default coloring that makes a crossing
    nugatory is swapped once for the one rooted at the largest face of the
    other color, where that crossing's white quadrants lie on two faces.
    """
    if len(pd) == 0:
        return GoeritzData(gfull=[[0]], g=[], mu=0)
    fs = faces(pd)
    try:
        col = checkerboard(pd, fs, outer=outer)
    except _NugatoryCrossing:
        if outer is not None:
            raise
        colors = _face_colors(fs, default_outer_face(fs))
        other = _largest_face(fs, [k for k, c in enumerate(colors) if c == BLACK])
        col = checkerboard(pd, fs, outer=other)
    m = col.white_count
    gfull = [[0] * m for _ in range(m)]
    for c, (i, j) in enumerate(col.crossing_white):
        gfull[i][j] -= col.eta[c]
        gfull[j][i] -= col.eta[c]
    for i in range(m):
        gfull[i][i] = -sum(gfull[i][k] for k in range(m) if k != i)
    g = [[gfull[i][j] for j in range(1, m)] for i in range(1, m)]
    mu = sum(col.eta[c] for c in range(fs.n) if col.types[c] == 2)
    return GoeritzData(gfull=gfull, g=g, mu=mu)


def signature_via_goeritz(gd: GoeritzData) -> int:
    """Knot signature from Goeritz data: sig(G) - mu [GL1978, Thm 6]."""
    sig = (exactalg.signature(gd.g) if gd.g else 0) - gd.mu
    # a knot signature is even; an odd value means the eta/type conventions
    # drifted, so fail loudly rather than propagate a wrong sign downstream
    if sig % 2 != 0:
        raise AssertionError(f"odd signature {sig}; convention miscalibrated")
    return sig
