"""The dict-based diagram front end that ``planar``'s slot arrays replaced.

Faces are traced over ``(crossing, slot)`` states with an edge -> ends
dict, colored over a face-adjacency dict of edge lists, and the
over-strand directions come from a product search over the candidate
readings.  Kept as the reference the tests hold the new front end to:
equal ``FaceSet`` contents, ``Coloring`` and ``GoeritzData``, and the same
exception class on every error path.  It takes the raw tuple of crossing
quadruples, not a ``PDCode``, so it also runs on codes that the
``PDCode`` constructor rejects, and it keeps its own checks.
"""

from dataclasses import dataclass
from itertools import product

from gamma4 import planar
from gamma4.errors import DiagramError, PDSemanticError
from gamma4.planar import BLACK, WHITE, Coloring, GoeritzData


@dataclass(frozen=True)
class FaceSet:
    n: int
    faces: tuple
    corners: tuple

    def quadrant_face(self):
        lookup = {}
        for k, quads in enumerate(self.corners):
            for quad in quads:
                lookup[quad] = k
        return lookup


def faces(crossings):
    n = len(crossings)
    if n == 0:
        raise DiagramError("crossingless diagram has no crossings to trace")
    ends = {}
    for i, quad in enumerate(crossings):
        for s, edge in enumerate(quad):
            ends.setdefault(edge, []).append((i, s))

    def next_state(state):
        i, s = state
        depart = (i, (s + 1) % 4)
        edge = crossings[i][(s + 1) % 4]
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
            all_faces.append(tuple([crossings[ci][cs] for ci, cs in walk]))
            all_corners.append(tuple(walk))

    fs = FaceSet(n=n, faces=tuple(all_faces), corners=tuple(all_corners))
    if len(fs.faces) != n + 2:
        raise DiagramError(
            f"diagram is not planar: traced {len(fs.faces)} faces, expected {n + 2}")
    borders = {}
    for face in fs.faces:
        for edge in face:
            borders[edge] = borders.get(edge, 0) + 1
    bad = [e for e, k in borders.items() if k != 2]
    if bad or len(borders) != 2 * n:
        raise DiagramError(f"edges {sorted(bad)} do not border exactly two faces")
    return fs


def default_outer_face(fs):
    return max(range(len(fs.faces)), key=lambda k: (len(fs.faces[k]), -k))


def face_colors(fs, outer):
    nfaces = len(fs.faces)
    adjacency = [set() for _ in range(nfaces)]
    edge_faces = {}
    for k, face in enumerate(fs.faces):
        for edge in face:
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


def over_directions(crossings):
    edges = 2 * len(crossings)

    def successor(label):
        return label % edges + 1

    candidates = []
    for i, (_a, b, _c, d) in enumerate(crossings):
        cand = []
        if d == successor(b):
            cand.append(+1)
        if b == successor(d):
            cand.append(-1)
        if not cand:
            raise PDSemanticError(
                f"over-strand pair ({b},{d}) not consecutive along orientation",
                crossing=i)
        candidates.append(cand)

    def consistent(choice):
        heads = {}
        tails = {}
        for (a, b, c, d), dirn in zip(crossings, choice):
            over_in, over_out = (b, d) if dirn == +1 else (d, b)
            for lbl in (a, over_in):
                heads[lbl] = heads.get(lbl, 0) + 1
            for lbl in (c, over_out):
                tails[lbl] = tails.get(lbl, 0) + 1
        return (all(heads.get(lbl, 0) == 1 for lbl in range(1, edges + 1))
                and all(tails.get(lbl, 0) == 1 for lbl in range(1, edges + 1)))

    for choice in product(*candidates):
        if consistent(choice):
            return list(choice)
    raise PDSemanticError(
        "no orientation assignment makes every edge enter and leave exactly one crossing")


def checkerboard(crossings, fs, outer=None):
    nfaces = len(fs.faces)
    if outer is None:
        outer = default_outer_face(fs)
    if not 0 <= outer < nfaces:
        raise DiagramError(f"outer face {outer} out of range 0..{nfaces - 1}")
    colors = face_colors(fs, outer)

    white_faces = [outer] + [k for k in range(nfaces) if colors[k] == WHITE and k != outer]
    white_index = {k: i for i, k in enumerate(white_faces)}

    quad_face = fs.quadrant_face()
    over_dir = over_directions(crossings)
    crossing_white = []
    etas = []
    types = []
    for c in range(fs.n):
        qf = [quad_face[(c, s)] for s in range(4)]
        if colors[qf[0]] != colors[qf[2]] or colors[qf[1]] != colors[qf[3]] \
                or colors[qf[0]] == colors[qf[1]]:
            raise DiagramError(f"crossing {c}: quadrant colors do not alternate")
        white_is_13 = colors[qf[1]] == WHITE
        pair = (qf[1], qf[3]) if white_is_13 else (qf[0], qf[2])
        crossing_white.append((white_index[pair[0]], white_index[pair[1]]))
        etas.append(planar.ETA_SIGN * (1 if white_is_13 else -1))
        parallel = white_is_13 == (over_dir[c] == -1)
        types.append(2 if parallel == planar.TYPE_II_IS_PARALLEL else 1)

    return Coloring(outer_face=outer, colors=tuple(colors),
                    white_faces=tuple(white_faces),
                    crossing_white=tuple(crossing_white),
                    eta=tuple(etas), types=tuple(types))


def goeritz(crossings, outer=None):
    if len(crossings) == 0:
        return GoeritzData(gfull=[[0]], g=[], mu=0)
    fs = faces(crossings)
    col = checkerboard(crossings, fs, outer=outer)
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
