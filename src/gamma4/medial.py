"""Diagram construction from signed planar graphs (inverse of goeritz).

A checkerboard-colored knot diagram is the medial of its white Tait graph:
vertices are white regions, edges are crossings (signed by eta), and the
planar embedding is a rotation system.  This module rebuilds the diagram
from that data, which is how the bundled PD codes were produced: a
published Goeritz matrix determines the signed white graph, the graph is
embedded, and goeritz() of the resulting PD code must give the graph's G'
entry for entry, sign included, through the region map ``region_corners``.

Corners between consecutive edges around a vertex are the diagram's arcs;
each graph edge becomes one crossing whose two strands run between the two
endpoint regions, and eta decides which strand dives under.

Crossing ends are flat integers: end ``4*e + 2*j + side`` is edge e at its
j-th endpoint (j = 0 at u, 1 at v of ``edges[e] = (u, v, eta)``) on the
BEFORE (0) or AFTER (1) side, that is, in the corner from the previous edge
of the endpoint's rotation to e, or from e to the next one.  The other end
of the same strand is ``end ^ 2``, the other end of the same corner is
``corner[end]``, and counterclockwise around crossing e the ends are
``4*e + 2``, ``4*e + 1``, ``4*e``, ``4*e + 3``.
"""

from dataclasses import dataclass, field

from .errors import DiagramError
from .knotio import PDCode


@dataclass
class PlanarGraph:
    """Connected multigraph with a rotation system; loops are rejected
    (a loop edge is a nugatory crossing).

    ``edges[k] = (u, v, eta)`` with u, v in ``0..vertex_count-1``;
    ``rotations[w]`` lists the incident edge ids counterclockwise around w
    (parallel edges appear once per copy).
    """

    vertex_count: int
    edges: list
    rotations: dict = field(default_factory=dict)

    def validate(self):
        count = self.vertex_count
        listed = [set(self.rotations.get(w, ())) for w in range(count)]
        incident = [[] for _ in range(count)]
        for k, (u, v, eta) in enumerate(self.edges):
            if u == v:
                raise DiagramError(f"edge {k} is a loop; loops are nugatory")
            if eta not in (1, -1):
                raise DiagramError(f"edge {k} has sign {eta}, expected +-1")
            for w in (u, v):
                if not 0 <= w < count:
                    raise DiagramError(f"edge {k} has endpoint {w} outside "
                                       f"vertices 0..{count - 1}")
                if k not in listed[w]:
                    raise DiagramError(f"edge {k} missing from rotation of vertex {w}")
                incident[w].append(k)
        for w in range(count):
            if sorted(self.rotations.get(w, ())) != incident[w]:
                raise DiagramError(f"rotation at vertex {w} does not list its "
                                   f"incident edges exactly once")
            if not incident[w] and self.edges:
                raise DiagramError(f"vertex {w} has no edges; the graph must "
                                   f"be connected")

    def goeritz_full(self):
        """G' predicted directly from the graph (vertex-indexed)."""
        m = self.vertex_count
        gfull = [[0] * m for _ in range(m)]
        for (u, v, eta) in self.edges:
            gfull[u][v] -= eta
            gfull[v][u] -= eta
        for i in range(m):
            gfull[i][i] = -sum(gfull[i][k] for k in range(m) if k != i)
        return gfull


def medial_pd(graph: PlanarGraph):
    """Build the PD code of the medial diagram of a signed planar graph.

    Returns ``(pd, region_corners)``: the corner at slot
    ``region_corners[w] = 4*e + s`` lies in the white region of vertex w,
    so ``faces(pd).slot_face[region_corners[w]]`` roots a coloring there.

    Raises DiagramError if the medial closes into more than one component.
    """
    graph.validate()
    edges = graph.edges
    n = len(edges)
    if n == 0:
        raise DiagramError("empty graph has no medial diagram")

    # the corner after rotations[w][i] joins that edge's AFTER end at w to
    # the BEFORE end of rotations[w][i+1] at w
    corner = [0] * (4 * n)
    for w in range(graph.vertex_count):
        befores = [4 * e + 2 * (edges[e][0] != w) for e in graph.rotations[w]]
        for prev, nxt in zip(befores, befores[1:] + befores[:1]):
            corner[prev + 1] = nxt
            corner[nxt] = prev + 1

    # Walk the knot from edge 0's AFTER end at u, alternating strand hops
    # (end ^ 2) and corner hops.  Both are involutions, so the walk closes;
    # arc k runs from the k-th exit to the next entry and is labelled k,
    # except that the arc entering the first crossing is the last, 2n.
    label = [0] * (4 * n)
    incoming = [False] * (4 * n)
    end = start = 1  # 4*0 + 2*0 + AFTER
    k = 0
    while True:
        incoming[end] = True
        label[end] = k or 2 * n
        k += 1
        label[end ^ 2] = k
        end = corner[end ^ 2]
        if end == start:
            break
    if k != 2 * n:
        raise DiagramError("medial diagram has more than one component")

    # Quadrant geometry per crossing: the PD code starts at the incoming
    # under-end, at position a of the counterclockwise ends (v,BEFORE),
    # (u,AFTER), (u,BEFORE), (v,AFTER); eta = +1 puts the BEFORE-BEFORE
    # strand underneath.  Region u's corner then sits at slot (1 - a) % 4
    # and region v's at (3 - a) % 4.
    crossings = []
    region_corners = {}
    for e, (u, v, eta) in enumerate(edges):
        base = 4 * e
        if eta == 1:
            a = 0 if incoming[base + 2] else 2
        else:
            a = 1 if incoming[base + 1] else 3
        ccw = (label[base + 2], label[base + 1], label[base], label[base + 3])
        crossings.append(ccw[a:] + ccw[:a])
        region_corners.setdefault(u, base + (1 - a) % 4)
        region_corners.setdefault(v, base + (3 - a) % 4)

    pd = PDCode(tuple(crossings))
    return pd, region_corners


def fan_graph(apex_counts, path_counts, eta=1):
    """Twist-chain graph: a path of regions R1..Rk under an apex R0.

    ``apex_counts[i]`` parallel edges join R0 to R_{i+1} and
    ``path_counts[i]`` parallel edges join R_{i+1} to R_{i+2}; every edge
    carries the same sign, so the medial diagram is alternating.  These
    fans are the white graphs of twist-region chains (rational tangle
    closures), which is enough to realize any cyclic linking form met in
    practice.
    """
    if len(path_counts) != len(apex_counts) - 1:
        raise ValueError("need one path gap fewer than apex vertices")
    if any(c < 0 for c in apex_counts) or any(c < 1 for c in path_counts):
        raise ValueError("apex counts must be >= 0 and path counts >= 1")
    if sum(apex_counts) == 0:
        raise ValueError("apex must meet the path somewhere")
    k = len(apex_counts)
    edges = []
    apex_ids, path_ids = [], []
    for i, c in enumerate(apex_counts):
        ids = [len(edges) + j for j in range(c)]
        edges += [(0, i + 1, eta)] * c
        apex_ids.append(ids)
    for i, c in enumerate(path_counts):
        ids = [len(edges) + j for j in range(c)]
        edges += [(i + 1, i + 2, eta)] * c
        path_ids.append(ids)
    # apex sees the path vertices left to right; a path vertex sees its
    # west neighbors, east neighbors, then the apex copies, with parallel
    # groups reversed at their far ends so each pair bounds a bigon
    rotations = {0: [e for ids in apex_ids for e in ids]}
    for i in range(1, k + 1):
        rot = []
        if i >= 2:
            rot += list(reversed(path_ids[i - 2]))
        if i <= k - 1:
            rot += path_ids[i - 1]
        rot += list(reversed(apex_ids[i - 1]))
        rotations[i] = rot
    return PlanarGraph(vertex_count=k + 1, edges=edges, rotations=rotations)
