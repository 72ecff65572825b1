"""The dict-based medial construction that ``medial``'s integer ends
replaced.

Crossing ends are ``(edge, vertex, side)`` tuples, corners are keyed
``(vertex, position)`` in two dicts, the knot walk goes through two
closures, and each crossing's quadrant is found with ``list.index``.
``validate`` tests list membership and rebuilds every vertex's incident
list from all the edges.  Kept as the reference the tests hold the new
construction to: the same ``(pd, region_quadrants)``, or the same
exception class and message.
"""

from gamma4.errors import DiagramError
from gamma4.knotio import PDCode

BEFORE = 0  # corner (prev edge, e) at an endpoint
AFTER = 1   # corner (e, next edge)


def validate(graph):
    seen = {w: list(graph.rotations.get(w, ())) for w in range(graph.vertex_count)}
    for k, (u, v, eta) in enumerate(graph.edges):
        if u == v:
            raise DiagramError(f"edge {k} is a loop; loops are nugatory")
        if eta not in (1, -1):
            raise DiagramError(f"edge {k} has sign {eta}, expected +-1")
        for w in (u, v):
            if k not in seen[w]:
                raise DiagramError(f"edge {k} missing from rotation of vertex {w}")
    for w, rot in seen.items():
        incident = [k for k, (u, v, _s) in enumerate(graph.edges) if w in (u, v)]
        if sorted(rot) != sorted(incident):
            raise DiagramError(f"rotation at vertex {w} does not list its "
                               f"incident edges exactly once")


def medial_pd(graph):
    """``(pd, region_quadrants)`` of the medial diagram of ``graph``."""
    validate(graph)
    n = len(graph.edges)
    if n == 0:
        raise DiagramError("empty graph has no medial diagram")

    # corner (w, i) sits between rotations[w][i] and rotations[w][i+1];
    # it joins crossing rotations[w][i] (AFTER end) to rotations[w][i+1]
    # (BEFORE end).  Crossing ends are keyed (edge, vertex, BEFORE|AFTER).
    corner_of_end = {}
    ends_of_corner = {}
    for w in range(graph.vertex_count):
        rot = graph.rotations[w]
        deg = len(rot)
        for i in range(deg):
            e_after = rot[i]
            e_before = rot[(i + 1) % deg]
            corner = (w, i)
            ends_of_corner[corner] = ((e_after, w, AFTER), (e_before, w, BEFORE))
            corner_of_end[(e_after, w, AFTER)] = corner
            corner_of_end[(e_before, w, BEFORE)] = corner

    def strand_partner(end):
        # both strands of crossing e run between the two endpoint regions:
        # u-AFTER <-> v-AFTER and u-BEFORE <-> v-BEFORE
        e, w, side = end
        u, v, _eta = graph.edges[e]
        return (e, v if w == u else u, side)

    def corner_partner(end):
        corner = corner_of_end[end]
        first, second = ends_of_corner[corner]
        return second if first == end else first

    # Walk the knot: alternate crossing hops and corner (arc) hops.
    start = (0, graph.edges[0][0], AFTER)
    walk_ends = []
    end = start
    while True:
        walk_ends.append(end)             # entering the crossing here
        exit_end = strand_partner(end)
        walk_ends.append(exit_end)        # leaving the crossing here
        end = corner_partner(exit_end)
        if end == start:
            break
        if len(walk_ends) > 4 * n:
            raise DiagramError("medial walk failed to close")
    if len(walk_ends) != 4 * n:
        raise DiagramError("medial diagram has more than one component")

    # Arc labels: arc k runs from walk_ends[2k+1] (exit) to walk_ends[2k+2]
    # (next entry); the arc entering the very first crossing is the last.
    arc_count = 2 * n
    label_at_end = {}
    for k in range(arc_count):
        label = k + 1
        exit_end = walk_ends[2 * k + 1]
        entry_end = walk_ends[(2 * k + 2) % (4 * n)]
        label_at_end[exit_end] = label
        label_at_end[entry_end] = label
    incoming = {walk_ends[2 * k]: True for k in range(arc_count)}

    # Quadrant geometry per crossing, with the under-strand chosen by eta:
    # counterclockwise end order is (v,BEFORE), (u,AFTER), (u,BEFORE),
    # (v,AFTER); eta = +1 puts the BEFORE-BEFORE strand underneath.
    crossings = []
    region_quadrants = {}
    for e, (u, v, eta) in enumerate(graph.edges):
        ccw = [(e, v, BEFORE), (e, u, AFTER), (e, u, BEFORE), (e, v, AFTER)]
        under_side = BEFORE if eta == 1 else AFTER
        under_ends = [x for x in ccw if x[2] == under_side]
        a_end = next(x for x in under_ends if incoming.get(x))
        a_pos = ccw.index(a_end)
        quad = [ccw[(a_pos + off) % 4] for off in range(4)]
        crossings.append(tuple(label_at_end[x] for x in quad))
        # the quadrant between the two w-side ends lies inside region w;
        # they are cyclically adjacent, so locate the slot pair (s, s+1)
        for w in (u, v):
            slots = sorted((quad.index((e, w, BEFORE)), quad.index((e, w, AFTER))))
            s = slots[0] if slots == [slots[0], slots[0] + 1] else 3
            region_quadrants.setdefault(w, (e, s))

    pd = PDCode(tuple(crossings))
    return pd, region_quadrants
