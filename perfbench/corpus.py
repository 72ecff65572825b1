"""Generated knot diagrams for the two synthetic workloads.

Every diagram is the medial of a signed planar graph made of twist-chain
fans (``gamma4.medial.fan_graph``), alone or joined at the apex.  A corpus
is a fixed list of slots.  Each slot draws its structure (twist counts and
crossing signs) from a random stream of its own, and keeps drawing until
the graph has no bridge or loop (a nugatory crossing) and ``medial_pd``
closes it into a single component; nothing else, and in particular no
measured runtime, decides what a slot holds.

The time of one operation follows the arithmetic of |H1| (an exhausted
search against an early witness, a prime of even exponent, the size of the
unit group) and the pivot sequence of exact elimination more than the size
of the diagram, and a few inputs carry most of a pass.  Were the structure
drawn from the seed, the spread across seeds would be that of a handful of
lottery tickets; even reading a chain from its other end moves the time of
an input by a third.  So the seed draws only what leaves the work
unchanged: for each slot the mirror image (every crossing sign flipped,
which negates G, the signature and the linking form) and, on large-orders,
the sign of the ingested definiteness.
"""

import hashlib
import random
from dataclasses import dataclass

from gamma4.errors import DiagramError
from gamma4.knotio import KnotRecord, parse_pd, render_pd
from gamma4.medial import PlanarGraph, fan_graph, medial_pd

LARGE_DIAGRAM_SLOTS = 40
LARGE_ORDER_SLOTS = 36
LARGE_DIAGRAM_DIMS = (6, 16)
DEFINITENESS_MAX_ORDER = 10 ** 5
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Fan:
    """Twist counts of a fan and one sign per edge, in ``fan_graph``'s
    edge order (apex groups first, then path groups)."""

    apex: tuple
    path: tuple
    signs: tuple

    def graph(self):
        g = fan_graph(self.apex, self.path)
        edges = [(u, v, eta) for (u, v, _one), eta in zip(g.edges, self.signs)]
        return PlanarGraph(g.vertex_count, edges, g.rotations)

    def mirrored(self):
        return Fan(self.apex, self.path, tuple(-s for s in self.signs))

    def order(self):
        """|H1| from the graph alone: |det| of the tridiagonal Goeritz
        matrix whose weights are the signed twist-group totals."""
        nets, pos = [], 0
        for c in self.apex + self.path:
            nets.append(sum(self.signs[pos:pos + c]))
            pos += c
        k = len(self.apex)
        return abs(fan_order(nets[:k], nets[k:])[0])


@dataclass
class Diagram:
    """One generated input and the record the program receives."""

    fans: tuple
    pd_text: str
    record: KnotRecord


def has_bridge_or_loop(graph):
    """True when some edge is a loop or its removal disconnects the graph."""
    edges = graph.edges
    if any(u == v for u, v, _eta in edges):
        return True
    incident = {w: [] for w in range(graph.vertex_count)}
    for k, (u, v, _eta) in enumerate(edges):
        incident[u].append((k, v))
        incident[v].append((k, u))
    for skip, (u0, v0, _eta) in enumerate(edges):
        seen, stack = {u0}, [u0]
        while stack and v0 not in seen:
            for k, x in incident[stack.pop()]:
                if k != skip and x not in seen:
                    seen.add(x)
                    stack.append(x)
        if v0 not in seen:
            return True
    return False


def one_point_union(a, b):
    """Join two graphs at vertex 0, b's edges after a's in the rotation
    there: the medial is the connected sum of the two medials."""
    shift = a.vertex_count - 1
    offset = len(a.edges)
    edges = list(a.edges) + [(u + shift if u else 0, v + shift if v else 0, eta)
                             for u, v, eta in b.edges]
    rotations = dict(a.rotations)
    rotations[0] = list(a.rotations[0]) + [e + offset for e in b.rotations[0]]
    for w in range(1, b.vertex_count):
        rotations[w + shift] = [e + offset for e in b.rotations[w]]
    return PlanarGraph(a.vertex_count + b.vertex_count - 1, edges, rotations)


def union_graph(fans):
    graph = fans[0].graph()
    for fan in fans[1:]:
        graph = one_point_union(graph, fan.graph())
    return graph


def knot_pd(fans):
    """PD code of the medial, or None for a link or a nugatory crossing."""
    graph = union_graph(fans)
    try:
        pd, _regions = medial_pd(graph)
    except DiagramError:
        return None  # a link (medial_pd also refuses loops)
    return None if has_bridge_or_loop(graph) else pd


def _draw_slot(key, draw):
    stream = random.Random(key)
    for _ in range(MAX_DRAWS):
        fans = draw(stream)
        if knot_pd(fans) is not None:
            return fans
    raise RuntimeError(f"slot {key}: no knot diagram in {MAX_DRAWS} draws")


def _present(rng, fans):
    """The slot's diagram or its mirror image, as the seed draws; returns
    the fans and the rendered PD code."""
    if rng.random() < 0.5:
        fans = tuple(f.mirrored() for f in fans)
    return fans, render_pd(knot_pd(fans))


def _mixed_fan(rng, k):
    """k path regions, 1..2 crossings to the apex, single crossings along
    the path, every crossing sign drawn at random."""
    apex = tuple(rng.randint(1, 2) for _ in range(k))
    path = (1,) * (k - 1)
    return Fan(apex, path, tuple(rng.choice((1, -1)) for _ in range(sum(apex + path))))


def large_diagrams(seed):
    """Non-alternating diagrams: Goeritz dimension 6..16 over the slots,
    twist counts 1..2 at the apex and single crossings along the path (so
    |H1| stays small and the linking form carries the work), every crossing
    sign drawn at random; every third slot is a connected sum of two
    fans."""
    rng = random.Random(f"large-diagrams:{seed}")
    out = []
    for slot in range(LARGE_DIAGRAM_SLOTS):
        low, high = LARGE_DIAGRAM_DIMS
        dim = low + round((high - low) * slot / (LARGE_DIAGRAM_SLOTS - 1))

        def draw(s, dim=dim, summed=slot % 3 == 2):
            if summed:
                left = s.randint(3, dim - 3)
                return (_mixed_fan(s, left), _mixed_fan(s, dim - left))
            return (_mixed_fan(s, dim),)

        fans, text = _present(rng, _draw_slot(f"large-diagrams:slot{slot}", draw))
        out.append(Diagram(fans, text, KnotRecord(
            name=f"ld{slot}", crossings=text.count("X["), pd=parse_pd(text))))
    return out


def fan_order(apex, path):
    """det of a fan's Goeritz matrix from its twist-group weights, by the
    tridiagonal continuant; returns (det, det of the leading block)."""
    prev, cur = 0, 1
    for i, a in enumerate(apex):
        left = path[i - 1] if i else 0
        right = path[i] if i < len(path) else 0
        prev, cur = cur, (a + left + right) * cur - left * left * prev
    return cur, prev


def _fan_near(rng, k, c, target):
    """Alternating fan with k path regions and twist counts from c-1..c+1,
    except the last apex count, which is solved so that |H1| lands near
    ``target`` (the continuant is affine in it)."""
    counts = (max(1, c - 1), c + 1)
    apex = [rng.randint(*counts) for _ in range(k - 1)] + [0]
    path = tuple(rng.randint(*counts) for _ in range(k - 1))
    base, lead = fan_order(apex, path)
    apex[-1] = max(1, round((target - base) / lead))
    return Fan(tuple(apex), path, (1,) * (sum(apex) + sum(path)))


def large_orders(seed):
    """Alternating twist chains with 3..7 white regions whose |H1| (cyclic
    for most) is placed log-uniformly over the slots from 1e2 to 1e6.  Every
    third slot up to |H1| = 1e5 carries an ingested definiteness of +-1
    (9 of 36; the bundled ratio is 7 in 21)."""
    rng = random.Random(f"large-orders:{seed}")
    out = []
    for slot in range(LARGE_ORDER_SLOTS):
        target = 10 ** (2 + 4 * slot / (LARGE_ORDER_SLOTS - 1))
        k = 2 + (5 * slot) // LARGE_ORDER_SLOTS
        c = 1
        while fan_order([c + 1] * k, [c + 1] * (k - 1))[0] <= target:
            c += 1

        def draw(s, k=k, c=c, target=target):
            return (_fan_near(s, k, c, target),)

        fans, text = _present(rng, _draw_slot(f"large-orders:slot{slot}", draw))
        carries = slot % 3 == 0 and target <= DEFINITENESS_MAX_ORDER
        definiteness = rng.choice((1, -1)) if carries else None
        out.append(Diagram(fans, text, KnotRecord(
            name=f"lo{slot}", crossings=text.count("X["), pd=parse_pd(text),
            definiteness=definiteness)))
    return out


def digest(corpus):
    """sha256 over the rendered PD codes and ingested definiteness."""
    h = hashlib.sha256()
    for d in corpus:
        h.update(f"{d.record.name} {d.pd_text} {d.record.definiteness}\n".encode())
    return h.hexdigest()
