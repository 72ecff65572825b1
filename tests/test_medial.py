"""Medial construction: signed planar graph -> PD code round trips."""

import random

import pytest

from gamma4.errors import DiagramError
from gamma4.exactalg import det
from gamma4.medial import PlanarGraph, fan_graph, medial_pd
from gamma4.planar import checkerboard, faces, goeritz


def roundtrip(graph):
    """The medial's G', its rows and columns read through the region map
    (vertex w is white region r[w]), is the graph's G' exactly: a mirrored
    diagram, which negates every entry, does not pass.  ``medial_pd``
    builds a :class:`PDCode`, so its output has passed the code's checks."""
    pd, regions = medial_pd(graph)
    fs = faces(pd)
    outer = fs.slot_face[regions[0]]
    gd = goeritz(pd, outer=outer)
    white = checkerboard(pd, fs, outer).white_faces
    r = [white.index(fs.slot_face[regions[w]])
         for w in range(graph.vertex_count)]
    assert sorted(r) == list(range(len(gd.gfull)))
    assert [[gd.gfull[i][j] for j in r] for i in r] == graph.goeritz_full()
    return pd, gd


def test_three_parallel_edges_is_the_trefoil():
    g = PlanarGraph(vertex_count=2, edges=[(0, 1, 1)] * 3,
                    rotations={0: [0, 1, 2], 1: [2, 1, 0]})
    pd, gd = roundtrip(g)
    assert len(pd) == 3
    assert abs(det(gd.g)) == 3


def test_fan_round_trips():
    """A sign drawn for every edge of a fan's rotations: the medials are
    mostly non-alternating, like 11n155's wheel."""
    rng = random.Random(9)
    checked = 0
    for _ in range(400):
        k = rng.randint(1, 3)
        apex = tuple(rng.randint(0, 3) for _ in range(k))
        path = tuple(rng.randint(1, 3) for _ in range(k - 1))
        if sum(apex) == 0:
            continue
        fan = fan_graph(apex, path)
        edges = [(u, v, rng.choice((1, -1))) for u, v, _eta in fan.edges]
        graph = PlanarGraph(fan.vertex_count, edges, fan.rotations)
        try:
            pd, gd = roundtrip(graph)
        except DiagramError:
            continue  # even-determinant fans close into links
        assert len(pd) == len(graph.edges)
        assert abs(det(gd.g)) % 2 == 1  # single component forces odd det
        checked += 1
    assert checked >= 150  # 196 knots; a change that skips every draw fails


def test_single_component_check():
    # two parallel edges close into a 2-component link (Hopf-like)
    g = PlanarGraph(vertex_count=2, edges=[(0, 1, 1)] * 2,
                    rotations={0: [0, 1], 1: [1, 0]})
    with pytest.raises(DiagramError):
        medial_pd(g)


def test_loops_rejected():
    g = PlanarGraph(vertex_count=1, edges=[(0, 0, 1)], rotations={0: [0, 0]})
    with pytest.raises(DiagramError):
        medial_pd(g)


def test_rotation_validation():
    g = PlanarGraph(vertex_count=2, edges=[(0, 1, 1)], rotations={0: [0], 1: []})
    with pytest.raises(DiagramError):
        medial_pd(g)


@pytest.mark.parametrize("edge, vertex", [((0, 2, 1), 2), ((-1, 1, 1), -1),
                                          ((1, 5, -1), 5)])
def test_endpoint_out_of_range_is_a_diagram_error(edge, vertex):
    # checked before any list is indexed, so -1 cannot wrap to the last vertex
    graph = PlanarGraph(2, [edge], {0: [0], 1: [0]})
    with pytest.raises(DiagramError,
                       match=fr"^edge 0 has endpoint {vertex} outside vertices 0\.\.1$"):
        medial_pd(graph)


def test_fan_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fan_graph((1, 1), ())
    with pytest.raises(ValueError):
        fan_graph((0,), ())
    with pytest.raises(ValueError):
        fan_graph((1, 1), (0,))


@pytest.mark.parametrize("rotations", [
    {0: [0, 1, 2], 1: [2, 1, 0]}, {0: [0, 1, 2], 1: [2, 1, 0], 2: []}])
def test_vertex_without_edges_is_a_diagram_error(rotations):
    # the medial of the other two vertices is a trefoil, which would hide
    # the missing region
    graph = PlanarGraph(3, [(0, 1, 1)] * 3, rotations)
    with pytest.raises(DiagramError, match=r"^vertex 2 has no edges"):
        medial_pd(graph)
