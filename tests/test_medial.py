"""Medial construction: signed planar graph -> PD code round trips."""

import random

import pytest

from gamma4.errors import DiagramError
from gamma4.exactalg import det
from gamma4.knotio import validate_pd
from gamma4.medial import (PlanarGraph, conjugate_by_permutation_sign,
                           fan_graph, medial_pd)
from gamma4.planar import faces, goeritz


def roundtrip(graph):
    pd, regions = medial_pd(graph)
    validate_pd(pd)
    outer = faces(pd).slot_face[regions[0]]
    gd = goeritz(pd, outer=outer)
    match = conjugate_by_permutation_sign(gd.gfull, graph.goeritz_full(),
                                          fix_first=True)
    assert match is not None, "Goeritz matrix does not match the input graph"
    return pd, gd, match


def test_three_parallel_edges_is_the_trefoil():
    g = PlanarGraph(vertex_count=2, edges=[(0, 1, 1)] * 3,
                    rotations={0: [0, 1, 2], 1: [2, 1, 0]})
    pd, gd, match = roundtrip(g)
    assert len(pd) == 3
    assert abs(det(gd.g)) == 3
    assert match[1] == 1  # exact sign, not just up to mirror


def test_fan_round_trips():
    rng = random.Random(9)
    tried = 0
    while tried < 40:
        k = rng.randint(1, 3)
        apex = tuple(rng.randint(0, 3) for _ in range(k))
        path = tuple(rng.randint(1, 3) for _ in range(k - 1))
        if sum(apex) == 0:
            continue
        eta = rng.choice([1, -1])
        graph = fan_graph(apex, path, eta)
        try:
            pd, gd, _match = roundtrip(graph)
        except DiagramError:
            continue  # even-determinant fans close into links
        assert len(pd) == len(graph.edges)
        assert abs(det(gd.g)) % 2 == 1  # single component forces odd det
        tried += 1


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


def test_permutation_sign_matcher():
    a = [[1, 2], [2, 5]]
    b = [[5, 2], [2, 1]]
    perm, sign = conjugate_by_permutation_sign(a, b)
    assert perm == [1, 0] and sign == 1
    neg = [[-1, -2], [-2, -5]]
    perm, sign = conjugate_by_permutation_sign(a, neg)
    assert sign == -1
    assert conjugate_by_permutation_sign(a, [[1, 0], [0, 5]]) is None
    assert conjugate_by_permutation_sign(a, b, fix_first=True) is None


@pytest.mark.parametrize("rotations", [
    {0: [0, 1, 2], 1: [2, 1, 0]}, {0: [0, 1, 2], 1: [2, 1, 0], 2: []}])
def test_vertex_without_edges_is_a_diagram_error(rotations):
    # the medial of the other two vertices is a trefoil, which would hide
    # the missing region
    graph = PlanarGraph(3, [(0, 1, 1)] * 3, rotations)
    with pytest.raises(DiagramError, match=r"^vertex 2 has no edges"):
        medial_pd(graph)
