"""Faces, checkerboard colorings, Goeritz matrices, signatures."""

import pytest

from conftest import TREFOIL_PD, anchor_knots, connect_sum, mirror, torus2
from gamma4.errors import DiagramError
from gamma4.exactalg import det, is_symmetric
from gamma4.knotio import parse_pd
from gamma4.planar import (WHITE, checkerboard, default_outer_face, faces,
                           goeritz, signature_via_goeritz)

TREFOIL = parse_pd(TREFOIL_PD)


# faces ----------------------------------------------------------------------


def test_trefoil_face_count():
    fs = faces(TREFOIL)
    assert len(fs.faces) == 5


def test_eleven_crossing_face_count(dataset_by_name):
    pd = dataset_by_name["11n155"].pd
    assert len(faces(pd).faces) == 13


def test_each_edge_borders_two_faces():
    for pd in (TREFOIL, torus2(7), mirror(torus2(5))):
        fs = faces(pd)
        seen = {}
        for face in fs.faces:
            for edge in face:
                seen[edge] = seen.get(edge, 0) + 1
        assert all(v == 2 for v in seen.values())
        assert len(seen) == pd.edge_count


def test_faces_reject_crossingless_diagram():
    with pytest.raises(DiagramError):
        faces(parse_pd("PD[]"))


def test_faces_reject_nonplanar_code():
    # passes all label checks but only closes up on a genus-1 surface
    pd = parse_pd("PD[X[3,2,4,1], X[2,5,3,6], X[6,5,1,4]]")
    with pytest.raises(DiagramError) as err:
        faces(pd)
    assert "not planar" in str(err.value)


def test_face_counts_across_dataset(dataset):
    for rec in dataset:
        if rec.pd is not None:
            assert len(faces(rec.pd).faces) == len(rec.pd) + 2


# checkerboard ----------------------------------------------------------------


def test_coloring_is_proper_and_outer_is_white():
    fs = faces(TREFOIL)
    col = checkerboard(TREFOIL, fs)
    assert col.colors[col.outer_face] == WHITE
    edge_faces = {}
    for k, face in enumerate(fs.faces):
        for edge in face:
            edge_faces.setdefault(edge, []).append(k)
    for f1, f2 in edge_faces.values():
        assert col.colors[f1] != col.colors[f2]


def test_both_color_classes_give_proper_colorings():
    # choosing an outer face of the opposite class swaps white and black
    fs = faces(TREFOIL)
    sizes = set()
    for outer in range(len(fs.faces)):
        col = checkerboard(TREFOIL, fs, outer=outer)
        sizes.add(col.white_count)
    assert sizes == {2, 3}


def test_nugatory_crossing_rejected_with_index():
    kink = parse_pd("PD[X[1,1,2,2]]")
    fs = faces(kink)
    with pytest.raises(DiagramError) as err:
        checkerboard(kink, fs)
    assert "crossing 0" in str(err.value)


@pytest.mark.parametrize("kink", ["PD[X[1,2,2,1]]", "PD[X[1,1,2,2]]"])
def test_one_crossing_kinks_are_unknots(kink):
    # the default outer face makes the crossing nugatory; the coloring
    # rooted at a face of the other color does not
    gd = goeritz(parse_pd(kink))
    assert abs(det(gd.g)) == 1
    assert signature_via_goeritz(gd) == 0


def test_kink_summand_leaves_the_trefoil_unchanged():
    gd = goeritz(connect_sum(torus2(3), parse_pd("PD[X[1,1,2,2]]")))
    assert abs(det(gd.g)) == 3
    assert signature_via_goeritz(gd) == -2


def test_explicit_outer_face_keeps_rejecting_nugatory_crossings():
    kink = parse_pd("PD[X[1,1,2,2]]")
    with pytest.raises(DiagramError):
        goeritz(kink, outer=default_outer_face(faces(kink)))


def test_default_outer_face_is_deterministic():
    fs = faces(TREFOIL)
    assert default_outer_face(fs) == default_outer_face(faces(TREFOIL))


# Goeritz ---------------------------------------------------------------------


def test_unknot_goeritz_short_circuit():
    gd = goeritz(parse_pd("PD[]"))
    assert gd.g == [] and gd.mu == 0
    assert det(gd.g) == 1
    assert signature_via_goeritz(gd) == 0


def test_goeritz_structural_invariants():
    for pd in (TREFOIL, torus2(5), torus2(9), connect_sum(TREFOIL, TREFOIL)):
        fs = faces(pd)
        for outer in range(len(fs.faces)):
            gd = goeritz(pd, outer=outer)
            assert is_symmetric(gd.gfull)
            assert all(sum(row) == 0 for row in gd.gfull)
            assert is_symmetric(gd.g)


def test_trefoil_goeritz_matrices():
    dets = set()
    for outer in range(5):
        gd = goeritz(TREFOIL, outer=outer)
        dets.add(abs(det(gd.g)))
        assert len(gd.g) in (1, 2)
    assert dets == {3}


def test_goeritz_determinant_matches_ingested(dataset):
    for rec in dataset:
        if rec.pd is not None and rec.determinant is not None:
            gd = goeritz(rec.pd)
            assert abs(det(gd.g)) == rec.determinant, rec.name


def test_signature_anchors_all_outer_faces():
    """Pins the eta/type convention: table signatures of torus knots,
    mirrors and connected sums, for every choice of unbounded face."""
    for name, pd, sigma, expected_det in anchor_knots():
        fs = faces(pd)
        for outer in range(len(fs.faces)):
            gd = goeritz(pd, outer=outer)
            assert signature_via_goeritz(gd) == sigma, (name, outer)
            assert abs(det(gd.g)) == expected_det, (name, outer)


def test_signature_is_coloring_invariant_on_dataset(dataset):
    for rec in dataset:
        if rec.pd is None:
            continue
        fs = faces(rec.pd)
        sigs = {signature_via_goeritz(goeritz(rec.pd, outer=outer))
                for outer in range(len(fs.faces))}
        assert len(sigs) == 1, rec.name


def test_signature_matches_ingested_sigma(dataset):
    for rec in dataset:
        if rec.pd is not None and rec.signature is not None:
            assert signature_via_goeritz(goeritz(rec.pd)) == rec.signature, rec.name


def test_random_pd_codes_never_crash():
    """Fuzz the full stack: random label structures either classify as
    valid diagrams or raise the package's own error types, never anything
    else."""
    import random

    from gamma4.errors import Gamma4Error
    from gamma4.exactalg import det
    from gamma4.knotio import PDCode, validate_pd

    rng = random.Random(271828)
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        E = 2 * n
        pool = list(range(1, E + 1))
        rng.shuffle(pool)
        crossings = []
        while pool:
            a = pool.pop()
            o = pool.pop(rng.randrange(len(pool))) if len(pool) > 1 else pool.pop()
            if rng.random() < 0.5:
                b, d = o, o % E + 1
            else:
                d, b = o, o % E + 1
            crossings.append((a, b, a % E + 1, d))
        pd = PDCode(tuple(crossings))
        try:
            validate_pd(pd)
            gd = goeritz(pd)
            assert abs(det(gd.g)) % 2 == 1  # knots have odd determinant
            signature_via_goeritz(gd)
            outcomes["ok"] += 1
        except Gamma4Error:
            outcomes["rejected"] += 1
    assert outcomes["ok"] > 0 and outcomes["rejected"] > 0


def test_global_eta_flip_negates_gfull_and_preserves_verdicts(monkeypatch, dataset_by_name):
    from gamma4 import planar
    from gamma4.linkform import linking_form, mobius_obstruction_cyclic

    pd = dataset_by_name["11n155"].pd
    gd_plus = goeritz(pd)
    verdict_plus = mobius_obstruction_cyclic(linking_form(gd_plus))
    monkeypatch.setattr(planar, "ETA_SIGN", -1)
    gd_minus = goeritz(pd)
    assert gd_minus.gfull == [[-x for x in row] for row in gd_plus.gfull]
    assert gd_minus.mu == -gd_plus.mu
    verdict_minus = mobius_obstruction_cyclic(linking_form(gd_minus))
    # the linking form is only defined up to sign, so verdicts agree
    assert verdict_minus.result == verdict_plus.result
