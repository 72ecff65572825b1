"""Faces, checkerboard colorings, Goeritz matrices, signatures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planar_reference
from conftest import (TREFOIL_PD, anchor_knots, connect_sum, face_edges, mirror,
                      mixed_fan_pd, strand_structure, torus2)
from gamma4 import planar
from gamma4.errors import DiagramError, Gamma4Error
from gamma4.exactalg import det, is_symmetric
from gamma4.knotio import PDCode, parse_pd, render_pd
from gamma4.linkform import linking_form, square_class
from gamma4.planar import (WHITE, checkerboard, default_outer_face, faces,
                           goeritz, signature_via_goeritz)

TREFOIL = parse_pd(TREFOIL_PD)


# faces ----------------------------------------------------------------------


def test_trefoil_face_count():
    fs = faces(TREFOIL)
    assert len(fs.walks) == 5


def test_eleven_crossing_face_count(dataset_by_name):
    pd = dataset_by_name["11n155"].pd
    assert len(faces(pd).walks) == 13


def test_each_edge_borders_two_faces():
    for pd in (TREFOIL, torus2(7), mirror(torus2(5))):
        seen = {}
        for face in face_edges(pd, faces(pd)):
            for edge in face:
                seen[edge] = seen.get(edge, 0) + 1
        assert all(v == 2 for v in seen.values())
        assert len(seen) == 2 * len(pd)


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
            assert len(faces(rec.pd).walks) == len(rec.pd) + 2


# checkerboard ----------------------------------------------------------------


def test_coloring_is_proper_and_outer_is_white():
    fs = faces(TREFOIL)
    col = checkerboard(TREFOIL, fs)
    assert col.colors[col.outer_face] == WHITE
    edge_faces = {}
    for k, face in enumerate(face_edges(TREFOIL, fs)):
        for edge in face:
            edge_faces.setdefault(edge, []).append(k)
    for f1, f2 in edge_faces.values():
        assert col.colors[f1] != col.colors[f2]


def test_both_color_classes_give_proper_colorings():
    # choosing an outer face of the opposite class swaps white and black
    fs = faces(TREFOIL)
    sizes = set()
    for outer in range(len(fs.walks)):
        col = checkerboard(TREFOIL, fs, outer=outer)
        sizes.add(col.white_count)
    assert sizes == {2, 3}


def test_nugatory_crossing_accepted_at_every_outer_face():
    kink = parse_pd("PD[X[1,1,2,2]]")
    fs = faces(kink)
    seen = set()
    for outer in range(len(fs.walks)):
        col = checkerboard(kink, fs, outer=outer)
        (i, j), = col.crossing_white
        seen.add((i == j, col.types[0]))
    # the nugatory coloring joins a region to itself, as a type I crossing
    assert seen == {(True, 1), (False, 2)}


def test_kinks_of_both_kinds_are_accepted():
    # each coloring makes one of the two kinks nugatory
    pd = connect_sum(parse_pd("PD[X[1,1,2,2]]"), parse_pd("PD[X[1,2,2,1]]"))
    fs = faces(pd)
    for outer in [None, *range(len(fs.walks))]:
        col = checkerboard(pd, fs, outer=outer)
        assert any(i == j for i, j in col.crossing_white), outer
        gd = goeritz(pd, outer=outer)
        assert abs(det(gd.g)) == 1
        assert signature_via_goeritz(gd) == 0


@pytest.mark.parametrize("kink", ["PD[X[1,2,2,1]]", "PD[X[1,1,2,2]]"])
def test_one_crossing_kinks_are_unknots(kink):
    # one color class makes the crossing nugatory, the other does not
    pd = parse_pd(kink)
    for outer in [None, *range(3)]:
        gd = goeritz(pd, outer=outer)
        assert abs(det(gd.g)) == 1
        assert signature_via_goeritz(gd) == 0


def test_kink_summand_leaves_the_trefoil_unchanged():
    gd = goeritz(connect_sum(torus2(3), parse_pd("PD[X[1,1,2,2]]")))
    assert abs(det(gd.g)) == 3
    assert signature_via_goeritz(gd) == -2


def test_one_coloring_per_call(monkeypatch):
    """Without an outer face, checkerboard colors once, rooted white at
    the default face, even where that makes a crossing nugatory, and
    checkerboard and goeritz agree with the reference front end."""
    pd = connect_sum(torus2(3), parse_pd("PD[X[1,1,2,2]]"))
    fs = faces(pd)
    outers = []
    face_colors = planar._face_colors

    def counted(fs, outer):
        outers.append(outer)
        return face_colors(fs, outer)

    monkeypatch.setattr(planar, "_face_colors", counted)
    assert goeritz(pd) == planar_reference.goeritz(pd.crossings)
    assert outers == [default_outer_face(fs)]
    col = checkerboard(pd, fs)
    assert outers == [default_outer_face(fs)] * 2
    assert col.colors[default_outer_face(fs)] == WHITE
    assert any(i == j for i, j in col.crossing_white)
    assert col == planar_reference.checkerboard(
        pd.crossings, planar_reference.faces(pd.crossings))


def test_explicit_outer_face_accepts_nugatory_crossings():
    # the default face of this kink is its only white region
    kink = parse_pd("PD[X[1,1,2,2]]")
    fs = faces(kink)
    outer = default_outer_face(fs)
    assert checkerboard(kink, fs, outer=outer).crossing_white == ((0, 0),)
    assert goeritz(kink, outer=outer) == goeritz(kink) == planar.GoeritzData(
        gfull=[[0]], g=[], mu=0)


KINKS = (parse_pd("PD[X[1,1,2,2]]"), parse_pd("PD[X[1,2,2,1]]"))
SMALL_FANS = [mixed_fan_pd(dim, seed) for dim, seed in ((2, 0), (4, 1), (6, 3))]


def invariants(pd, outer=None):
    """|det|, signature, invariant factors and, on a cyclic H1, the
    square class of the linking form, from the coloring rooted at
    ``outer``."""
    gd = goeritz(pd, outer=outer)
    form = linking_form(gd)
    return (abs(det(gd.g)), signature_via_goeritz(gd),
            form.group.invariant_factors,
            square_class(form) if form.group.is_cyclic else None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kinks_change_nothing(dataset, data):
    """Reidemeister I: splicing 1..3 kinks of either kind into a bundled or
    fan diagram, at an edge chosen by shifting its labels, keeps every
    invariant at every root face, and each nugatory crossing is type I."""
    unkinked = data.draw(st.sampled_from(
        [rec.pd for rec in dataset if rec.pd is not None] + SMALL_FANS))
    pd = unkinked
    for _ in range(data.draw(st.integers(1, 3))):
        edges = 2 * len(pd)
        shift = data.draw(st.integers(0, edges - 1))
        pd = PDCode(tuple(tuple((x - 1 + shift) % edges + 1 for x in quad)
                          for quad in pd.crossings))
        pd = connect_sum(pd, data.draw(st.sampled_from(KINKS)))
    pd = parse_pd(render_pd(pd))
    want = invariants(unkinked)
    fs = faces(pd)
    for outer in range(len(fs.walks)):
        assert invariants(pd, outer) == want, outer
        col = checkerboard(pd, fs, outer=outer)
        assert all(kind == 1 for (i, j), kind
                   in zip(col.crossing_white, col.types) if i == j)


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
        for outer in range(len(fs.walks)):
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
        for outer in range(len(fs.walks)):
            gd = goeritz(pd, outer=outer)
            assert signature_via_goeritz(gd) == sigma, (name, outer)
            assert abs(det(gd.g)) == expected_det, (name, outer)


def test_signature_is_coloring_invariant_on_dataset(dataset):
    for rec in dataset:
        if rec.pd is None:
            continue
        fs = faces(rec.pd)
        sigs = {signature_via_goeritz(goeritz(rec.pd, outer=outer))
                for outer in range(len(fs.walks))}
        assert len(sigs) == 1, rec.name


def test_signature_matches_ingested_sigma(dataset):
    for rec in dataset:
        if rec.pd is not None and rec.signature is not None:
            assert signature_via_goeritz(goeritz(rec.pd)) == rec.signature, rec.name


def test_random_pd_codes_never_crash():
    """Fuzz the full stack: random label structures either classify as
    valid diagrams or raise the package's own error types, never anything
    else."""
    rng = random.Random(271828)
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(400):
        try:
            gd = goeritz(PDCode(strand_structure(rng, rng.randint(1, 6))))
            assert abs(det(gd.g)) % 2 == 1  # knots have odd determinant
            signature_via_goeritz(gd)
            outcomes["ok"] += 1
        except Gamma4Error:
            outcomes["rejected"] += 1
    assert outcomes["ok"] > 0 and outcomes["rejected"] > 0


def test_every_planar_code_colors_at_every_root():
    """``_face_colors`` checks nothing, because a code ``PDCode`` accepts
    that ``faces`` finds planar always 2-colors: across the edge at every
    corner q, the faces of q and of its neighbor differ in color, whatever
    face is the root."""
    rng = random.Random(1978)
    planar_codes = nonplanar_codes = 0
    for _ in range(20000):
        pd = PDCode(strand_structure(rng, rng.randint(1, 7)))
        try:
            fs = faces(pd)
        except DiagramError as exc:
            assert "not planar" in str(exc)
            nonplanar_codes += 1
            continue
        planar_codes += 1
        for outer in range(len(fs.walks)):
            colors = checkerboard(pd, fs, outer=outer).colors
            assert all(colors[fs.slot_face[q]]
                       != colors[fs.slot_face[q - 1 if q & 3 else q + 3]]
                       for q in range(4 * len(pd))), (pd, outer)
    assert planar_codes >= 6000 and nonplanar_codes >= 6000


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
