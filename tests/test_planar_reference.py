"""The slot-array front end (faces, checkerboard coloring, Goeritz matrix,
over-strand directions) against the dict-based one it replaced, kept in
``planar_reference``: equal faces, corners, colorings and Goeritz data,
with the reference's ``(crossing, slot)`` corners read as slots
``4*i + s``, and the same exception class on every error path of a valid
code.  The reference takes raw crossing tuples, so it also runs on codes
the ``PDCode`` constructor rejects."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planar_reference as ref
from conftest import connect_sum, face_edges, mixed_fan_pd, strand_structure
from gamma4 import planar
from gamma4.errors import DiagramError, PDSemanticError
from gamma4.knotio import PDCode, over_directions, parse_pd
from gamma4.medial import PlanarGraph, fan_graph, medial_pd


def outcome(fn, *args, **kwargs):
    """The value of a call, or the class of the exception it raised."""
    try:
        return "value", fn(*args, **kwargs)
    except Exception as exc:  # compared by class below
        return "raised", type(exc)


def assert_front_ends_agree(pd):
    """faces, checkerboard at the default and at every outer face, goeritz
    the same way, and over_directions: equal values or exception classes,
    the reference fed ``pd``'s raw crossings."""
    crossings = pd.crossings
    assert outcome(over_directions, pd) == outcome(ref.over_directions, crossings)
    got, want = outcome(planar.faces, pd), outcome(ref.faces, crossings)
    if want[0] == "raised":
        assert got == want
        return
    fs, fs_ref = got[1], want[1]
    ref_face = fs_ref.quadrant_face()
    assert face_edges(pd, fs) == fs_ref.faces
    assert fs.slot_face == tuple(ref_face[divmod(q, 4)]
                                 for q in range(4 * fs_ref.n))
    assert tuple(tuple(divmod(q, 4) for q in walk)
                 for walk in fs.walks) == fs_ref.corners
    assert planar.default_outer_face(fs) == ref.default_outer_face(fs_ref)
    for outer in [None, *range(len(fs_ref.faces))]:
        assert (outcome(planar.checkerboard, pd, fs, outer=outer)
                == outcome(ref.checkerboard, crossings, fs_ref, outer=outer)), outer
    for outer in [None, *range(len(fs_ref.faces))]:
        assert (outcome(planar.goeritz, pd, outer=outer)
                == outcome(ref.goeritz, crossings, outer=outer)), outer


def test_bundled_diagrams_at_every_outer_face(dataset):
    diagrams = [rec.pd for rec in dataset if rec.pd is not None]
    assert len(diagrams) == 21
    for pd in diagrams:
        assert_front_ends_agree(pd)


def test_mixed_sign_fan_medials_at_every_outer_face():
    pds = [mixed_fan_pd(dim, seed)
           for dim, seed in ((5, 2), (8, 5), (11, 1), (13, 3), (16, 0), (16, 2))]
    pds.append(connect_sum(mixed_fan_pd(5, 2), mixed_fan_pd(8, 1)))
    for pd in pds:
        assert_front_ends_agree(pd)


@st.composite
def fan_medials(draw):
    """Medials of fans with 0..3 apex and 1..3 path edges per region and
    a sign drawn for every edge; two-component medials are skipped."""
    k = draw(st.integers(1, 6))
    apex = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    assume(sum(apex) > 0)
    path = draw(st.lists(st.integers(1, 3), min_size=k - 1, max_size=k - 1))
    fan = fan_graph(apex, path)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(fan.edges),
                          max_size=len(fan.edges)))
    edges = [(u, v, eta) for (u, v, _eta), eta in zip(fan.edges, signs)]
    try:
        pd, _regions = medial_pd(PlanarGraph(fan.vertex_count, edges,
                                             fan.rotations))
    except DiagramError:
        assume(False)
    return pd


@settings(max_examples=60, deadline=None)
@given(fan_medials())
def test_fan_medials_property(pd):
    assert_front_ends_agree(pd)


def test_random_label_structures():
    """Every label twice, slots shuffled at random or strands drawn by
    ``strand_structure``: the constructor accepts exactly the codes whose
    under-strands run a -> a+1 and which the reference's product search
    can orient, and on those the two front ends agree, non-planar codes
    included."""
    rng = random.Random(314159)
    accepted = rejected = 0
    for _ in range(1500):
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            crossings = strand_structure(rng, n)
        else:
            labels = [label for label in range(1, 2 * n + 1) for _ in (0, 1)]
            rng.shuffle(labels)
            crossings = tuple(tuple(labels[4 * i:4 * i + 4]) for i in range(n))
        valid = (all(c == a % (2 * n) + 1 for a, _b, c, _d in crossings)
                 and outcome(ref.over_directions, crossings)[0] == "value")
        got = outcome(PDCode, crossings)
        if not valid:
            assert got == ("raised", PDSemanticError), crossings
            rejected += 1
            continue
        accepted += 1
        assert got[0] == "value", crossings
        assert_front_ends_agree(got[1])
    assert accepted >= 800 and rejected >= 600


def test_a_nonplanar_code_raises_the_same_class():
    # passes the label checks but closes up only on a genus-1 surface
    pd = PDCode(((3, 2, 4, 1), (2, 5, 3, 6), (6, 5, 1, 4)))
    for faces, code in ((planar.faces, pd), (ref.faces, pd.crossings)):
        with pytest.raises(DiagramError, match="not planar"):
            faces(code)
    assert outcome(planar.goeritz, pd) == outcome(ref.goeritz, pd.crossings) \
        == ("raised", DiagramError)
    assert_front_ends_agree(pd)


@pytest.mark.parametrize("crossings, where, reason, new_reason", [
    (((1, 2, 1, 1, 2),), "faces", "failed to close", "5 labels"),
    (((4, 4, 1, 1), (3, 2, 3, 2)), "checkerboard", "same face twice",
     "under-strand exits at 3"),
    # a planar and a genus-1 component: n + 2 faces in all
    (((9, 10, 2, 3), (6, 8, 8, 6), (9, 7, 4, 1), (2, 3, 1, 5), (10, 5, 4, 7)),
     "checkerboard", "disconnected", "under-strand exits at 2"),
    (((8, 10, 7, 5), (9, 10, 2, 9), (5, 8, 6, 1), (3, 4, 4, 3), (2, 7, 6, 1)),
     "checkerboard", "not bipartite", "under-strand exits at 7"),
    # unique over-strand readings, every head/tail count wrong
    (((1, 3, 2, 4), (3, 1, 4, 2)), "over_directions", "enter and leave",
     "enter and leave"),
], ids=["arity", "same-face", "disconnected", "not-bipartite", "orientation"])
def test_reference_error_paths_are_rejected_at_construction(
        crossings, where, reason, new_reason):
    """Each code that takes the reference front end down one of its error
    paths is rejected by the ``PDCode`` constructor, before ``planar``
    sees it."""
    stage = {"faces": ref.faces,
             "checkerboard": lambda cs: ref.checkerboard(cs, ref.faces(cs)),
             "over_directions": ref.over_directions}[where]
    with pytest.raises(Exception, match=reason):
        stage(crossings)
    with pytest.raises(PDSemanticError, match=new_reason):
        PDCode(crossings)


def test_orientation_needs_every_tail_once():
    # every head count is right; edge 1 leaves three crossings, which the
    # constructor's label count already rejects
    crossings = ((1, 1, 1, 4), (2, 3, 1, 4))
    assert outcome(PDCode, crossings) == outcome(ref.over_directions, crossings) \
        == ("raised", PDSemanticError)


@pytest.mark.parametrize("kink", ["PD[X[1,2,2,1]]", "PD[X[1,1,2,2]]"])
def test_one_crossing_kinks(kink):
    # both front ends accept the nugatory crossing at every outer face
    pd = parse_pd(kink)
    assert_front_ends_agree(pd)
    for outer in range(3):
        assert outcome(planar.goeritz, pd, outer=outer)[0] == "value"
