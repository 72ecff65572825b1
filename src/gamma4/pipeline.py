"""End-to-end classification: dataset + certificate ledger -> report.

Per knot with a diagram: Goeritz data, homology of the double branched
cover, linking form, and the applicable obstruction verdicts.  Cross-checks
run along the way: the sign of det G must be (-1)^((dim G - sig(G))/2),
|det G| must equal the ingested determinant, the Gordon-Litherland
signature the ingested signature, and the ingested Arf invariant must be
0 exactly when |det G| = +-1 (mod 8) [Levine], whenever both sides exist.
A failed cross-check is an inconsistency (bad data, a miscalibrated
convention or an elimination bug), not a warning.  The det-sign check runs
when a cover is built; the checks against a record's ingested values run
for every record that reads the cover.  ``knotio`` checks rows, repeated
names included, at load.

Each diagram's double cover (``DoubleCover``: Goeritz data, det,
signature, homology and the linking form before its sign is fixed) is
computed once per run and per distinct diagram: a run keys its covers by
PD code, so records that share a diagram share its cover.  The sign vote
reads a cover under both signs and the final pass reuses it, since fixing
the sign only negates the form.  Nothing is kept from one run to the next.

The intervals, band-move certificates included, come from
``bounds.classify_all``.

The report is fully deterministic: entries are sorted by knot name, all
values are exact (fractions rendered as strings), and the metadata block
records the convention calibration and input digests, so re-running on the
same inputs reproduces the same bytes.  Its top level is indented; each
knot is one compact, sorted-key line, so a diff shows one line per changed
knot.
"""

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import exactalg, planar
from .bounds import classify_all
from .errors import InconsistencyError
from .knotio import load_certificates, load_dataset
from .linkform import (INAPPLICABLE, RULE_DEFINITENESS,
                       definiteness_consistency, homology,
                       klein_discriminant, linking_form,
                       mobius_obstruction_cyclic, mobius_obstruction_p2q)

SIGN_AUTO = "auto"
SIGN_PLUS = "fixed+"
SIGN_MINUS = "fixed-"


def natural_key(name):
    """Sort key splitting digit runs: 11n2 < 11n10 < 11n100."""
    return tuple(int(tok) if tok.isdigit() else tok
                 for tok in re.split(r"(\d+)", name))


@dataclass
class DiagramAnalysis:
    """Everything computed from one knot's diagram."""

    goeritz: object
    group: object
    form: object            # sign-fixed linking form
    verdicts: list
    det: int
    signature: int

    @property
    def fraction(self):
        if self.group.is_cyclic and not self.group.is_trivial:
            return self.form.self_value()
        return None


@dataclass(frozen=True)
class DoubleCover:
    """The sign-independent data of one diagram's double branched cover.

    ``form`` is the +G^{-1} transport with its global sign not yet fixed;
    fixing the sign only negates it, so both signs share one cover.
    """

    goeritz: object
    group: object
    form: object
    det: int
    signature: int


def double_cover(rec, covers=None):
    """``rec``'s double branched cover, cross-checked against ``rec``.

    ``covers`` (a dict kept for one run) maps a PD code to its cover: a
    diagram found there is not built again, and a new one is stored.  The
    ingested determinant, signature and Arf invariant are checked against
    the cover on every call, so each record sharing a diagram gets its own
    checks."""
    cover = None if covers is None else covers.get(rec.pd)
    if cover is None:
        cover = _build_cover(rec)
        if covers is not None:
            covers[rec.pd] = cover
    _check_ingested(rec, cover)
    return cover


def _build_cover(rec):
    """Goeritz -> det, signature and the det-sign check -> homology ->
    unsigned linking form for ``rec``'s diagram."""
    gd = planar.goeritz(rec.pd)
    det_g = exactalg.det(gd.g)
    sig = planar.signature_via_goeritz(gd)
    # G is nonsingular and symmetric, so it has (dim G - sig(G))/2 negative
    # eigenvalues, and their parity is the sign of det G
    negative, odd = divmod(len(gd.g) - (sig + gd.mu), 2)
    if odd or (det_g < 0) != (negative % 2 == 1):
        raise InconsistencyError(
            f"{rec.name}: det G = {det_g} but sig(G) = {sig + gd.mu} on "
            f"dimension {len(gd.g)}; the signature elimination is wrong")
    return DoubleCover(goeritz=gd, group=homology(gd), form=linking_form(gd),
                       det=abs(det_g), signature=sig)


def _check_ingested(rec, cover):
    det = cover.det
    if rec.determinant is not None and det != rec.determinant:
        raise InconsistencyError(
            f"{rec.name}: |det G| = {det} but the table says "
            f"{rec.determinant}")
    if rec.signature is not None and cover.signature != rec.signature:
        raise InconsistencyError(
            f"{rec.name}: Goeritz signature {cover.signature} disagrees with "
            f"the ingested signature {rec.signature}; convention or data error")
    # Levine: a knot's Arf invariant is 0 iff |det| = +-1 (mod 8)
    if rec.arf is not None and rec.arf != (0 if det % 8 in (1, 7) else 1):
        raise InconsistencyError(
            f"{rec.name}: ingested Arf invariant {rec.arf} but |det G| = "
            f"{det} is {det % 8} mod 8; Arf = 0 iff |det| = "
            f"+-1 (mod 8) [Levine]")


def analyze_diagram(rec, sign, enable_klein=False, cover=None):
    """The verdicts on ``rec``'s double cover (built here unless given)
    with the linking form's global sign fixed to ``sign``; the p^2 q and
    Klein verdicts are kept only where they apply to H1."""
    if cover is None:
        cover = double_cover(rec)
    form = cover.form.fix_sign(sign)
    verdicts = [mobius_obstruction_cyclic(form)]
    _append_if_applicable(verdicts, mobius_obstruction_p2q(form))
    if rec.definiteness is not None:
        verdicts.append(definiteness_consistency(form, rec.definiteness))
    if enable_klein:
        _append_if_applicable(verdicts, klein_discriminant(form))
    return DiagramAnalysis(goeritz=cover.goeritz, group=cover.group, form=form,
                           verdicts=verdicts, det=cover.det,
                           signature=cover.signature)


def _append_if_applicable(verdicts, verdict):
    if verdict.result != INAPPLICABLE:
        verdicts.append(verdict)


def resolve_sign_convention(records, requested, covers=None):
    """Pick the global sign of the linking form (lambda = s * G^{-1}).

    ``fixed+``/``fixed-`` force it.  ``auto`` keeps +1 unless every knot
    carrying a definiteness column resolves inconsistently under +1 while
    all resolving consistently under -1, in which case the convention is
    flipped (a uniform flip is a convention artifact; a mixed pattern is
    genuine data and is left alone).  ``not all(under_minus)`` never
    decides: negation swaps +1/n and -1/n, so a row obstructed under +1 is
    NotObstructed under -1, and a row is Inapplicable under both signs or
    neither; all(under_plus) thus leaves under_minus nonempty and all False.

    Each voting record's double cover is read under both signs.  It is
    looked up in, or stored into, ``covers`` under the record's PD code
    (see :func:`double_cover`), so a caller passing the same dict reuses it
    for any record with that diagram.
    """
    if requested == SIGN_PLUS:
        return 1, "forced +G^-1"
    if requested == SIGN_MINUS:
        return -1, "forced -G^-1"
    if covers is None:
        covers = {}
    votes = []
    for rec in records:
        if rec.pd is None or rec.definiteness is None:
            continue
        cover = double_cover(rec, covers)
        for sign in (1, -1):
            analysis = analyze_diagram(rec, sign, cover=cover)
            verdict = next((v for v in analysis.verdicts
                            if v.rule == RULE_DEFINITENESS), None)
            if verdict is not None and verdict.result != INAPPLICABLE:
                votes.append((rec.name, sign, verdict.obstructed))
    under_plus = [obstructed for _n, s, obstructed in votes if s == 1]
    under_minus = [obstructed for _n, s, obstructed in votes if s == -1]
    if under_plus and all(under_plus) and not all(under_minus):
        return -1, "auto: flipped, every definiteness row contradicted +G^-1"
    return 1, "auto: +G^-1 consistent with the definiteness column"


@dataclass
class ReportEntry:
    name: str
    record: object
    analysis: object
    bounds: object


def run_classification(dataset_path, certificates_path, enable_klein=False,
                       sign_convention=SIGN_AUTO):
    """Classify every knot in the dataset; returns (entries, metadata).

    Raises DataError on a rejected row and InconsistencyError when any
    cross-check or bound contradiction fires; both are exit code 4.
    """
    # each file is read once: parsed and hashed from the same bytes
    dataset = Path(dataset_path).read_bytes()
    records = load_dataset(dataset_path, dataset)
    certificates = Path(certificates_path).read_bytes()
    certs = load_certificates(certificates_path, certificates)

    covers = {}  # PD code -> DoubleCover, for this run only
    sign, sign_note = resolve_sign_convention(records, sign_convention, covers)

    # the vote's covers are reused; the rest are built here, in table order
    analyses = {}
    for rec in records:
        if rec.pd is not None:
            analyses[rec.name] = analyze_diagram(
                rec, sign, enable_klein, double_cover(rec, covers))

    bounds = classify_all(
        records, {name: a.verdicts for name, a in analyses.items()}, certs)

    entries = [ReportEntry(name=rec.name, record=rec,
                           analysis=analyses.get(rec.name),
                           bounds=bounds[rec.name])
               for rec in sorted(records, key=lambda r: natural_key(r.name))]
    metadata = {
        "calibration": planar.calibration(),
        "linking_sign": {"value": sign, "note": sign_note,
                         "requested": sign_convention},
        "dataset_sha256": hashlib.sha256(dataset).hexdigest(),
        "certificates_sha256": hashlib.sha256(certificates).hexdigest(),
        "dataset_path": str(dataset_path),
        "certificates_path": str(certificates_path),
        "knots": len(records),
        "certificates": len(certs),
        "klein_enabled": enable_klein,
    }
    return entries, metadata


def summarize(entries):
    """Counts by outcome, plus the slice sanity tally."""
    determined = {}
    undetermined = 0
    for e in entries:
        if e.bounds.determined:
            determined[e.bounds.lower] = determined.get(e.bounds.lower, 0) + 1
        else:
            undetermined += 1
    slice_ok = all(e.bounds.determined and e.bounds.lower == 1
                   for e in entries if e.record.slice)
    return {
        "total": len(entries),
        "determined": {str(k): v for k, v in sorted(determined.items())},
        "undetermined": undetermined,
        "slice_knots": sum(1 for e in entries if e.record.slice),
        "slice_all_at_1": slice_ok,
    }


def _fraction_str(x):
    if x is None:
        return None
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def entry_dict(e):
    """JSON-ready view of one report entry."""
    rec, analysis, b = e.record, e.analysis, e.bounds
    out = {
        "name": e.name,
        "bounds": {"lower": b.lower, "upper": b.upper,
                   "gamma_bar_upper": b.gamma_bar_upper},
        "status": b.status,
        "reasons": [{"rule": r.rule, "citation": r.citation, "detail": r.detail}
                    for r in b.reasons],
        "slice": rec.slice,
    }
    if analysis is not None:
        out["homology"] = list(analysis.group.invariant_factors)
        out["determinant"] = analysis.det
        out["signature"] = analysis.signature
        out["linking_fraction"] = _fraction_str(analysis.fraction)
        if analysis.fraction is None and not analysis.group.is_trivial:
            out["linking_matrix"] = [[_fraction_str(x) for x in row]
                                     for row in analysis.form.values]
        out["verdicts"] = [{"rule": v.rule, "result": v.result,
                            "witness": v.witness}
                           for v in analysis.verdicts]
    return out


# no ``indent``, so ``encode`` takes json's C path
_KNOT_ENCODER = json.JSONEncoder(sort_keys=True)


def report_json(entries, metadata):
    """Canonical report serialization (stable bytes for stable inputs):
    metadata and summary indented by 2, each knot one compact, sorted-key
    line inside ``"knots": [...]``."""
    rest = json.dumps({"metadata": metadata, "summary": summarize(entries)},
                      indent=2, sort_keys=True)
    knots = ",\n".join("    " + _KNOT_ENCODER.encode(entry_dict(e))
                       for e in entries)
    knots = f"[\n{knots}\n  ]" if entries else "[]"
    # "knots" sorts before the other keys, so it opens the object
    return f'{{\n  "knots": {knots},\n{rest[2:]}\n'


def summary_csv(entries):
    lines = ["name,lower,upper,status,rules"]
    for e in entries:
        rules = ";".join(sorted({r.rule for r in e.bounds.reasons}))
        upper = "" if e.bounds.upper is None else e.bounds.upper
        lines.append(f"{e.name},{e.bounds.lower},{upper},"
                     f"{'determined' if e.bounds.determined else 'range'},{rules}")
    return "\n".join(lines) + "\n"
