"""Command-line interface.

Subcommands:

* ``goeritz``    -- print G', G, mu, det and Smith form for one diagram
* ``linkform``   -- homology, linking form and the square class of the
  generator self-linkings for a knot
* ``obstruct``   -- obstruction verdicts for one knot
* ``classify``   -- classify a dataset and write the JSON report (to
  ``--out``, or alone on stdout with the status lines on stderr)
* ``verify-theorem`` -- assert the expected 121/58/6 split of the bundled
  11-crossing non-alternating classification

Exit codes: 0 success, 2 diagram parse/reject, 3 unknown knot name,
4 data or logic inconsistency (including a failed verify-theorem).
"""

import argparse
import sys
from importlib import resources
from pathlib import Path

from . import exactalg, planar, pipeline
from .bounds import sig_arf_obstruction
from .errors import (DataError, DiagramError, Gamma4Error, InconsistencyError,
                     KnotNotFound, PDSemanticError, PDSyntaxError)
from .knotio import load_dataset, parse_pd, render_pd
from .linkform import square_class

EXIT_OK = 0
EXIT_DIAGRAM = 2
EXIT_LOOKUP = 3
EXIT_INCONSISTENT = 4

THEOREM_COUNTS = {"at_1": 121, "at_2": 58, "undetermined": 6}


def bundled(name):
    """Path of a bundled data file."""
    return resources.files("gamma4.data").joinpath(name)


def _dataset_path(args):
    return Path(args.dataset) if args.dataset else bundled("knots.csv")


def _certificates_path(args):
    return Path(args.certificates) if args.certificates else bundled("certificates.csv")


def _matrix_lines(m, title):
    if not m:
        return [f"{title}: (empty 0x0)"]
    width = max(len(str(x)) for row in m for x in row)
    out = [f"{title}:"]
    out += ["  [" + " ".join(f"{x:>{width}}" for x in row) + "]" for row in m]
    return out


def _matrix_csv(m):
    return "\n".join(",".join(str(x) for x in row) for row in m)


def _load_pd(args):
    if args.pd:
        return parse_pd(args.pd)
    if args.pd_file:
        return parse_pd(Path(args.pd_file).read_text())
    raise PDSyntaxError("no diagram given: use --pd or --pd-file")


def _analyze_knot(args):
    """The named knot's record, the global sign and its analysis.

    The sign is resolved over the loaded dataset as ``classify`` resolves
    it, so both report the same verdicts for the same data.  The vote's
    covers are keyed by PD code: the record reuses one only for its own
    diagram, a ``--pd-override`` included, and its own cross-checks run
    either way.
    """
    records = load_dataset(_dataset_path(args))
    rec = next((r for r in records if r.name == args.knot), None)
    if rec is None:
        raise KnotNotFound(f"knot {args.knot!r} not in {_dataset_path(args)}")
    if args.pd_override:
        from dataclasses import replace
        rec = replace(rec, pd=parse_pd(args.pd_override))
    if rec.pd is None:
        raise KnotNotFound(f"knot {args.knot!r} has no diagram in the dataset "
                           f"(give one with --pd-override)")
    covers = {}
    sign, _note = pipeline.resolve_sign_convention(records, args.sign_convention,
                                                   covers)
    return rec, sign, pipeline.analyze_diagram(
        rec, sign, enable_klein=args.enable_klein,
        cover=pipeline.double_cover(rec, covers))


def cmd_goeritz(args):
    pd = _load_pd(args)
    gd = planar.goeritz(pd, outer=args.outer)
    lines = [f"diagram: {render_pd(pd)}", f"crossings: {len(pd)}"]
    lines += _matrix_lines(gd.gfull, "G' (full)")
    lines += _matrix_lines(gd.g, "G (row/column 0 deleted)")
    lines.append(f"mu = {gd.mu}")
    lines.append(f"det G = {exactalg.det(gd.g)}")
    lines.append(f"signature = sig(G) - mu = {planar.signature_via_goeritz(gd)}")
    if gd.g:
        snf = exactalg.smith_normal_form(gd.g)
        lines.append(f"Smith form diagonal: {snf.diagonal}")
        lines.append(f"invariant factors: {snf.invariant_factors or '(trivial)'}")
    if args.csv:
        lines.append("G' as CSV:")
        lines.append(_matrix_csv(gd.gfull))
        if gd.g:
            lines.append("G as CSV:")
            lines.append(_matrix_csv(gd.g))
    print("\n".join(lines))
    return EXIT_OK


def cmd_linkform(args):
    rec, sign, analysis = _analyze_knot(args)
    group, form = analysis.group, analysis.form
    print(f"{rec.name}: H1 of the double branched cover = {group} "
          f"(order {group.order}), linking form under global sign {sign:+d}")
    if group.is_trivial:
        return EXIT_OK
    if args.json:
        import json
        from .pipeline import _fraction_str
        doc = {
            "knot": rec.name,
            "invariant_factors": list(group.invariant_factors),
            "form": [[_fraction_str(x) for x in row] for row in form.values],
            "verdicts": [{"rule": v.rule, "result": v.result,
                          "witness": v.witness} for v in analysis.verdicts],
        }
        if group.is_cyclic:
            doc["square_class"] = square_class(form)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    for i, row in enumerate(form.values):
        print(f"  lambda(g{i}, .) = " + "  ".join(str(x) for x in row))
    if group.is_cyclic:
        print("  square class of k, lambda(g0, g0) = k/n: " + ", ".join(
            f"(k/{p}) = {c:+d}" for p, c in sorted(square_class(form).items())))
    return EXIT_OK


def cmd_obstruct(args):
    rec, _sign, analysis = _analyze_knot(args)
    print(f"{rec.name}: H1 = {analysis.group}, "
          f"lambda(g,g) = {analysis.fraction if analysis.fraction is not None else 'n/a'}")
    for v in analysis.verdicts:
        print(f"  {v.rule}: {v.result} ({v.witness})")
    if rec.signature is not None and rec.arf is not None:
        fires = sig_arf_obstruction(rec.signature, rec.arf)
        tag = "== 4 (mod 8): gamma4 >= 2" if fires else "not == 4 (mod 8)"
        print(f"  sig-arf: sigma + 4*Arf = {rec.signature + 4 * rec.arf} {tag}")
    else:
        print("  sig-arf: signature or Arf not ingested")
    return EXIT_OK


def cmd_classify(args):
    entries, metadata = pipeline.run_classification(
        _dataset_path(args), _certificates_path(args),
        enable_klein=args.enable_klein, sign_convention=args.sign_convention)
    text = pipeline.report_json(entries, metadata)
    # a report on stdout is the only thing there, so it parses as JSON
    status = sys.stdout if args.out else sys.stderr
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    if args.summary_csv:
        Path(args.summary_csv).write_text(pipeline.summary_csv(entries))
        print(f"summary CSV written to {args.summary_csv}", file=status)
    summary = pipeline.summarize(entries)
    print(f"knots: {summary['total']}  determined: {summary['determined']}  "
          f"undetermined: {summary['undetermined']}", file=status)
    if not summary["slice_all_at_1"]:
        raise InconsistencyError("a slice knot classified away from [1,1]")
    return EXIT_OK


def cmd_verify_theorem(args):
    entries, _metadata = pipeline.run_classification(
        _dataset_path(args), _certificates_path(args),
        enable_klein=args.enable_klein, sign_convention=args.sign_convention)
    summary = pipeline.summarize(entries)
    got = {
        "at_1": summary["determined"].get("1", 0),
        "at_2": summary["determined"].get("2", 0),
        "undetermined": summary["undetermined"],
    }
    expected = dict(THEOREM_COUNTS)
    print(f"expected: {expected}")
    print(f"got:      {got}")
    if got != expected:
        off = {k: (got[k], expected[k]) for k in expected if got[k] != expected[k]}
        print(f"MISMATCH in {off}")
        if args.list_mismatches:
            for e in entries:
                if not e.bounds.determined:
                    print(f"  undetermined: {e.name} {e.bounds.status}")
        return EXIT_INCONSISTENT
    print("classification counts verified")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="gamma4",
        description="Non-orientable 4-genus bounds from planar diagrams and "
                    "ingested invariant tables.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, certificates=False):
        sp.add_argument("--dataset", help="knots.csv (default: bundled)")
        if certificates:
            sp.add_argument("--certificates",
                            help="certificates.csv (default: bundled)")
        sp.add_argument("--enable-klein", action="store_true",
                        help="include Klein-bottle discriminant verdicts")
        sp.add_argument("--sign-convention", default="auto",
                        choices=["auto", "fixed+", "fixed-"],
                        help="global sign of the linking form")

    sp = sub.add_parser("goeritz", help="Goeritz data of one diagram")
    sp.add_argument("--pd", help="inline PD code: PD[X[a,b,c,d], ...]")
    sp.add_argument("--pd-file", help="file containing a PD code")
    sp.add_argument("--outer", type=int, default=None,
                    help="index of the unbounded face (default: largest)")
    sp.add_argument("--csv", action="store_true", help="also dump G' as CSV")
    sp.set_defaults(func=cmd_goeritz)

    sp = sub.add_parser("linkform", help="linking form of a dataset knot")
    sp.add_argument("--knot", required=True)
    sp.add_argument("--pd-override", help="use this PD instead of the table's")
    sp.add_argument("--json", action="store_true")
    add_common(sp)
    sp.set_defaults(func=cmd_linkform)

    sp = sub.add_parser("obstruct", help="obstruction verdicts for a knot")
    sp.add_argument("--knot", required=True)
    sp.add_argument("--pd-override")
    add_common(sp)
    sp.set_defaults(func=cmd_obstruct)

    sp = sub.add_parser("classify", help="classify a dataset, write a report")
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--summary-csv", help="also write a per-knot CSV summary")
    add_common(sp, certificates=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify-theorem",
                        help="assert the 121/58/6 classification counts")
    sp.add_argument("--list-mismatches", action="store_true")
    add_common(sp, certificates=True)
    sp.set_defaults(func=cmd_verify_theorem)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PDSyntaxError, PDSemanticError, DiagramError) as exc:
        print(f"diagram error: {exc}", file=sys.stderr)
        return EXIT_DIAGRAM
    except KnotNotFound as exc:
        print(f"lookup error: {exc}", file=sys.stderr)
        return EXIT_LOOKUP
    except (DataError, InconsistencyError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except Gamma4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
