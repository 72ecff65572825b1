"""Knot notation parsing and ingestion of invariant / certificate tables.

PD convention
-------------
A planar diagram code is a list of crossings ``X[a,b,c,d]`` over edge
labels 1..2n.  Each quadruple lists the four edge-ends counterclockwise
starting from the incoming under-strand, and edge labels increase by one
along the knot's orientation (with wraparound 2n -> 1).  This matches the
convention of the public knot tables, so rows copied from them parse
directly.

Ingested tables
---------------
``knots.csv`` carries one row per knot: name, crossing number, optional PD
code, and the invariant columns (signature, Arf, smooth 4-genus, unknotting
and slicing ranges, clasp range, crosscap bound, slice flag, determinant,
required definiteness).  Cells may be empty; an absent invariant simply
makes the rules that would consume it inapplicable.  ``certificates.csv``
is the ledger of non-oriented band moves ``source --h--> target``.
"""

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

from .errors import DataError, PDSemanticError, PDSyntaxError


@dataclass(frozen=True)
class PDCode:
    """Combinatorial planar diagram: a tuple of crossing quadruples."""

    crossings: tuple

    def __len__(self):
        return len(self.crossings)

    @property
    def edge_count(self):
        return 2 * len(self.crossings)

    @cached_property
    def directions(self):
        """:func:`over_directions` of this diagram, computed once."""
        return tuple(over_directions(self))


_PD_RE = re.compile(r"^PD\[(.*)\]$")
_X_RE = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


def parse_pd(text):
    """Parse ``PD[X[a,b,c,d], ...]`` (or ``PD[]`` for the unknot).

    Raises :class:`PDSyntaxError` on malformed tokens and
    :class:`PDSemanticError` (with the crossing index) when the quadruples
    violate a diagram invariant.
    """
    squeezed = re.sub(r"\s+", "", text)
    m = _PD_RE.match(squeezed)
    if not m:
        raise PDSyntaxError(f"not a PD expression: {text!r}")
    body = m.group(1)
    if body == "":
        return PDCode(crossings=())
    crossings = []
    pos = 0
    while pos < len(body):
        xm = _X_RE.match(body, pos)
        if not xm:
            raise PDSyntaxError(f"malformed crossing token at {body[pos:pos+24]!r}")
        crossings.append(tuple(map(int, xm.groups())))
        pos = xm.end()
        if pos < len(body):
            if body[pos] != ",":
                raise PDSyntaxError(f"expected ',' between crossings at {body[pos:pos+8]!r}")
            pos += 1
            if pos == len(body):
                raise PDSyntaxError(f"trailing ',' after the last crossing in {text!r}")
    pd = PDCode(crossings=tuple(crossings))
    validate_pd(pd)
    return pd


def render_pd(pd):
    """Inverse of :func:`parse_pd`: ``parse_pd(render_pd(pd)) == pd``."""
    inner = ", ".join("X[%d,%d,%d,%d]" % c for c in pd.crossings)
    return f"PD[{inner}]"


def _successor(label, edges):
    return label % edges + 1


def validate_pd(pd):
    """Check all PDCode invariants; raise PDSemanticError otherwise."""
    n = len(pd)
    if n == 0:
        return
    edges = 2 * n
    counts = [0] * (edges + 1)
    for i, quad in enumerate(pd.crossings):
        for label in quad:
            if not 1 <= label <= edges:
                raise PDSemanticError(
                    f"edge label {label} out of range 1..{edges}", crossing=i)
            counts[label] += 1
    for label in range(1, edges + 1):
        if counts[label] != 2:
            bad = next((i for i, q in enumerate(pd.crossings) if label in q),
                       None)
            raise PDSemanticError(
                f"edge label {label} occurs {counts[label]} times, expected 2",
                crossing=bad)
    for i, (a, b, c, d) in enumerate(pd.crossings):
        if c != _successor(a, edges):
            raise PDSemanticError(
                f"under-strand exits at {c}, expected successor of {a}", crossing=i)
    pd.directions  # raises if over-strand orientation cannot be resolved


def over_directions(pd):
    """Per-crossing over-strand direction: +1 if the over-strand runs
    b -> d, -1 if it runs d -> b (labels increase along the orientation).

    Each direction is read off the label-successor test.  Only for n = 1
    do both readings pass it (mod 2); there, and for every n as a check,
    every edge must leave exactly one crossing and enter exactly one.
    """
    n = len(pd)
    edges = 2 * n
    directions = []
    for i, (_a, b, _c, d) in enumerate(pd.crossings):
        if d == _successor(b, edges):
            directions.append(+1)
        elif b == _successor(d, edges):
            directions.append(-1)
        else:
            raise PDSemanticError(
                f"over-strand pair ({b},{d}) not consecutive along orientation",
                crossing=i)
    if _enters_and_leaves_once(pd, directions):
        return directions
    if n == 1 and _enters_and_leaves_once(pd, [-directions[0]]):
        return [-directions[0]]
    raise PDSemanticError(
        "no orientation assignment makes every edge enter and leave exactly one crossing")


def _enters_and_leaves_once(pd, directions):
    heads, tails = [], []
    for (a, b, c, d), dirn in zip(pd.crossings, directions):
        heads += (a, b) if dirn == +1 else (a, d)
        tails += (c, d) if dirn == +1 else (c, b)
    # 2n heads cover the 2n labels only if each label is hit exactly once
    labels = set(range(1, 2 * len(pd) + 1))
    return set(heads) == labels == set(tails)


# ---------------------------------------------------------------------------
# dataset records


@dataclass
class KnotRecord:
    """Ingested invariants for one knot.

    ``None`` means the table did not provide the value; classification
    rules that would need it are then simply not applied to this knot.
    """

    name: str
    crossings: int
    pd: PDCode | None = None
    signature: int | None = None
    arf: int | None = None
    g4: int | None = None
    u_lo: int | None = None
    u_hi: int | None = None
    us_lo: int | None = None
    us_hi: int | None = None
    c4_lo: int | None = None
    c4_hi: int | None = None
    crosscap_hi: int | None = None
    slice: bool = False
    determinant: int | None = None
    definiteness: int | None = None

    def check(self):
        """Validate the record's invariants beyond its cells' syntax (which
        rejects a signed crossing number); returns error strings."""
        problems = []
        if self.signature is not None and self.signature % 2 != 0:
            problems.append(f"odd signature {self.signature}")
        if self.arf is not None and self.arf not in (0, 1):
            problems.append(f"arf {self.arf} not in {{0,1}}")
        if self.determinant is not None:
            if self.determinant <= 0 or self.determinant % 2 == 0:
                problems.append(f"determinant {self.determinant} not an odd positive integer")
        if self.slice:
            if self.g4 not in (None, 0):
                problems.append("slice knot with g4 != 0")
            if self.signature not in (None, 0):
                problems.append("slice knot with nonzero signature")
        elif self.g4 == 0:
            problems.append("g4 = 0 without the slice flag")
        if self.definiteness not in (None, 1, -1):
            problems.append(f"definiteness {self.definiteness} not +-1")
        for lo, hi, what in ((self.u_lo, self.u_hi, "u"),
                             (self.us_lo, self.us_hi, "us"),
                             (self.c4_lo, self.c4_hi, "c4")):
            if lo is not None and hi is not None and lo > hi:
                problems.append(f"empty {what} range [{lo},{hi}]")
        # ladder g4 <= c4 <= us <= u, checked pairwise on available bounds
        ladder = (("g4", self.g4, self.g4), ("c4", self.c4_lo, self.c4_hi),
                  ("us", self.us_lo, self.us_hi), ("u", self.u_lo, self.u_hi))
        for i in range(len(ladder)):
            for j in range(i + 1, len(ladder)):
                lo_name, lo, _ = ladder[i]
                hi_name, _, hi = ladder[j]
                if lo is not None and hi is not None and lo > hi:
                    problems.append(f"ladder violation: {lo_name} {lo} > {hi_name} {hi}")
        return problems


def _parse_int(cell, what, allow_sign=True):
    """An optional sign, when allowed, then decimal digits (Unicode Nd, as
    ``\\d`` reads them); ``cell`` comes stripped."""
    digits = cell[1:] if allow_sign and cell.startswith(("+", "-")) else cell
    if not digits.isdecimal():
        raise ValueError(f"non-integer {what}: {cell!r}")
    return int(cell)


def _parse_bool(cell, what):
    lowered = cell.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no", ""):
        return False
    raise ValueError(f"bad boolean {what}: {cell!r}")


def _knot_name(cell, _what):
    if not cell.strip():
        raise ValueError("empty knot name")
    return cell.strip()


def _optional_int(cell, what):
    cell = cell.strip()
    return _parse_int(cell, what) if cell else None


# column -> parser, in column order: a row reports its first bad cell
_DATASET_PARSERS = dict(
    name=_knot_name,
    crossings=lambda cell, what: _parse_int(cell.strip(), what, allow_sign=False),
    pd=lambda cell, _what: parse_pd(cell.strip()) if cell.strip() else None,
    **dict.fromkeys(["signature", "arf", "g4", "u_lo", "u_hi", "us_lo", "us_hi",
                     "c4_lo", "c4_hi", "crosscap_hi"], _optional_int),
    slice=_parse_bool, determinant=_optional_int, definiteness=_optional_int)

DATASET_COLUMNS = list(_DATASET_PARSERS)


def _load_rows(path, data, columns, from_cells, unique_names=False):
    """Parse each data row of a CSV with the mandatory ``columns``, in
    table order, by ``from_cells(*cells)`` with the row's cells in
    ``columns`` order.  The file is read as UTF-8 from ``data``, its bytes,
    or from ``path`` when ``data`` is None; ``path`` names it in errors.
    A header naming a column twice is rejected.  Blank
    lines are skipped and not counted.  Missing trailing cells read as empty;
    cells beyond the header reject the row, and with ``unique_names`` so
    does an item named like an earlier one.  Rejected rows are collected
    and reported together in a single :class:`DataError` with their row
    numbers."""
    path = Path(path)
    if data is None:
        data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: byte "
                        f"0x{data[exc.start]:02x} at offset {exc.start}") from None
    items = []
    failures = []
    first_rows = {}  # item name -> its row number
    # newline="" splits lines as a file opened for csv does
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file, header required")
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(f"{path}: missing mandatory columns {missing}")
    repeated = [c for c, k in Counter(header).items() if k > 1]
    if repeated:
        raise DataError(f"{path}: header names columns more than once {repeated}")
    width = len(header)
    cells_of = itemgetter(*map(header.index, columns))
    lineno = 1
    for row in reader:
        if not row:
            continue
        lineno += 1
        if len(row) > width:
            failures.append((lineno, f"{len(row) - width} cell(s) beyond "
                             f"the {width}-column header"))
            continue
        row += [""] * (width - len(row))
        try:
            item = from_cells(*cells_of(row))
        except (ValueError, PDSyntaxError, PDSemanticError) as exc:
            failures.append((lineno, str(exc)))
            continue
        if unique_names and first_rows.setdefault(item.name, lineno) != lineno:
            failures.append((lineno, f"duplicate knot name {item.name} "
                                     f"(first at row {first_rows[item.name]})"))
            continue
        items.append(item)
    if failures:
        listing = "; ".join(f"row {ln}: {msg}" for ln, msg in failures)
        raise DataError(f"{path}: rejected rows: {listing}",
                        rows=[ln for ln, _ in failures])
    return items


def load_dataset(path, data=None):
    """The records of ``knots.csv`` in table order; a row breaking the record
    invariants or repeating a knot name is rejected with its row number.
    ``data``, when given, is the file's bytes, already read."""
    return _load_rows(path, data, DATASET_COLUMNS, _record_from_row,
                      unique_names=True)


def _record_from_row(*cells):
    record = KnotRecord(*[parse(cell, column) for (column, parse), cell
                          in zip(_DATASET_PARSERS.items(), cells)])
    problems = record.check()
    if problems:
        raise ValueError("; ".join(problems))
    return record


# ---------------------------------------------------------------------------
# band-move certificates


SLICE = "slice"


@dataclass(frozen=True)
class BandMoveCertificate:
    """One non-oriented band move ``source --h--> target``.

    ``target_gamma4`` is the ledger's claim about the target: the integer 1
    or the literal ``"slice"``.  Dangling target names are allowed at load
    time; they are resolved (or trusted) during classification.
    """

    source: str
    h: int
    target: str
    target_gamma4: object  # 1 or SLICE
    figure_ref: str = ""


CERTIFICATE_COLUMNS = ["source", "h", "target", "target_gamma4", "figure_ref"]


def load_certificates(path, data=None):
    """Load ``certificates.csv``; certificates with h outside {-1,0,1} or a
    target_gamma4 outside {1, slice} are rejected with their row numbers.
    ``data``, when given, is the file's bytes, already read."""
    return _load_rows(path, data, CERTIFICATE_COLUMNS, _certificate_from_row)


def _certificate_from_row(source, h, target, target_gamma4, figure_ref):
    source = source.strip()
    if not source:
        raise ValueError("empty source name")
    h = _parse_int(h.strip(), "h")
    if h not in (-1, 0, 1):
        raise ValueError(f"band twist h={h} not in {{-1,0,1}}")
    tg_cell = target_gamma4.strip().lower()
    if tg_cell == SLICE:
        tg = SLICE
    else:
        tg = _parse_int(tg_cell, "target_gamma4")
        if tg != 1:
            raise ValueError(f"target_gamma4 {tg} must be 1 or 'slice'")
    return BandMoveCertificate(source=source, h=h, target=target.strip(),
                               target_gamma4=tg, figure_ref=figure_ref.strip())
