"""Combination rules: invariant obstructions and certificate bounds on
the non-orientable 4-genus.

Every rule application is recorded as a (rule, citation, detail) reason on
the bounds object, so each final interval carries the full derivation
chain.  Bounds never clamp silently: raising the lower bound above a known
upper bound raises InconsistencyError, which means either the ingested
data or a sign convention is wrong, and both must surface.

Rule inventory (citations name the classical sources):

* slice knots bound a disk, so attaching one non-oriented band gives a
  Mobius band: gamma_4 = 1.
* gamma_4 <= floor(n/2) and gamma_4 <= 2 g_4 + 1 and gamma_4 <= c(K).
* sigma + 4 Arf = 4 (mod 8) forces gamma_4 >= 2.
* clasp number: gamma_4 <= c_4 (c_4 even, != 2) else c_4 + 1, and
  Gamma_4 <= c_4 (even) else c_4 + 1; g_4 = c_4 >= 1 ties them together.
* a non-oriented band move K -> K' gives gamma_4(K) <= gamma_4(K') + 1,
  and = 1 when K' is slice.
* linking-form verdicts (module linkform) obstruct gamma_4 = 1 only, so
  they raise the lower bound to exactly 2.

``classify`` applies these rules to one knot.  ``classify_all`` runs it
over a dataset with the band-move ledger: a certificate onto a knot
outside the dataset trusts the ledger's gamma_4 = 1, one onto a knot in
the dataset uses that knot's upper bound, so every in-dataset target is
classified before its source.  A cycle of such moves is swept within
itself; uppers only ever decrease, so the sweeps reach a fixed point, and
one that has not settled after len(cycle) + 1 sweeps is an
InconsistencyError.  Then every ledger claim about a knot in the dataset
must agree with the run: a proven lower bound above 1, determined or
not, contradicts a claim of gamma_4 = 1, and a claim that the knot is
slice needs its slice flag.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InconsistencyError
from .knotio import SLICE
from .linkform import (RULE_DEFINITENESS, RULE_KLEIN, RULE_MOBIUS_CYCLIC,
                       RULE_MOBIUS_P2Q)

RULE_SLICE = "slice"
RULE_CROSSING = "crossing-floor"
RULE_ORIENTABLE = "orientable-genus"
RULE_CROSSCAP = "crosscap"
RULE_SIG_ARF = "sig-arf"
RULE_CLASP = "clasp-parity"
RULE_CLASP_EQ = "clasp-equals-genus"
RULE_BAND = "band-move"

CITATIONS = {
    RULE_SLICE: "slice disk plus one non-oriented band",
    RULE_CROSSING: "crossing-number bound gamma4 <= floor(n/2) (Murakami-Yasuhara)",
    RULE_ORIENTABLE: "orientable-genus bound gamma4 <= 2*g4 + 1 (Jabuka-Kelly)",
    RULE_CROSSCAP: "crosscap bound gamma4 <= c(K)",
    RULE_SIG_ARF: "sigma + 4*Arf == 4 (mod 8) obstruction (Ghanbarian-Jabuka-Kelly)",
    RULE_CLASP: "clasp-number bound (Murakami-Yasuhara)",
    RULE_CLASP_EQ: "g4 = c4 >= 1 forces Gamma4 = gamma4 (Murakami-Yasuhara)",
    RULE_BAND: "non-oriented band move bound (Jabuka-Kelly)",
    RULE_MOBIUS_CYCLIC: "linking-form Mobius obstruction (Gilmer-Livingston)",
    RULE_MOBIUS_P2Q: "linking-form Mobius obstruction, order p^2*q splitting",
    RULE_DEFINITENESS: "linking-form sign vs definiteness of the double cover "
                       "(Gilmer-Livingston)",
    RULE_KLEIN: "Klein-bottle discriminant condition (Gilmer-Livingston)",
}


class Reason(NamedTuple):
    rule: str
    citation: str
    detail: str

    @classmethod
    def make(cls, rule, detail):
        return cls(rule, CITATIONS.get(rule, rule), detail)


@dataclass
class GammaBounds:
    """Interval [lower, upper] for gamma_4 with a derivation trail.

    ``upper`` (and ``gamma_bar_upper``, the bound on min{2*g4, gamma_4})
    are None until some rule produces a bound.
    """

    name: str = ""
    lower: int = 1
    upper: int | None = None
    gamma_bar_upper: int | None = None
    reasons: list = field(default_factory=list)

    def raise_lower(self, value, rule, detail):
        if value > self.lower:
            self.lower = value
            self.reasons.append(Reason.make(rule, f"lower >= {value}: {detail}"))
            if self.upper is not None and self.lower > self.upper:
                raise InconsistencyError(
                    f"{self.name}: lower bound {self.lower} exceeds upper "
                    f"bound {self.upper} after rule {rule}: {detail}")

    def cut_upper(self, value, rule, detail):
        if value < 1:
            raise InconsistencyError(
                f"{self.name}: rule {rule} produced upper bound {value} < 1")
        if self.upper is None or value < self.upper:
            self.upper = value
            self.reasons.append(Reason.make(rule, f"upper <= {value}: {detail}"))
            if self.lower > self.upper:
                raise InconsistencyError(
                    f"{self.name}: upper bound {self.upper} fell below lower "
                    f"bound {self.lower} after rule {rule}: {detail}")

    def cut_gamma_bar(self, value, rule, detail):
        if self.gamma_bar_upper is None or value < self.gamma_bar_upper:
            self.gamma_bar_upper = value
            self.reasons.append(Reason.make(rule, f"Gamma4 <= {value}: {detail}"))

    @property
    def determined(self):
        return self.upper is not None and self.upper == self.lower

    @property
    def status(self):
        if self.determined:
            return f"determined gamma4 = {self.lower}"
        hi = "?" if self.upper is None else self.upper
        return f"undetermined [{self.lower}, {hi}]"


def sig_arf_obstruction(sigma, arf):
    """True iff sigma + 4*Arf == 4 (mod 8), which forces gamma_4 >= 2."""
    if sigma % 2 != 0:
        raise ValueError(f"knot signature must be even, got {sigma}")
    if arf not in (0, 1):
        raise ValueError(f"Arf invariant must be 0 or 1, got {arf}")
    return (sigma + 4 * arf) % 8 == 4


def clasp_number(rec):
    """Tightest known clasp-number range [lo, hi] for one record.

    Intersects the ingested c4 range with [g4, min(us_hi, u_hi)] from the
    ladder g4 <= c4 <= us <= u; hi is None when nothing bounds it above.
    """
    if rec.g4 is None:
        raise ValueError(f"{rec.name}: clasp range needs g4")
    lo = rec.g4
    if rec.c4_lo is not None:
        lo = max(lo, rec.c4_lo)
    his = [x for x in (rec.c4_hi, rec.us_hi, rec.u_hi) if x is not None]
    hi = min(his) if his else None
    if hi is not None and lo > hi:
        raise InconsistencyError(
            f"{rec.name}: clasp-number data is contradictory: "
            f"lower {lo} exceeds upper {hi}")
    return lo, hi


def upper_from_clasp(c4, g4):
    """(gamma_4 upper, Gamma_4 upper) from an exactly known clasp number.

    Gamma_4 <= c4 when c4 is even, else c4 + 1; gamma_4 <= c4 when c4 is
    even and != 2, else c4 + 1; and when g4 = c4 >= 1 the two coincide, so
    the gamma_4 bound tightens to the Gamma_4 one.
    """
    if c4 < 1:
        raise ValueError("clasp number 0 means slice; use the slice rule")
    gamma_bar = c4 if c4 % 2 == 0 else c4 + 1
    gamma = c4 if (c4 % 2 == 0 and c4 != 2) else c4 + 1
    if g4 is not None and g4 == c4:
        gamma = min(gamma, gamma_bar)
    return gamma, gamma_bar


def classify(rec, verdicts, certs, resolve_target):
    """Assemble the gamma_4 interval for one knot.

    ``verdicts`` are the knot's linking-form verdicts; ``certs`` the
    certificates whose source is this knot; ``resolve_target(cert)``
    returns the target's gamma_4 (int) or None when unresolved.

    Slice knots return [1,1] unconditionally: a slice disk plus a band is
    a Mobius band, and no obstruction can apply.
    """
    b = GammaBounds(name=rec.name)
    if rec.slice:
        b.cut_upper(1, RULE_SLICE, "slice knot bounds a Mobius band")
        b.cut_gamma_bar(0, RULE_SLICE, "slice disk has b1 = 0")
        return b

    floor = f"floor({rec.crossings}/2)"
    b.cut_upper(rec.crossings // 2, RULE_CROSSING, floor)
    if rec.g4 is not None:
        b.cut_upper(2 * rec.g4 + 1, RULE_ORIENTABLE, f"2*{rec.g4} + 1")
    if rec.crosscap_hi is not None:
        b.cut_upper(rec.crosscap_hi, RULE_CROSSCAP,
                    f"crosscap number <= {rec.crosscap_hi}")
    b.cut_gamma_bar(rec.crossings // 2, RULE_CROSSING, floor)
    if rec.g4 is not None:
        b.cut_gamma_bar(2 * rec.g4, RULE_ORIENTABLE,
                        f"Gamma4 <= 2*g4 = {2 * rec.g4} by definition")
        lo, hi = clasp_number(rec)
        if hi is not None and lo == hi and lo >= 1:
            gamma, gamma_bar = upper_from_clasp(lo, rec.g4)
            rule = RULE_CLASP_EQ if (rec.g4 == lo and gamma == gamma_bar) else RULE_CLASP
            b.cut_upper(gamma, rule, f"c4 = {lo} exactly")
            b.cut_gamma_bar(gamma_bar, RULE_CLASP, f"c4 = {lo} exactly")

    for cert in certs:
        if cert.source != rec.name:
            raise ValueError(f"certificate for {cert.source} applied to {rec.name}")
        if cert.target_gamma4 == SLICE:
            b.cut_upper(1, RULE_BAND,
                        f"band move (h={cert.h:+d}) to slice {cert.target} "
                        f"[{cert.figure_ref}]")
            continue
        resolved = resolve_target(cert)
        if resolved is not None:
            b.cut_upper(resolved + 1, RULE_BAND,
                        f"band move (h={cert.h:+d}) to {cert.target} with "
                        f"gamma4 = {resolved} [{cert.figure_ref}]")

    if rec.signature is not None and rec.arf is not None:
        if sig_arf_obstruction(rec.signature, rec.arf):
            b.raise_lower(2, RULE_SIG_ARF,
                          f"sigma = {rec.signature}, Arf = {rec.arf}")
    for verdict in verdicts:
        if verdict.obstructed:
            b.raise_lower(2, verdict.rule, verdict.witness)
    return b


def classify_all(records, verdicts, certs):
    """{name: GammaBounds} for every record under the certificate ledger
    (see the module docstring); ``verdicts`` maps a knot name to its
    linking-form verdicts, and a knot missing from it has none.

    One pass in table order: an iterative Tarjan search (Tarjan, SIAM J.
    Comput. 1, 1972) settles each strongly connected component of the in-dataset target edges after
    every component it reaches, so a knot outside a cycle is classified
    once, and a cycle (or a knot targeting itself) is swept within itself.
    When two knots are each contradictory, the InconsistencyError names
    the one classified first, which may be a target listed after its
    source.
    """
    by_name = {rec.name: rec for rec in records}
    certs_by_source = {}
    for cert in certs:
        certs_by_source.setdefault(cert.source, []).append(cert)
    targets = {source: [c.target for c in cs if c.target in by_name]
               for source, cs in certs_by_source.items()}
    bounds = {}

    def resolve(cert):
        if cert.target not in by_name:
            return 1 if cert.target_gamma4 == 1 else None
        prior = bounds.get(cert.target)
        return None if prior is None else prior.upper

    def settle(component):
        # a cycle of n knots settles within n + 1 sweeps, in any order
        cyclic = (len(component) > 1
                  or component[0] in targets.get(component[0], ()))
        for _ in range(len(component) + 1 if cyclic else 1):
            changed = False
            for name in component:
                new = classify(by_name[name], verdicts.get(name, []),
                               certs_by_source.get(name, ()), resolve)
                old = bounds.get(name)
                if old is None or (new.lower, new.upper) != (old.lower, old.upper):
                    changed = True
                bounds[name] = new
            if not (cyclic and changed):
                return
        raise InconsistencyError(
            f"certificate bounds did not converge after {len(component) + 1} "
            f"sweeps")

    # a visited knot without bounds is still on Tarjan's stack
    number, low, stack, path = {}, {}, [], []

    def enter(name):
        number[name] = low[name] = len(number)
        stack.append(name)
        path.append((name, iter(targets.get(name, ()))))

    for rec in records:
        if rec.name not in number:
            enter(rec.name)
        while path:
            name, edges = path[-1]
            for target in edges:
                if target not in number:
                    enter(target)
                    break
                if target not in bounds:
                    low[name] = min(low[name], number[target])
            else:
                path.pop()
                if path:
                    above = path[-1][0]
                    low[above] = min(low[above], low[name])
                if low[name] == number[name]:
                    at = len(stack) - 1
                    while stack[at] != name:
                        at -= 1
                    settle(stack[at:])
                    del stack[at:]

    for cert in certs:
        got = bounds.get(cert.target)
        if got is None:
            continue
        if cert.target_gamma4 == SLICE and not by_name[cert.target].slice:
            raise InconsistencyError(
                f"certificate {cert.source} -> {cert.target} claims the "
                f"target is slice but the dataset does not flag it slice")
        if cert.target_gamma4 == 1 and got.lower > 1:
            raise InconsistencyError(
                f"certificate {cert.source} -> {cert.target} claims the "
                f"target has gamma4 = 1 but the run proved gamma4 >= "
                f"{got.lower}")
    return bounds
