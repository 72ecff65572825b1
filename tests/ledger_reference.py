"""The certificate ledger that ``bounds.classify_all``'s one pass
replaced: sweep ``classify`` over the whole table, in table order, until
no knot's (lower, upper) changes, then check the ledger's claims.  Kept as
the reference the tests hold the pass to: on any ledger both must give
every knot the same lower, upper, Gamma_4 upper and reasons, or both
raise InconsistencyError.
"""

from gamma4 import bounds as _bounds
from gamma4.errors import InconsistencyError
from gamma4.knotio import SLICE


def classify_all(records, verdicts, certs):
    """{name: GammaBounds} for every record; a sweep that has not settled
    after len(records) + 1 sweeps is an InconsistencyError."""
    by_name = {rec.name: rec for rec in records}
    certs_by_source = {}
    for cert in certs:
        certs_by_source.setdefault(cert.source, []).append(cert)
    bounds = {}

    def resolve(cert):
        if cert.target not in by_name:
            return 1 if cert.target_gamma4 == 1 else None
        prior = bounds.get(cert.target)
        return None if prior is None else prior.upper

    for _ in range(len(records) + 1):
        changed = False
        for rec in records:
            new = _bounds.classify(rec, verdicts.get(rec.name, []),
                                   certs_by_source.get(rec.name, ()), resolve)
            old = bounds.get(rec.name)
            if old is None or (new.lower, new.upper) != (old.lower, old.upper):
                changed = True
            bounds[rec.name] = new
        if not changed:
            break
    else:
        raise InconsistencyError(
            f"certificate bounds did not converge after {len(records) + 1} "
            f"sweeps")

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
