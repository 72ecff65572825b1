"""Homology of the double branched cover and its linking form.

A nonsingular Goeritz matrix G is a relation matrix for H1 of the double
branched cover, a finite abelian group of order |det G|, and the linking
form on it is represented by G^{-1} up to an overall sign that depends on
the orientation of the cover [GL1978, MY2000].  All obstruction tests here
therefore quantify over both signs unless a caller fixes one explicitly.

Generators are transported through the Smith normal form: with U*G*V = D,
the columns of U^{-1} descend to generators of coker(G) of orders given by
the diagonal, and the form on them is the congruent transport of G^{-1}.

The cyclic verdicts are square-class tests.  On Z_n with self-linking k/n
the generator m*g self-links to m^2 k/n, so some generator self-links to
+-1/n iff +k or -k is a unit square mod n.  With n factored once, that is
Euler's criterion at each odd prime and a residue condition mod 4 or 8 at
2.  A NotObstructed witness names the least such m, the minimum over the
CRT combinations of the square roots modulo each prime power
(Tonelli-Shanks and Hensel lifting); one modular multiplication checks it.
Every verdict takes only the form and decides from the shape of H1, its
order factored once, whether it applies.  Nothing here enumerates H1:
nondegeneracy is decided from the form matrix one prime at a time, and
the orbit of generator self-linkings is reported by its square class.

[GL1978]  Gordon, Litherland, "On the signature of a link".
[GiL1992] Gilmer, Livingston, obstructions for a knot to bound a Mobius
          band in the 4-ball via the linking form.
[MY2000]  Murakami, Yasuhara, non-orientable surfaces and the clasp number.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import exactalg
from .errors import DiagramError

OBSTRUCTED = "Obstructed"
NOT_OBSTRUCTED = "NotObstructed"
INAPPLICABLE = "Inapplicable"


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor form d1 | d2 | ... | dk, every factor > 1."""

    invariant_factors: tuple

    def __post_init__(self):
        factors = tuple(self.invariant_factors)
        if any(d <= 1 for d in factors):
            raise ValueError(f"invariant factors must be > 1, got {factors}")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {factors} violate divisibility")
        object.__setattr__(self, "invariant_factors", factors)

    @cached_property
    def order(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @cached_property
    def order_factors(self):
        """{p: e} with order = prod p^e, factored on first use."""
        return factorize(self.order)

    @property
    def is_cyclic(self):
        return len(self.invariant_factors) <= 1

    @property
    def is_trivial(self):
        return not self.invariant_factors

    def __str__(self):
        if self.is_trivial:
            return "0"
        return " + ".join(f"Z{d}" for d in self.invariant_factors)


@dataclass(frozen=True)
class LinkingForm:
    """Symmetric Q/Z-valued pairing on the chosen invariant-factor generators.

    ``values[i][j]`` is lambda(g_i, g_j) reduced into [0, 1); it is
    killed by the orders d_i and d_j of both generators.  While
    ``sign_fixed`` is False the matrix is the +G^{-1} transport and its
    global sign is still conventional; ``fix_sign`` stamps a choice.
    """

    group: FiniteAbelianGroup
    values: tuple
    sign_fixed: bool = False

    def __post_init__(self):
        orders = self.group.invariant_factors
        vals = tuple(tuple(Fraction(x) % 1 for x in row) for row in self.values)
        if len(vals) != len(orders) or any(len(row) != len(orders) for row in vals):
            raise ValueError("form matrix size does not match the group rank")
        if any(vals[i][j] != vals[j][i]
               for i in range(len(orders)) for j in range(i)):
            raise ValueError("linking form must be symmetric")
        scaled = [[x * d for x, d in zip(row, orders)] for row in vals]
        if any(x.denominator != 1 for row in scaled for x in row):
            raise ValueError(
                f"form denominators do not divide the generator orders {orders}")
        object.__setattr__(self, "values", vals)
        _check_nondegenerate(self.group, [[int(x) for x in row] for row in scaled])

    def negated(self):
        return replace(self, values=tuple(tuple((-x) % 1 for x in row)
                                          for row in self.values))

    def fix_sign(self, sign):
        """Return the form with the global sign resolved to +1 or -1."""
        fixed = self if sign == 1 else self.negated()
        return replace(fixed, sign_fixed=True)

    def self_value(self):
        """lambda(g, g) on the generator of a cyclic group."""
        if not self.group.is_cyclic:
            raise ValueError("self_value requires a cyclic group")
        if self.group.is_trivial:
            return Fraction(0)
        return self.values[0][0]


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of one obstruction test with a checkable witness.

    ``witness`` carries the element (and value) that defeats the
    obstruction, or the exhaustive-search note explaining why none exists.
    """

    result: str
    rule: str
    witness: str = ""

    @property
    def obstructed(self):
        return self.result == OBSTRUCTED


def homology(gd) -> FiniteAbelianGroup:
    """Invariant factors of coker(G): the SNF diagonal with the 1s dropped."""
    g = gd.g
    if not g:
        return FiniteAbelianGroup(())
    if exactalg.det(g) == 0:
        raise DiagramError("singular Goeritz matrix is not a knot Goeritz matrix")
    snf = exactalg.smith_normal_form(g)
    return FiniteAbelianGroup(tuple(snf.invariant_factors))


def linking_form(gd) -> LinkingForm:
    """Transport of G^{-1} onto the Smith generators of coker(G).

    With U*G*V = D, coker(G) is generated by the images of the columns of
    U^{-1}, the i-th of order D[i][i]; the pairing matrix on them is
    U^{-T} * G^{-1} * U^{-1} taken mod 1, restricted to the generators of
    order > 1.
    """
    g = gd.g
    if not g:
        return LinkingForm(group=FiniteAbelianGroup(()), values=())
    if exactalg.det(g) == 0:
        raise DiagramError("singular Goeritz matrix has no linking form")
    snf = exactalg.smith_normal_form(g)
    ginv = exactalg.inverse(g)
    w = exactalg.inverse(snf.U)  # integer entries; U is unimodular
    wt = exactalg.mat_transpose(w)
    full = exactalg.mat_mul(wt, exactalg.mat_mul(ginv, w))
    keep = [i for i, d in enumerate(snf.diagonal) if d > 1]
    values = tuple(tuple(full[i][j] % 1 for j in keep) for i in keep)
    group = FiniteAbelianGroup(tuple(snf.diagonal[i] for i in keep))
    return LinkingForm(group=group, values=values)


def _check_nondegenerate(group, scaled):
    """Verify that the adjoint x -> lambda(x, .) is an automorphism.

    In the bases g_i and the dual characters of order d_j the adjoint is
    the integer matrix B = ``scaled``, B_ij = lambda(g_i, g_j) * d_j.  On
    the p-primary part it is an isomorphism iff it is onto mod p
    (Nakayama), i.e. iff the minor of B on the generators whose order p
    divides is nonzero mod p.  The rule runs at every order; on Z_n with
    lambda(g,g) = k/n it says gcd(k, n) = 1.  Nondegeneracy is a theorem
    for forms of nonsingular Goeritz matrices, so a failure here means an
    implementation bug.
    """
    orders = group.invariant_factors
    for p in group.order_factors:
        first = next(i for i, d in enumerate(orders) if d % p == 0)
        minor = [row[first:] for row in scaled[first:]]
        value = minor[0][0] if len(minor) == 1 else exactalg.det(minor)
        if value % p == 0:
            raise ValueError(f"degenerate linking form on {group}: its "
                             f"{p}-primary part pairs trivially with an element")


def factorize(n):
    """Prime factorization {p: e} of a positive integer, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def generator_values(form: LinkingForm):
    """Orbit of self-linkings over all generators of a cyclic group:
    { m^2 * lambda(g,g) mod 1 : gcd(m, N) = 1 }.

    O(|H1|); a reference for tests.  ``represents`` and ``square_class``
    decide the same questions from the factored order."""
    if not form.group.is_cyclic:
        raise ValueError("generator orbit requires a cyclic group")
    if form.group.is_trivial:
        return {Fraction(0)}
    n = form.group.order
    k = _numerator(form)
    return {Fraction((m * m * k) % n, n)
            for m in range(1, n + 1) if gcd(m, n) == 1}


def _numerator(form):
    """k with lambda(g, g) = k/n on the generator g of Z_n."""
    v = form.self_value()
    return v.numerator * (form.group.order // v.denominator)


def _unit_square_class(c, factors):
    """(p, class) for each p^e of n = prod p^e over ``factors``: the
    Legendre symbol (c/p) of the unit c at odd p, c mod 2^min(e, 3) at 2.
    Two units differ by a unit square iff their classes agree."""
    for p, e in factors.items():
        yield p, (c % 2 ** min(e, 3) if p == 2
                  else 1 if pow(c, (p - 1) // 2, p) == 1 else -1)


def _is_unit_square(c, factors):
    """Whether the unit c is a square mod n = prod p^e over ``factors``."""
    return all(cls == 1 for _p, cls in _unit_square_class(c, factors))


def square_class(form: LinkingForm):
    """Square class {p: class} of k for lambda(g,g) = k/n on Z_n.

    The generator self-linkings m^2 k/n form the coset of k in the units
    modulo their squares, so this names the whole orbit."""
    n = form.group.order
    return dict(_unit_square_class(_numerator(form) % n,
                                   form.group.order_factors))


def represents(form: LinkingForm, c):
    """Whether some generator of the cyclic H1 = Z_n self-links to c/n.

    With lambda(g,g) = k/n, m^2 k = c has a unit root m iff c is a unit
    and c*k (= c k^-1 times the square k^2) is a unit square mod n."""
    n = form.group.order
    return gcd(c, n) == 1 and _is_unit_square(
        c * _numerator(form) % n, form.group.order_factors)


def _sqrt_mod_prime(c, p):
    """A square root of the quadratic residue c mod the odd prime p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, root_of_unity = s, pow(z, q, p)
    t, r = pow(c, q, p), pow(c, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(root_of_unity, 1 << (m - i - 1), p)
        m, root_of_unity = i, b * b % p
        t, r = t * root_of_unity % p, r * b % p
    return r


def _sqrts_mod_prime_power(c, p, e):
    """All square roots of the unit square c mod p^e."""
    pe = p ** e
    if p == 2:
        if e < 3:
            return [x for x in (1, 3) if x < pe]
        # c = 1 mod 8; an odd root mod 2^i lifts to one mod 2^(i+1),
        # possibly after adding 2^(i-1)
        r = 1
        for i in range(3, e):
            if (r * r - c) % (1 << (i + 1)):
                r += 1 << (i - 1)
        half = pe // 2
        return [r, pe - r, (r + half) % pe, (pe - r + half) % pe]
    r = _sqrt_mod_prime(c % p, p)
    while (r * r - c) % pe:  # Hensel (Newton) lifting to p^e
        r = (r - (r * r - c) * pow(2 * r, -1, pe)) % pe
    return [r, pe - r]


def _least_sqrt(c, factors):
    """Least m >= 1 with m^2 = c mod n, for a unit square c mod n > 1:
    the minimum over the CRT combinations of the prime-power roots."""
    roots, modulus = [0], 1
    for p, e in factors.items():
        pe = p ** e
        lift = pow(modulus, -1, pe)
        roots = [a + modulus * ((b - a) * lift % pe)
                 for a in roots for b in _sqrts_mod_prime_power(c, p, e)]
        modulus *= pe
    return min(roots)


def _generator_verdict(form, rule, exhausted):
    """NotObstructed with the least generator m*g that self-links to +-1/n,
    or Obstructed with the ``exhausted`` note when none does.

    m^2 k = +-1 iff m^2 = +-k^-1, which has a root iff +-k is a unit
    square.  The targets contain both signs, so a walk over m and the
    global sign meets the least such m first, under sign +1: the witness
    is the one that walk reports, and the note states what it exhausts.
    """
    n, factors = form.group.order, form.group.order_factors
    k = _numerator(form)
    inverse_k = pow(k, -1, n)
    roots = [_least_sqrt(s * inverse_k % n, factors) for s in (1, -1)
             if represents(form, s)]
    if not roots:
        return ObstructionVerdict(OBSTRUCTED, rule, exhausted)
    m = min(roots)
    return ObstructionVerdict(
        NOT_OBSTRUCTED, rule,
        f"generator {m}*g has lambda = {Fraction(m * m * k % n, n)} "
        f"(global sign +1)")


def mobius_obstruction_cyclic(form: LinkingForm) -> ObstructionVerdict:
    """Mobius-band obstruction for cyclic H1 of squarefree-type order.

    If H1 = Z_n with every prime exponent of n odd and the knot bounds a
    Mobius band in the 4-ball, some generator a has lambda(a,a) = +-1/n
    [GiL1992, Cor 3].  Obstructed therefore means: under both global
    signs, no generator self-links to +-1/n, i.e. neither +k nor -k is a
    unit square mod n for lambda(g,g) = k/n.  The NotObstructed witness is
    the least m with m^2 k = +-1 mod n.
    """
    rule = "mobius-cyclic"
    if not form.group.is_cyclic:
        return ObstructionVerdict(INAPPLICABLE, rule, "H1 is not cyclic")
    n = form.group.order
    if any(e % 2 == 0 for e in form.group.order_factors.values()):
        return ObstructionVerdict(
            INAPPLICABLE, rule, f"order {n} has a prime of even exponent")
    if form.group.is_trivial:
        return ObstructionVerdict(NOT_OBSTRUCTED, rule, "trivial H1")
    return _generator_verdict(
        form, rule,
        f"exhausted all {n} multiples: no generator self-links to +-1/{n} "
        f"under either sign")


def mobius_obstruction_p2q(form: LinkingForm) -> ObstructionVerdict:
    """Mobius-band obstruction for cyclic H1 of order p^2 * q.

    Applies when H1 = Z_n with exactly one prime p of exponent 2 in n and
    every other prime of exponent 1, so n = p^2 q with q squarefree and
    prime to p.  A knot bounding a Mobius band then admits a generator a
    with lambda(a,a) = +-1/n or +-1/q (splitting off a metabolic summand).
    Obstructed means no generator attains either value under either
    global sign.

    A generator's self-linking m^2 k/n has a unit numerator and +-1/q =
    +-p^2/n does not, so the +-1/q targets are never reached: the verdict
    is the square-class test of mobius_obstruction_cyclic, with the same
    least-root witness.
    """
    rule = "mobius-prime-square"
    if not form.group.is_cyclic:
        return ObstructionVerdict(INAPPLICABLE, rule, "H1 is not cyclic")
    n, factors = form.group.order, form.group.order_factors
    squared = [p for p, e in factors.items() if e == 2]
    if len(squared) != 1 or any(e > 2 for e in factors.values()):
        return ObstructionVerdict(
            INAPPLICABLE, rule,
            f"order {n} is not p^2*q with q squarefree and prime to p")
    q = n // squared[0] ** 2
    return _generator_verdict(
        form, rule,
        f"exhausted all generators of Z_{n}: none self-links to "
        f"+-1/{n} or +-1/{q} under either sign")


def klein_discriminant(form: LinkingForm) -> ObstructionVerdict:
    """Punctured-Klein-bottle obstruction for H1 = Z_p + Z_p, p prime.

    The discriminant of the form must be +-1 in F_p*/(F_p*)^2 for the knot
    to bound a punctured Klein bottle [GiL1992, Thm 4]: NotObstructed when
    disc = det(p * lambda) mod p, a unit as the form is nondegenerate, or
    -disc is a square, by Euler's criterion (c is a square iff
    c^((p-1)/2) = 1).  If neither is, -1 = -disc/disc is one, so
    p = 1 mod 4.  The class is insensitive to the global sign.
    """
    rule = "klein-discriminant"
    group, factors = form.group, form.group.invariant_factors
    if len(factors) != 2 or group.order_factors != {factors[0]: 2}:
        return ObstructionVerdict(
            INAPPLICABLE, rule, f"H1 is {group}, not Zp + Zp for a prime p")
    p = factors[0]
    (a, b), (_, c) = [[int(x * p) for x in row] for row in form.values]
    disc = (a * c - b * b) % p
    if _is_unit_square(disc, {p: 1}) or _is_unit_square(-disc % p, {p: 1}):
        return ObstructionVerdict(
            NOT_OBSTRUCTED, rule, f"discriminant {disc} is +-square mod {p}")
    return ObstructionVerdict(
        OBSTRUCTED, rule,
        f"discriminant {disc} is not +-square mod {p} "
        f"(Euler: {disc}^{(p - 1) // 2} = -1, p = 1 mod 4)")


def definiteness_consistency(form: LinkingForm, required_sign) -> ObstructionVerdict:
    """Compare the resolved sign of a +-1/n form against the ingested
    definiteness required of the double cover of the bounding 4-ball.

    The form's sign must already be fixed (a convention choice recorded in
    the report metadata).  With lambda(g,g) = k/n, some generator
    self-links to +1/n iff k is a unit square mod n, and to -1/n iff -k
    is.  When exactly one sign epsilon is represented, a required
    definiteness of the opposite sign is a contradiction and the knot
    bounds no Mobius band this way [GiL1992].
    """
    rule = "definiteness"
    if required_sign not in (1, -1):
        return ObstructionVerdict(INAPPLICABLE, rule, "no required sign ingested")
    if not form.group.is_cyclic or form.group.is_trivial:
        return ObstructionVerdict(INAPPLICABLE, rule, "H1 not cyclic and nontrivial")
    if not form.sign_fixed:
        raise ValueError("definiteness consistency needs a sign-fixed form")
    n = form.group.order
    plus, minus = represents(form, 1), represents(form, -1)
    if not plus and not minus:
        return ObstructionVerdict(
            INAPPLICABLE, rule, f"no generator self-links to +-1/{n}")
    if plus and minus:
        return ObstructionVerdict(
            NOT_OBSTRUCTED, rule, "both signs of 1/n are represented")
    epsilon = 1 if plus else -1
    if epsilon == required_sign:
        return ObstructionVerdict(
            NOT_OBSTRUCTED, rule,
            f"form sign {epsilon:+d} matches required definiteness")
    return ObstructionVerdict(
        OBSTRUCTED, rule,
        f"form represents {epsilon:+d}/{n} but the bounding cover must be "
        f"{'positive' if required_sign > 0 else 'negative'} definite")
