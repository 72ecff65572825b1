"""Homology, linking forms, and the obstruction verdicts.

The pairing oracle enumerates coker(G) directly (coset representatives by
breadth-first search with integral-solvability membership tests) and pairs
with x^T G^{-1} y, independently of the Smith-form transport in the
implementation.  The element enumeration of a form's group below is the
reference for the nondegeneracy rule, which never enumerates.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, factorint

import inverse_reference
from conftest import (TREFOIL_PD, connect_sum, cyclic_form,
                      fan_goeritz_matrices, mixed_fan_pd, sympy_inverse)
from gamma4 import pipeline
from gamma4.errors import DiagramError, InconsistencyError
from gamma4.exactalg import det, mat_mul, mat_transpose, smith_normal_form
from gamma4.knotio import KnotRecord, parse_pd
from gamma4.linkform import (FiniteAbelianGroup, INAPPLICABLE, LinkingForm,
                             NOT_OBSTRUCTED, OBSTRUCTED,
                             definiteness_consistency, factorize,
                             generator_values, homology, klein_discriminant,
                             linking_form, mobius_obstruction_cyclic,
                             mobius_obstruction_p2q, represents, square_class)
from gamma4.planar import GoeritzData, goeritz


def gd_of(matrix):
    return GoeritzData(gfull=[], g=matrix, mu=0)


# --- independent pairing oracle ---------------------------------------------


def coker_selfpairings(g):
    """Multiset of self-pairings x^T G^{-1} x mod 1 over all of coker(G),
    computed without the Smith transport, with G^{-1} from sympy."""
    n = len(g)
    ginv = sympy_inverse(g)

    def in_image(vec):
        # solve g * z = vec over the rationals; in the image iff z integral
        z = [sum(ginv[i][j] * vec[j] for j in range(n)) for i in range(n)]
        return all(x.denominator == 1 for x in z)

    reps = [tuple([0] * n)]
    frontier = [tuple([0] * n)]
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    while frontier:
        x = frontier.pop()
        for b in basis:
            y = tuple(a + c for a, c in zip(x, b))
            if not any(in_image([p - q for p, q in zip(y, r)]) for r in reps):
                reps.append(y)
                frontier.append(y)
    values = []
    for x in reps:
        v = sum(Fraction(x[i]) * ginv[i][j] * x[j]
                for i in range(n) for j in range(n))
        values.append(v % 1)
    return sorted(values), len(reps)


# --- element enumeration as a reference ----------------------------------------


def elements(orders):
    """All elements of Z_d1 + ... + Z_dk as coefficient tuples."""
    return list(product(*(range(d) for d in orders)))


def pairing(values, x, y):
    """lambda(x, y) mod 1 from the value matrix on the generators."""
    return sum(xi * yj * values[i][j] for i, xi in enumerate(x)
               for j, yj in enumerate(y)) % 1


def degenerate_by_enumeration(orders, b):
    """Whether some x != 0 pairs to 0 with every generator, for
    lambda(g_i, g_j) = b_ij / d_j."""
    values = [[Fraction(x, d) for x, d in zip(row, orders)] for row in b]
    gens = [tuple(int(i == j) for j in range(len(orders)))
            for i in range(len(orders))]
    return any(any(x) and all(pairing(values, x, g) == 0 for g in gens)
               for x in elements(orders))


# --- homology ----------------------------------------------------------------


def test_homology_printed_matrix():
    g = [[3, -1, 0, -1], [-1, 5, -1, 0], [0, -1, 0, 2], [-1, 0, 2, 0]]
    h = homology(gd_of(g))
    assert h.invariant_factors == (51,)
    assert str(h) == "Z51"


def test_homology_small_cases():
    assert homology(gd_of([[3]])).invariant_factors == (3,)
    assert homology(gd_of([])).is_trivial
    assert homology(gd_of([[3, 0], [0, -5]])).invariant_factors == (15,)
    assert homology(gd_of([[3, 0], [0, 6]])).invariant_factors == (3, 6)


def test_homology_rejects_singular():
    with pytest.raises(DiagramError):
        homology(gd_of([[1, 1], [1, 1]]))


# --- linking form ------------------------------------------------------------


def test_linking_form_one_by_one():
    f = linking_form(gd_of([[3]]))
    assert f.self_value() == Fraction(1, 3)
    assert linking_form(gd_of([[-3]])).self_value() == Fraction(-1, 3) % 1


def test_linking_form_diag_3_minus5():
    f = linking_form(gd_of([[3, 0], [0, -5]]))
    assert f.group.invariant_factors == (15,)
    orbit = generator_values(f)
    # 1/3 - 1/5 = 2/15 must be a generator value of the product form
    assert Fraction(2, 15) in orbit or Fraction(-2, 15) % 1 in orbit


def test_linking_form_agrees_with_pairing_oracle():
    rng = random.Random(5)
    cases = [[[3]], [[5]], [[3, 0], [0, -5]], [[2, 1], [1, 2]],
             [[3, -1, 0, -1], [-1, 5, -1, 0], [0, -1, 0, 2], [-1, 0, 2, 0]]]
    while len(cases) < 12:
        n = rng.randint(1, 3)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        if abs(det(m)) % 2 == 1 and abs(det(m)) <= 60:  # a knot's |H1| is odd
            cases.append(m)
    for g in cases:
        form = linking_form(gd_of(g))
        oracle_values, order = coker_selfpairings(g)
        assert order == abs(det(g))
        assert order == form.group.order
        mine = sorted(pairing(form.values, x, x)
                      for x in elements(form.group.invariant_factors))
        assert mine == oracle_values, g


def smith_identity_matrix(g):
    """With U*G*V = D, G^-1 = V*D^-1*U, so the form on the columns of U^-1
    is lambda_ij = ((U^-1)^T V)_ij / d_j mod 1, and b_ij is the integer
    ((U^-1)^T V)_ij mod d_j.  U^-1 comes from sympy."""
    snf = smith_normal_form(g)
    p = Matrix(snf.U).inv().T * Matrix(snf.V)
    d = snf.diagonal
    keep = [i for i, dj in enumerate(d) if dj > 1]
    return tuple(tuple(int(p[i, j]) % d[j] for j in keep) for i in keep)


def test_linking_form_is_the_integer_smith_identity(dataset):
    bundled = [goeritz(rec.pd).g for rec in dataset if rec.pd is not None]
    assert len(bundled) == 21
    for g in bundled + fan_goeritz_matrices():
        form = linking_form(gd_of(g))
        assert form.b == smith_identity_matrix(g), g
        assert all(type(x) is int and 0 <= x < d
                   for row in form.b
                   for x, d in zip(row, form.group.invariant_factors)), g


def full_inverse_transport(g):
    """The form matrix b from all of U^-1 and G^-1 = N/d, both by the
    Gauss-Jordan reference: W the kept columns of U^-1, P = W^T*N*W and
    b_ij = P_ij * d_j / d mod d_j."""
    snf = smith_normal_form(g)
    keep = [i for i, dj in enumerate(snf.diagonal) if dj > 1]
    u_inverse, _ = inverse_reference.inverse(snf.U)
    w = [[row[i] for i in keep] for row in u_inverse]
    scaled_inverse, d = inverse_reference.inverse(g)
    products = mat_mul(mat_transpose(w), mat_mul(scaled_inverse, w))
    orders = [snf.diagonal[i] for i in keep]
    return tuple(tuple(x * dj // d % dj for x, dj in zip(row, orders))
                 for row in products)


def test_linking_form_matches_the_full_inverse_transport_at_scale():
    """Solving for the kept columns only gives the form the full inverses
    gave, on mixed-fan diagrams of Goeritz dimension 24..48, beyond the
    corpora's 16; the connected sum has H1 = Z5 + Z374125."""
    pds = [mixed_fan_pd(dim, seed)
           for dim, seed in ((24, 0), (32, 1), (40, 2), (48, 2))]
    pds.append(connect_sum(mixed_fan_pd(24, 1), mixed_fan_pd(24, 2)))
    ranks = []
    for pd in pds:
        g = goeritz(pd).g
        assert 24 <= len(g) <= 48
        form = linking_form(gd_of(g))
        assert form.b == full_inverse_transport(g), len(g)
        ranks.append(len(form.b))
    assert ranks == [1, 1, 1, 1, 2]


def test_linking_form_of_a_unimodular_goeritz_matrix_is_trivial():
    trivial = LinkingForm(group=FiniteAbelianGroup(()), b=())
    for g in ([[1]], [[2, 1], [1, 1]], [[-1, 0], [0, 1]]):
        assert linking_form(gd_of(g)) == trivial, g


def test_linking_form_symmetric_and_nondegenerate_guard():
    with pytest.raises(ValueError, match="degenerate"):
        LinkingForm(group=FiniteAbelianGroup((5,)), b=((0,),))
    with pytest.raises(ValueError, match="symmetric"):
        LinkingForm(group=FiniteAbelianGroup((3, 3)), b=((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="rank"):
        LinkingForm(group=FiniteAbelianGroup((3, 3)), b=((1, 0),))
    with pytest.raises(TypeError):  # b holds integers, not Q/Z values
        LinkingForm(group=FiniteAbelianGroup((3,)), b=((Fraction(1, 3),),))


def test_symmetry_compares_b_ij_over_d_j_with_b_ji_over_d_i():
    # on Z3 + Z9, b01 = 3 and b10 = 1 both mean 1/3
    form = LinkingForm(group=FiniteAbelianGroup((3, 9)), b=((1, 3), (1, 1)))
    assert form.values == ((Fraction(1, 3), Fraction(1, 3)),
                           (Fraction(1, 3), Fraction(1, 9)))
    # equal entries b01 = b10 = 1 mean lambda01 = 1/9 but lambda10 = 1/3
    with pytest.raises(ValueError, match="symmetric"):
        LinkingForm(group=FiniteAbelianGroup((3, 9)), b=((1, 1), (1, 1)))


def test_even_order_is_an_inconsistency():
    # |H1| = |Delta(-1)| is odd for the double branched cover of a knot
    for orders, b in (((2,), ((1,),)), ((4,), ((1,),)), ((6,), ((1,),)),
                      ((2, 2), ((1, 0), (0, 1)))):
        with pytest.raises(InconsistencyError, match="odd order"):
            LinkingForm(group=FiniteAbelianGroup(orders), b=b)
    assert homology(gd_of([[2]])).invariant_factors == (2,)
    with pytest.raises(InconsistencyError, match="odd order"):
        linking_form(gd_of([[2]]))


def all_form_matrices(orders):
    """Every symmetric form on the generators, as its matrix b:
    lambda(g_i, g_j) = a / gcd(d_i, d_j), so b_ij = a * d_j / gcd."""
    cells = [(i, j) for i in range(len(orders)) for j in range(i, len(orders))]
    ranges = [range(gcd(orders[i], orders[j])) for i, j in cells]
    for numerators in product(*ranges):
        b = [[0] * len(orders) for _ in orders]
        for (i, j), a in zip(cells, numerators):
            g = gcd(orders[i], orders[j])
            b[i][j], b[j][i] = a * orders[j] // g, a * orders[i] // g
        yield b


@pytest.mark.parametrize("orders", [(5, 5), (5, 25), (3, 3), (3, 9), (3, 3, 3),
                                    (3, 15), (5, 15)])
def test_nondegeneracy_rule_agrees_with_enumeration(orders):
    group = FiniteAbelianGroup(orders)
    degenerate = 0
    for b in all_form_matrices(orders):
        if degenerate_by_enumeration(orders, b):
            degenerate += 1
            with pytest.raises(ValueError, match="degenerate"):
                LinkingForm(group=group, b=b)
        else:
            LinkingForm(group=group, b=b)
    assert degenerate > 0


def test_degenerate_form_above_2000_elements_is_rejected():
    # on Z75 + Z75, 25*g1 pairs trivially with both generators
    with pytest.raises(ValueError, match="degenerate"):
        LinkingForm(group=FiniteAbelianGroup((75, 75)), b=((1, 0), (0, 3)))
    LinkingForm(group=FiniteAbelianGroup((75, 75)), b=((1, 0), (0, 2)))


def test_sign_flip_negates_values_but_not_verdicts():
    for n, k in ((51, 20), (47, 1), (55, 42), (63, 61)):
        f = cyclic_form(n, k)
        g = f.fix_sign(-1)
        assert g.self_value() == (-f.self_value()) % 1
        assert (mobius_obstruction_cyclic(f).result
                == mobius_obstruction_cyclic(g).result)


def test_fix_sign_constructs_and_validates_the_signed_form_once(monkeypatch):
    """The form was validated when it was built; negation keeps it
    symmetric and nondegenerate, so fixing the sign validates nothing."""
    form = LinkingForm(group=FiniteAbelianGroup((3, 9)), b=((1, 3), (1, 1)))
    negated = LinkingForm(group=form.group, b=((2, 6), (2, 8)), sign_fixed=True)
    validations = []
    validate = LinkingForm.__post_init__
    monkeypatch.setattr(LinkingForm, "__post_init__",
                        lambda self: validations.append(validate(self)))
    for sign, expected in ((1, replace(form, sign_fixed=True)), (-1, negated)):
        validations.clear()
        fixed = form.fix_sign(sign)
        assert validations == []
        assert fixed == expected


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_fix_sign_rejects_a_sign_other_than_plus_or_minus_one(sign):
    """Any sign but +1 once negated the form: the trefoil with definiteness
    +1 read as Obstructed, its sign marked fixed, under sign 0 or 2."""
    with pytest.raises(ValueError):
        cyclic_form(3, 1).fix_sign(sign)
    rec = KnotRecord(name="trefoil", crossings=3, pd=parse_pd(TREFOIL_PD),
                     definiteness=1)
    assert definiteness_consistency(
        pipeline.analyze_diagram(rec, 1).form, 1).result == NOT_OBSTRUCTED
    with pytest.raises(ValueError):
        pipeline.analyze_diagram(rec, sign)


# --- generator orbit ---------------------------------------------------------


def test_generator_values_examples():
    assert generator_values(cyclic_form(3, 1)) == {Fraction(1, 3)}
    assert generator_values(cyclic_form(5, 1)) == {Fraction(1, 5), Fraction(4, 5)}
    orbit = generator_values(cyclic_form(51, 20))
    assert Fraction(20, 51) in orbit
    assert Fraction(1, 51) not in orbit and Fraction(50, 51) not in orbit


def test_generator_values_invariant_under_generator_change():
    n, k = 51, 20
    base = generator_values(cyclic_form(n, k))
    for m in (2, 4, 7, 10):
        if gcd(m, n) == 1:
            other = generator_values(cyclic_form(n, (m * m * k) % n))
            assert other == base


def test_represents_and_square_class_describe_the_orbit():
    for n in range(3, 50, 2):
        forms = [cyclic_form(n, k) for k in range(1, n) if gcd(k, n) == 1]
        orbits = [generator_values(form) for form in forms]
        classes = [square_class(form) for form in forms]
        for form, orbit, cls in zip(forms, orbits, classes):
            assert [represents(form, c) for c in range(-n, n)] == [
                Fraction(c, n) % 1 in orbit for c in range(-n, n)], form
            assert ([other == cls for other in classes]
                    == [other == orbit for other in orbits]), form


def test_square_class_is_legendre_symbols():
    form = cyclic_form(3 ** 4 * 5 * 17, 7)
    assert square_class(form) == {3: 1, 5: -1, 17: -1}
    assert square_class(cyclic_form(9 * 5, 7)) == {3: 1, 5: -1}
    assert square_class(cyclic_form(1, 0)) == {}


def test_generator_values_needs_cyclic():
    f = LinkingForm(group=FiniteAbelianGroup((3, 3)), b=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        generator_values(f)


# --- Mobius obstructions ------------------------------------------------------


def oracle_mobius(n, k):
    """Exhaustive element loop: any a with lambda(a,a) == +-1/n, either sign."""
    targets = {Fraction(1, n), Fraction(-1, n) % 1}
    v = Fraction(k, n)
    for m in range(n):
        for sign in (1, -1):
            if (sign * m * m * v) % 1 in targets:
                return NOT_OBSTRUCTED
    return OBSTRUCTED


def exponents_all_odd(n):
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2 == 0:
                return False
        p += 1
    return True


def test_mobius_cyclic_published_values():
    assert mobius_obstruction_cyclic(cyclic_form(51, 20)).result == OBSTRUCTED
    assert mobius_obstruction_cyclic(cyclic_form(55, 42)).result == OBSTRUCTED
    v = mobius_obstruction_cyclic(cyclic_form(47, 1))
    assert v.result == NOT_OBSTRUCTED and v.witness


def test_mobius_cyclic_preconditions():
    assert mobius_obstruction_cyclic(cyclic_form(9, 1)).result == INAPPLICABLE
    assert mobius_obstruction_cyclic(cyclic_form(63, 61)).result == INAPPLICABLE
    f33 = LinkingForm(group=FiniteAbelianGroup((3, 3)), b=((1, 0), (0, 1)))
    assert mobius_obstruction_cyclic(f33).result == INAPPLICABLE
    assert mobius_obstruction_cyclic(cyclic_form(27, 2)).result in (
        OBSTRUCTED, NOT_OBSTRUCTED)  # 27 = 3^3 has odd exponent: applicable


def test_mobius_cyclic_vs_oracle_small_sweep():
    rng = random.Random(17)
    for n in range(3, 61, 2):
        if not exponents_all_odd(n):
            continue
        units = [k for k in range(1, n) if gcd(k, n) == 1]
        for k in rng.sample(units, min(8, len(units))):
            got = mobius_obstruction_cyclic(cyclic_form(n, k)).result
            assert got == oracle_mobius(n, k), (n, k)


def test_mobius_p2q_published_values():
    assert mobius_obstruction_p2q(cyclic_form(63, 61)).result == OBSTRUCTED
    assert mobius_obstruction_p2q(cyclic_form(63, 11)).result == OBSTRUCTED
    assert mobius_obstruction_p2q(cyclic_form(63, 1)).result == NOT_OBSTRUCTED


def test_mobius_p2q_preconditions():
    # the order alone decides: one prime squared, every other prime once
    for n, k in ((1, 0), (15, 2), (27, 2), (225, 2), (81, 2), (9 * 25 * 7, 2)):
        assert mobius_obstruction_p2q(cyclic_form(n, k)).result == INAPPLICABLE
    f33 = LinkingForm(group=FiniteAbelianGroup((3, 3)), b=((1, 0), (0, 1)))
    assert mobius_obstruction_p2q(f33).result == INAPPLICABLE
    for n, k in ((25, 1), (75, 2), (45, 2), (63, 61)):
        assert mobius_obstruction_p2q(cyclic_form(n, k)).result in (
            OBSTRUCTED, NOT_OBSTRUCTED)


def test_mobius_p2q_applies_exactly_on_prime_square_orders():
    for n in range(1, 3001, 2):
        exponents = factorint(n)
        shape = sorted(exponents.values())
        expected = shape.count(2) == 1 and shape.count(1) == len(shape) - 1
        applies = mobius_obstruction_p2q(cyclic_form(n, 1)).result != INAPPLICABLE
        assert applies == expected, n


# --- the exhaustive generator loops as a reference -----------------------------
#
# The loops below walk every generator m*g and both global signs, as the
# verdicts once did; the square-class verdicts must reproduce their results
# and witness texts exactly.


def loop_generator_verdict(n, k, targets, exhausted):
    for m in range(1, n + 1):
        if gcd(m, n) == 1:
            for sign in (1, -1):
                hit = (sign * m * m * k) % n
                if hit in targets:
                    return (NOT_OBSTRUCTED,
                            f"generator {m}*g has lambda = {Fraction(hit, n)} "
                            f"(global sign {sign:+d})")
    return OBSTRUCTED, exhausted


def loop_mobius_cyclic(n, k):
    if not exponents_all_odd(n):
        return INAPPLICABLE, f"order {n} has a prime of even exponent"
    return loop_generator_verdict(
        n, k, {1 % n, (-1) % n},
        f"exhausted all {n} multiples: no generator self-links to +-1/{n} "
        f"under either sign")


def loop_mobius_p2q(n, k, p, q):
    return loop_generator_verdict(
        n, k, {1 % n, (-1) % n, (p * p) % n, (-p * p) % n},
        f"exhausted all generators of Z_{n}: none self-links to "
        f"+-1/{n} or +-1/{q} under either sign")


def loop_definiteness(n, k):
    """Verdicts for required signs +1 and -1, from the generator orbit."""
    orbit = {(m * m * k) % n for m in range(1, n) if gcd(m, n) == 1}
    plus, minus = 1 in orbit, (n - 1) in orbit
    if not plus and not minus:
        return [(INAPPLICABLE, f"no generator self-links to +-1/{n}")] * 2
    if plus and minus:
        return [(NOT_OBSTRUCTED, "both signs of 1/n are represented")] * 2
    epsilon = 1 if plus else -1
    return [(NOT_OBSTRUCTED,
             f"form sign {epsilon:+d} matches required definiteness")
            if epsilon == required else
            (OBSTRUCTED,
             f"form represents {epsilon:+d}/{n} but the bounding cover must "
             f"be {'positive' if required > 0 else 'negative'} definite")
            for required in (1, -1)]


def prime_square_split(n):
    """(p, q) with n = p^2 q, p prime, q squarefree and prime to p; or None."""
    exponents = factorint(n)
    squares = [p for p, e in exponents.items() if e == 2]
    if len(squares) != 1 or max(exponents.values()) > 2:
        return None
    p = squares[0]
    return p, n // (p * p)


def pair(verdict):
    return verdict.result, verdict.witness


def assert_verdicts_match_loops(n, k, split):
    form = cyclic_form(n, k, sign_fixed=True)
    assert pair(mobius_obstruction_cyclic(form)) == loop_mobius_cyclic(n, k), (n, k)
    if split is None:
        assert mobius_obstruction_p2q(form).result == INAPPLICABLE, (n, k)
    else:
        p, q = split
        assert (pair(mobius_obstruction_p2q(form))
                == loop_mobius_p2q(n, k, p, q)), (n, k)
    assert [pair(definiteness_consistency(form, required))
            for required in (1, -1)] == loop_definiteness(n, k), (n, k)


def test_verdicts_match_generator_loops_for_every_unit_up_to_300():
    for n in range(3, 301, 2):
        split = prime_square_split(n)
        for k in range(1, n):
            if gcd(k, n) == 1:
                assert_verdicts_match_loops(n, k, split)


P2Q_ORDERS = [n for n in range(9, 10**4 + 1, 2) if prime_square_split(n)]


@st.composite
def cyclic_orders_and_units(draw):
    n = draw(st.one_of(st.integers(1, 4999).map(lambda h: 2 * h + 1),
                       st.integers(1, 8).map(lambda e: 3 ** e),
                       st.sampled_from(P2Q_ORDERS)))
    k = draw(st.integers(1, n - 1).filter(lambda k: gcd(k, n) == 1))
    return n, k


@settings(max_examples=150, deadline=None)
@given(cyclic_orders_and_units())
def test_verdicts_match_generator_loops_up_to_1e4(case):
    n, k = case
    assert_verdicts_match_loops(n, k, prime_square_split(n))


def test_mobius_p2q_is_the_plus_minus_k_square_class_test():
    for n in P2Q_ORDERS[:60]:
        squares = {(x * x) % n for x in range(n)}
        for k in range(1, n):
            if gcd(k, n) == 1:
                represented = k in squares or (-k) % n in squares
                verdict = mobius_obstruction_p2q(cyclic_form(n, k))
                assert verdict.obstructed == (not represented), (n, k)


def test_factorize_matches_sympy():
    assert factorize(1) == {}
    for n in list(range(2, 3000)) + [2 ** 40, 3 ** 5 * 7 ** 2 * 10007,
                                     (10 ** 6 + 3) * (10 ** 6 + 33)]:
        assert factorize(n) == factorint(n), n


# --- Klein discriminant -------------------------------------------------------


def hyperbolic(p):
    return LinkingForm(group=FiniteAbelianGroup((p, p)), b=((0, 1), (1, 0)))


def diag_form(p, a, b):
    return LinkingForm(group=FiniteAbelianGroup((p, p)), b=((a, 0), (0, b)))


def test_klein_discriminant_examples():
    assert klein_discriminant(hyperbolic(5)).result == NOT_OBSTRUCTED
    assert klein_discriminant(diag_form(3, 1, 1)).result == NOT_OBSTRUCTED
    # det(p*lambda) = 2 and +-squares mod 5 are {1, 4}: obstructed
    assert klein_discriminant(diag_form(5, 1, 2)).result == OBSTRUCTED
    assert klein_discriminant(cyclic_form(25, 1)).result == INAPPLICABLE
    # Z9 + Z9 and Z3 + Z9 are not Zp + Zp for a prime p
    assert klein_discriminant(diag_form(9, 1, 1)).result == INAPPLICABLE
    z3_z9 = LinkingForm(group=FiniteAbelianGroup((3, 9)), b=((1, 0), (0, 1)))
    assert klein_discriminant(z3_z9).result == INAPPLICABLE


def test_klein_insensitive_to_global_sign():
    f = diag_form(5, 1, 2)
    assert klein_discriminant(f).result == klein_discriminant(f.fix_sign(-1)).result


def test_klein_reads_the_off_diagonal_entry():
    # disc = 1*2 - 1*1 = 1 mod 5; a*c + b*b would read 3, which is not
    # +-square mod 5 (the +-squares are 1 and 4), and flip the verdict
    f = LinkingForm(group=FiniteAbelianGroup((5, 5)), b=((1, 1), (1, 2)))
    for sign in (1, -1):
        verdict = klein_discriminant(f.fix_sign(sign))
        assert verdict.result == NOT_OBSTRUCTED
        assert verdict.witness.startswith("discriminant 1 ")


def klein_by_squares_set(p, disc):
    """The discriminant rule with the nonzero squares mod p listed out."""
    squares = {(x * x) % p for x in range(1, p)}
    represented = disc in squares or (-disc) % p in squares
    return NOT_OBSTRUCTED if represented else OBSTRUCTED


def test_klein_euler_criterion_matches_squares_set():
    for p in range(3, 201, 2):
        if factorint(p) != {p: 1}:
            continue
        for disc in range(1, p):
            verdict = klein_discriminant(diag_form(p, 1, disc))
            assert verdict.result == klein_by_squares_set(p, disc), (p, disc)


def test_klein_obstructed_witness_is_one_short_line():
    verdict = klein_discriminant(diag_form(10009, 1, 7))
    assert verdict.result == OBSTRUCTED
    assert "\n" not in verdict.witness and len(verdict.witness) < 100
    assert pow(7, (10009 - 1) // 2, 10009) == 10009 - 1
    assert f"7^{(10009 - 1) // 2} = -1" in verdict.witness


# --- definiteness consistency ---------------------------------------------------


def test_definiteness_published_cases():
    # +1/3 against required negative definiteness: contradiction
    assert definiteness_consistency(cyclic_form(3, 1, sign_fixed=True),
                                    -1).result == OBSTRUCTED
    # -1/79 against required negative: consistent
    assert definiteness_consistency(cyclic_form(79, 78, sign_fixed=True),
                                    -1).result == NOT_OBSTRUCTED
    # +1/47 against required positive: consistent
    assert definiteness_consistency(cyclic_form(47, 1, sign_fixed=True),
                                    1).result == NOT_OBSTRUCTED


def test_definiteness_inapplicable_cases():
    assert definiteness_consistency(cyclic_form(51, 20, sign_fixed=True),
                                    1).result == INAPPLICABLE  # no +-1/51 generator
    assert definiteness_consistency(cyclic_form(47, 1, sign_fixed=True),
                                    None).result == INAPPLICABLE


def test_definiteness_requires_sign_fixed_form():
    with pytest.raises(ValueError):
        definiteness_consistency(cyclic_form(47, 1), 1)


def test_definiteness_ambiguous_sign_is_unobstructed():
    # -1 is a square mod 5, so both +1/5 and -1/5 are generator values
    f = cyclic_form(5, 1, sign_fixed=True)
    assert definiteness_consistency(f, 1).result == NOT_OBSTRUCTED
    assert definiteness_consistency(f, -1).result == NOT_OBSTRUCTED
