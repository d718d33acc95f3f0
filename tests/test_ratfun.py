"""Exact polynomial / rational-function kernel: canonical forms, gcd,
field laws, specialization, residues, factored sums, text round-trips."""

import math
import random
from fractions import Fraction

import pytest

from stablepairs.ratfun import (
    FactoredRatFun,
    Poly,
    PoleOrderError,
    RatFun,
    poly_gcd,
    poly_parse,
    poly_str,
    ratfun_parse,
    ratfun_str,
    residue_at,
    specialize,
    sum_factored,
    _kronecker_sum,
    _primitive_form,
)

ARITY = 4

L0 = Poly.variable(0, ARITY)
L1 = Poly.variable(1, ARITY)
L2 = Poly.variable(2, ARITY)
L3 = Poly.variable(3, ARITY)


def const(value):
    return Poly.constant(Fraction(value), ARITY)


def random_poly(rng, max_terms=2, max_deg=1, max_c=3, allow_zero=True):
    p = Poly.zero(ARITY)
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ARITY))
        c = Fraction(rng.randint(-max_c, max_c), rng.randint(1, max_c))
        p = p + Poly(ARITY, {mono: c})
    if not allow_zero and p.is_zero():
        return Poly.one(ARITY)
    return p


def random_ratfun(rng, **kw):
    num = random_poly(rng, **kw)
    den = random_poly(rng, allow_zero=False, **kw)
    return RatFun(num, den)


# -- polynomial arithmetic ------------------------------------------------------------


def test_poly_basic_identities():
    p = L0 * L0 - L3 * L3
    q = (L0 - L3) * (L0 + L3)
    assert p == q
    assert (L0 + L1) ** 2 == L0 * L0 + L0 * L1 * 2 + L1 * L1
    assert p - p == Poly.zero(ARITY)
    assert p * Poly.one(ARITY) == p
    assert hash(p) == hash(q)


def test_graded_lex_leading_monomial():
    # total degree first, then lexicographic with l0 > l1 > l2 > l3
    p = L1 * L1 + L0 * L2 + L3 * 5 + const(7)
    assert p.leading_monomial() == (1, 0, 1, 0)
    assert (L1 * L1 + L0).leading_monomial() == (0, 2, 0, 0)


def test_content_and_primitive():
    p = L0 * 6 + L3 * 9
    assert p.content() == Fraction(3)
    assert p.primitive() == L0 * 2 + L3 * 3
    q = L0 * Fraction(1, 2) + L3 * Fraction(3, 4)
    assert q.content() == Fraction(1, 4)
    assert q.primitive() == L0 * 2 + L3 * 3


def test_linear_form_and_degree_queries():
    f = Poly.linear_form((1, 0, 0, -2), ARITY)
    assert f == L0 - L3 * 2
    p = L0 * L0 * L3 + L0 * 3
    assert p.degree_in(0) == 2
    assert p.degree_in(3) == 1
    assert p.coeff_in(0, 2) == L3
    assert p.coeff_in(0, 1) == const(3)
    assert p.used_variables() == {0, 3}


def test_subs_numeric_and_polynomial():
    p = L0 * L0 - L3
    assert p.subs({0: Fraction(3), 3: Fraction(2)}) == const(7)
    # polynomial substitution: l0 -> l1 + l2
    q = p.subs({0: L1 + L2})
    assert q == (L1 + L2) * (L1 + L2) - L3


def test_exact_division():
    p = (L0 + L3) * (L0 - L3 * 2)
    assert p.exact_div(L0 + L3) == L0 - L3 * 2
    assert (L0 * L0).try_divide(L0 + L1) is None
    with pytest.raises(ValueError):
        p.exact_div(L1 + const(1))


def scanned_try_divide(p, divisor):
    """Poly.try_divide finding each leading term by a scan of the remainder:
    the reference for its heap."""
    lead_d = divisor.leading_monomial()
    remainder, quotient = dict(p.coeffs), {}
    while remainder:
        lead_r = max(remainder, key=lambda m: (sum(m), m))
        shift = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(e < 0 for e in shift):
            return None
        factor = remainder[lead_r] / divisor.coeffs[lead_d]
        quotient[shift] = factor
        for m, c in divisor.coeffs.items():
            mono = tuple(a + b for a, b in zip(m, shift))
            s = remainder.get(mono, Fraction(0)) - factor * c
            if s == 0:
                remainder.pop(mono, None)
            else:
                remainder[mono] = s
    return Poly(p.arity, quotient)


def test_try_divide_matches_the_scanned_division():
    rng = random.Random(20141)
    outcomes = {True: 0, False: 0}
    for case in range(400):
        arity = 1 + case % 5
        a, b = (random_small_poly(rng, arity, max_terms=6, max_deg=3) for _ in range(2))
        if b.is_zero():
            continue
        # a multiple of b, or in every other case a multiple plus a remainder
        # that b usually does not divide
        p = a * b if case % 2 else a * b + random_small_poly(rng, arity)
        expected = scanned_try_divide(p, b)
        got = p.try_divide(b)
        assert got == expected, (case, p, b)
        if got is not None:
            assert list(got.coeffs) == list(expected.coeffs), case
        outcomes[got is not None] += 1
    assert min(outcomes.values()) > 50, outcomes


# -- gcd ------------------------------------------------------------------------------


def test_gcd_pinned_examples():
    assert poly_gcd(L0 * L3 * 2, L0 * L0 * 4) == L0 * 2
    assert poly_gcd(L0 * L0 - L3 * L3, L0 + L3) == L0 + L3
    p = L0 * 6 + L1 * 4
    assert poly_gcd(p, Poly.one(ARITY)) == Poly.one(ARITY)
    assert poly_gcd(Poly.zero(ARITY), p) == p


def test_gcd_rational_content():
    # gcd of rational contents: gcd(p1/q1, p2/q2) = gcd(p1,p2)/lcm(q1,q2)
    a = L0 * Fraction(2, 3)
    b = L0 * Fraction(4, 5)
    assert poly_gcd(a, b) == L0 * Fraction(2, 15)


def test_gcd_divides_both_with_coprime_quotients():
    rng = random.Random(101)
    for _ in range(60):
        common = random_poly(rng, allow_zero=False)
        a = random_poly(rng) * common
        b = random_poly(rng, allow_zero=False) * common
        g = poly_gcd(a, b)
        if a.is_zero():
            continue
        qa = a.exact_div(g)
        qb = b.exact_div(g)
        assert poly_gcd(qa, qb).is_constant()
        assert g.try_divide(common) is not None  # common divides the gcd


def test_gcd_symmetric_and_self():
    rng = random.Random(102)
    for _ in range(40):
        a = random_poly(rng, allow_zero=False)
        b = random_poly(rng, allow_zero=False)
        assert poly_gcd(a, b) == poly_gcd(b, a)
        # gcd(a, a) is a itself up to the positive-leading sign convention
        assert poly_gcd(a, a) == a.scale(a.monic_sign())


def test_gcd_and_canonical_forms_match_sympy():
    """poly_gcd and RatFun against sympy, arity 1-4, with pairs in which one
    side, either one, lacks the smallest variable the pair uses: gcd(a, b) is
    sympy's up to a constant, and RatFun(a, b) has a numerator and
    denominator coprime by sympy.gcd, the value of sympy.cancel, and an
    integer-primitive denominator with positive grlex-leading coefficient."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9)
    lacking = {"a": 0, "b": 0}
    for arity in range(1, 5):
        gens = sympy.symbols(f"l0:{arity}")

        def to_sympy(p):
            return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                               * sympy.Mul(*(g**e for g, e in zip(gens, m)))
                               for m, c in p.coeffs.items()))

        pairs = []
        for _ in range(30):
            common = random_small_poly(rng, arity, max_deg=1) + Poly.one(arity)
            a = random_small_poly(rng, arity) * common
            b = (random_small_poly(rng, arity) + Poly.one(arity)) * common
            if rng.random() < 0.5:  # b without l0, a with it
                b = b.subs({0: Fraction(rng.randint(-2, 2))})
                a = a * (Poly.variable(0, arity) + Poly.one(arity))
            if b.is_zero():
                continue
            pairs.append((a, b))
            if a.degree_in(0) > 0 and b.degree_in(0) == 0 and not b.is_constant():
                pairs.append((b, a))  # the same pair with a lacking l0
        for a, b in pairs:
            for side, without, with_ in (("a", a, b), ("b", b, a)):
                if with_.degree_in(0) > 0 and without.degree_in(0) == 0 \
                        and not without.is_constant():
                    lacking[side] += 1
            A, B = to_sympy(a), to_sympy(b)
            ratio = sympy.cancel(to_sympy(poly_gcd(a, b)) / sympy.gcd(A, B))
            assert ratio.is_number and ratio != 0, (a, b)

            f = RatFun(a, b)
            num, den = to_sympy(f.num), to_sympy(f.den)
            assert sympy.gcd(num, den).is_number, (a, b)
            p, q = sympy.fraction(sympy.cancel(A / B))
            assert sympy.expand(num * q - p * den) == 0, (a, b)
            den_poly = sympy.Poly(den, *gens)
            assert all(c.is_integer for c in den_poly.coeffs()), (a, b)
            assert sympy.igcd(*den_poly.coeffs(), 0) == 1, (a, b)
            assert den_poly.LC(order="grlex") > 0, (a, b)
    assert min(lacking.values()) >= 20, lacking


# -- rational functions ---------------------------------------------------------------


def test_ratfun_canonical_reduction():
    rng = random.Random(103)
    for _ in range(50):
        a = random_poly(rng)
        b = random_poly(rng, allow_zero=False)
        c = random_poly(rng, allow_zero=False)
        assert RatFun(a * c, b * c) == RatFun(a, b)


def test_ratfun_denominator_normalization():
    f = RatFun(L0, L3 * -2)
    # canonical denominator is primitive with positive leading coefficient
    assert ratfun_str(f) == "(-1/2*l0)/(l3)"
    g = RatFun(L0 * 3, L3 * 6)
    assert ratfun_str(g) == "(1/2*l0)/(l3)"


def test_ratfun_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(L0, Poly.zero(ARITY))
    with pytest.raises(ZeroDivisionError):
        RatFun.one() / RatFun.zero()


def test_field_laws_on_random_triples():
    rng = random.Random(104)
    for _ in range(1000):
        f = random_ratfun(rng)
        g = random_ratfun(rng)
        h = random_ratfun(rng)
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) - g == f
        if not g.is_zero():
            assert (f * g) / g == f
    assert RatFun.one() + RatFun.constant(-1) == RatFun.zero()


def test_ratfun_pow_and_as_fraction():
    f = RatFun(L0 + L3, L3)
    assert f**0 == RatFun.one()
    assert f**2 == f * f
    assert f**-1 == RatFun(L3, L0 + L3)
    assert RatFun.constant(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        f.as_fraction()


def test_poly_powers_are_repeated_products():
    """Poly ** e for e = 0..5 is the product of e copies of the base, in
    arity 1-4, zero and constant bases included; e < 0 raises ValueError."""
    rng = random.Random(30)
    for arity in range(1, 5):
        bases = [Poly.zero(arity), Poly.one(arity), Poly.constant(Fraction(-2, 3), arity)]
        bases += [random_small_poly(rng, arity, max_terms=3) for _ in range(8)]
        for base in bases:
            product = Poly.one(arity)
            for e in range(6):
                assert base**e == product
                product = product * base
            with pytest.raises(ValueError):
                base**-1


def test_ratfun_powers_are_repeated_products():
    """RatFun ** e for e = -3..3 is the product of |e| copies of the base or
    of its reciprocal; a zero base raises ZeroDivisionError for e < 0."""
    rng = random.Random(31)
    bases = [RatFun.zero(), RatFun.constant(Fraction(-3, 2)), RatFun(L0 + L3, L3)]
    bases += [random_ratfun(rng) for _ in range(30)]
    for f in bases:
        for e in range(-3, 4):
            if e < 0 and f.is_zero():
                with pytest.raises(ZeroDivisionError):
                    f**e
                continue
            factor = f if e >= 0 else RatFun.one() / f
            product = RatFun.one()
            for _ in range(abs(e)):
                product = product * factor
            assert f**e == product


# -- specialization -------------------------------------------------------------------


def test_specialize_is_a_homomorphism():
    rng = random.Random(105)
    point = {0: Fraction(2), 1: Fraction(-1), 2: Fraction(3), 3: Fraction(5)}
    for _ in range(40):
        f = random_ratfun(rng)
        g = random_ratfun(rng)
        try:
            fs = specialize(f, point)
            gs = specialize(g, point)
            both = specialize(f + g, point)
            prod = specialize(f * g, point)
        except ZeroDivisionError:
            continue
        assert both == fs + gs
        assert prod == fs * gs


def test_specialize_calabi_yau_elimination():
    # l0 -> -l1 - l2 - l3 models the trace-free reduction of the torus
    f = RatFun(L0 + L1 + L2 + L3, L3)
    assert specialize(f, {0: -L1 - L2 - L3}) == RatFun.zero()
    g = RatFun(L0, L3)
    assert specialize(g, {0: -L1 - L2 - L3}) == RatFun(-L1 - L2 - L3, L3)


def test_specialize_vanishing_denominator_raises():
    f = RatFun(Poly.one(ARITY), L0 - L3)
    with pytest.raises(ZeroDivisionError):
        specialize(f, {0: L3})


# -- residues -------------------------------------------------------------------------


def test_residues_of_simple_pole_product():
    # f = (l0 + 1) / ((l0 - 1) l0 (l0 + 2)); residues by cover-up rule
    num = L0 + const(1)
    den = (L0 - const(1)) * L0 * (L0 + const(2))
    f = RatFun(num, den)
    assert residue_at(f, 1) == RatFun.constant(Fraction(2, 3))
    assert residue_at(f, 0) == RatFun.constant(Fraction(-1, 2))
    assert residue_at(f, -2) == RatFun.constant(Fraction(-1, 6))
    # proper with degree gap >= 2: residues sum to zero
    total = residue_at(f, 1) + residue_at(f, 0) + residue_at(f, -2)
    assert total.is_zero()
    # no pole there at all
    assert residue_at(f, 7).is_zero()


def test_residue_rejects_higher_order_poles():
    f = RatFun(Poly.one(ARITY), (L0 - const(2)) ** 2)
    with pytest.raises(PoleOrderError):
        residue_at(f, 2)
    # but other points of the same function are fine
    assert residue_at(f, 3).is_zero()


def test_residue_keeps_spectator_variables():
    f = RatFun(L3, (L0 - const(2)) * L1)
    assert residue_at(f, 2) == RatFun(L3, L1)


def test_residue_linearity_for_simple_poles():
    f = RatFun(Poly.one(ARITY), L0 - const(1))
    g = RatFun(L3, L0 - const(1))
    assert residue_at(f + g, 1) == residue_at(f, 1) + residue_at(g, 1)


def test_residue_in_other_variable():
    f = RatFun(L0, L3 - const(4))
    assert residue_at(f, 4, var=3) == RatFun(L0)


def reference_residue_at(f, pole, var=0):
    """The route residue_at took before its split-Horner form: the pole
    order from Poly.subs and exact synthetic division of Poly coefficients,
    then substitution into the numerator and the cofactor."""
    pole = Fraction(pole)
    den, order = f.den, 0
    while den.subs({var: pole}).is_zero():
        degree = den.degree_in(var)
        coeffs = [den.coeff_in(var, power) for power in range(degree + 1)]
        quotient = Poly(den.arity)
        carry = coeffs[degree]
        for power in range(degree - 1, -1, -1):
            quotient = quotient + carry.shift_var(var, power)
            carry = coeffs[power] + carry.scale(pole)
        assert carry.is_zero()
        den, order = quotient, order + 1
    if order == 0:
        return RatFun.zero(f.arity)
    if order >= 2:
        raise PoleOrderError(f"pole of order {order}")
    return RatFun(f.num.subs({var: pole}), den.subs({var: pole}))


def random_pole(rng):
    """An integer, or a rational that is not one."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(-3, 3))
    q = rng.randint(2, 4)
    return Fraction(rng.choice([k for k in range(-7, 8) if k % q]), q)


def random_small_poly(rng, arity, max_terms=2, max_deg=2, max_c=3):
    p = Poly.zero(arity)
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(arity))
        p = p + Poly(arity, {mono: Fraction(rng.randint(-max_c, max_c), rng.randint(1, max_c))})
    return p


def linear_factor(var, arity, pole):
    """q*l_var - p for pole = p/q: integer coefficients, zero at pole."""
    return (Poly.variable(var, arity) * pole.denominator
            - Poly.constant(pole.numerator, arity))


def test_residue_at_matches_reference_on_random_ratfuns():
    """Arity 1-4, the first and the last variable, poles of order 0, 1 and
    2 at integer and non-integer points, with spectator variables in the
    numerator and the cofactor."""
    rng = random.Random(20261018)
    orders = {0: 0, 1: 0, 2: 0}
    for trial in range(160):
        arity = trial % 4 + 1
        var = rng.choice(sorted({0, arity - 1}))
        pole, order = random_pole(rng), trial % 3
        other = random_pole(rng)
        den = linear_factor(var, arity, pole) ** order * linear_factor(var, arity, other)
        cofactor = random_small_poly(rng, arity, max_deg=1)
        if not cofactor.is_zero():
            den = den * cofactor
        f = RatFun(random_small_poly(rng, arity) + Poly.one(arity), den)
        for point in (pole, other, Fraction(rng.randint(-4, 4))):
            try:
                expected = reference_residue_at(f, point, var)
            except PoleOrderError:
                with pytest.raises(PoleOrderError):
                    residue_at(f, point, var)
                orders[2] += 1
                continue
            assert residue_at(f, point, var) == expected, (f, point, var)
            orders[int(not expected.is_zero())] += 1
    # every kind of point was reached
    assert min(orders.values()) >= 20, orders


def test_residue_at_matches_sympy_on_univariate_ratfuns():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** m[0]
                   for m, c in p.coeffs.items())

    rng = random.Random(7)
    for _ in range(6):  # sympy.residue takes 0.02-0.5 s a call
        poles = list({random_pole(rng) for _ in range(rng.randint(1, 3))})
        factors = [linear_factor(0, 1, pole) for pole in poles]
        if rng.random() < 0.3:
            factors.append(Poly.variable(0, 1) ** 2 + Poly.one(1))
        num = random_small_poly(rng, 1, max_terms=3, max_deg=3) + Poly.one(1)
        den = Poly.one(1)
        for factor in factors:
            den = den * factor
        f = RatFun(num, den)
        expr = to_sympy(num) / sympy.Mul(*map(to_sympy, factors))
        for point in poles:
            expected = sympy.residue(expr, x, sympy.Rational(point.numerator, point.denominator))
            got = residue_at(f, point).as_fraction()
            assert got == Fraction(int(expected.p), int(expected.q)), (f, point)


# -- factored products and sums -------------------------------------------------------


def test_factored_ratfun_expansion():
    term = FactoredRatFun.product(
        Fraction(1, 2), [((0, 0, 0, 1), -2), ((1, 0, 0, 1), 1)]
    )
    assert term.to_ratfun(ARITY) == RatFun((L0 + L3) * Fraction(1, 2), L3 * L3)


def test_factored_form_sign_normalization():
    # -l0 + l3 and l0 - l3 are the same factor up to the scalar unit
    a = FactoredRatFun.product(Fraction(1), [((-1, 0, 0, 1), 1)])
    b = FactoredRatFun.product(Fraction(-1), [((1, 0, 0, -1), 1)])
    assert a.to_ratfun(ARITY) == b.to_ratfun(ARITY)


def test_sum_factored_matches_naive_sum():
    rng = random.Random(106)
    forms = [(1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 0, -1)]
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(1, 5)):
            t = FactoredRatFun.product(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                [(rng.choice(forms), rng.choice([-2, -1, 1]))
                 for _ in range(rng.randint(0, 3))],
            )
            terms.append(t)
        expected = RatFun.zero()
        for t in terms:
            expected = expected + t.to_ratfun(ARITY)
        assert sum_factored(terms, ARITY) == expected


def test_sum_factored_cancellation_to_zero():
    plus = FactoredRatFun.product(Fraction(1), [((0, 0, 0, 1), -1)])
    minus = FactoredRatFun.product(Fraction(-1), [((0, 0, 0, 1), -1)])
    assert sum_factored([plus, minus], ARITY).is_zero()


def naive_ratfun(term, arity):
    """A factored term expanded by generic Poly products and gcd reduction,
    independent of the packed expansion."""
    num = Poly.constant(term.scalar, arity)
    den = Poly.one(arity)
    for form, e in term.forms.items():
        if e > 0:
            num = num * Poly.linear_form(form, arity) ** e
        else:
            den = den * Poly.linear_form(form, arity) ** (-e)
    return RatFun(num, den)


def cleared_naive_sum(terms, arity):
    """(D, sum(term * D)) as Poly products, no gcd: D is the product of every
    denominator form to its largest power among the terms."""
    need = {}
    for t in terms:
        for form, e in t.forms.items():
            need[form] = max(need.get(form, 0), -e)
    den, num = Poly.one(arity), Poly.zero(arity)
    for form, e in need.items():
        den = den * Poly.linear_form(form, arity) ** e
    for t in terms:
        product = Poly.constant(t.scalar, arity)
        for form, lift in need.items():
            product = product * Poly.linear_form(form, arity) ** (lift + t.forms.get(form, 0))
        num = num + product
    return den, num


def poly_value(poly, point):
    """poly at an integer point, exactly."""
    return sum(c * math.prod(x**e for x, e in zip(point, mono))
               for mono, c in poly.coeffs.items())


def seeded_points(seed, arity):
    """Two integer points with entries below 2**32: a nonzero polynomial of
    degree D vanishes at one with probability at most D / 2**32."""
    rng = random.Random(seed)
    return [[rng.randrange(1, 2**32) for _ in range(arity)] for _ in range(2)]


def random_form(rng, arity):
    """A nonzero integer linear form with up to four entries as large as 10**6."""
    coefficients = [0] * arity
    for i in rng.sample(range(arity), rng.randint(1, min(4, arity))):
        coefficients[i] = rng.choice([1, -1]) * rng.choice(
            [1, 2, 7, rng.randint(1, 10**6)]
        )
    return tuple(coefficients)


def random_scalar(rng):
    magnitude = rng.choice([1, 3, 2**64, 2**64 - 1, rng.randint(1, 10**6)])
    return Fraction(rng.choice([1, -1]) * magnitude, rng.choice([1, 6, 10**6]))


def random_term(rng, pool, degree=None):
    """A term with up to two random factors, and a third of the given total
    degree when one is asked for."""
    factors = [
        (rng.choice(pool), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        for _ in range(rng.randint(0, 2))
    ]
    if degree is not None:
        factors.append((rng.choice(pool), degree - sum(e for _, e in factors)))
    return FactoredRatFun.product(random_scalar(rng), factors)


def mirror_image(term):
    """term under l0 -> -l0: every form with its l0 entry negated, normalized
    again by FactoredRatFun.product."""
    return FactoredRatFun.product(
        term.scalar, [((-form[0], *form[1:]), e) for form, e in term.forms.items()])


def assert_sum_at_points(total, terms, arity, case):
    """total equals the sum of the terms at two seeded integer points, each
    term evaluated form by form in Fractions, with no expansion."""
    for point in seeded_points(case, arity):
        expected = 0
        for t in terms:
            value = t.scalar
            for form, e in t.forms.items():
                at = sum(c * x for c, x in zip(form, point))
                assert at, (case, form, point)
                value *= Fraction(at) ** e
            expected += value
        assert poly_value(total.num, point) == expected * poly_value(total.den, point), case


def test_sum_factored_matches_naive_sum_randomized(packing_bounds_seen):
    """Arity 1-5, large form coefficients, exponents +-1..4, mixed degrees,
    terms without forms, and terms that cancel exactly; then 5-17 terms of
    one degree in arity 2-4 and 5-13 in arity 5, summed as a tree of
    halves, with cancelling pairs in different halves.  Every packing bound
    must equal the lifted reference (packing_bounds_seen).

    The mirrored sum of the same terms is the naive sum of the terms and
    their images under l0 -> -l0; so is a lone term over l0 and a form with
    a nonzero l0 entry, whose two halves share the factor l0 (the mirrored
    sum reduces even one term), and, with self-mirror terms at half weight,
    each term times its image.  Each term less its image folds to zero."""
    rng = random.Random(2024)
    mirror_rng = random.Random(2025)  # apart, so that rng draws the former terms
    for case in range(40 + 10 + 5):
        arity = 1 + case % 5 if case < 40 else 2 + case % 3 if case < 50 else 5
        pool = [random_form(rng, arity) for _ in range(3)]
        if case < 40:
            terms = [random_term(rng, pool) for _ in range(rng.randint(1, 3))]
            if case % 4 == 0:
                terms.append(terms[0].times_scalar(-1))
        else:
            # one total degree, so that all terms meet in one product tree
            count = [5, 6, 7, 9, 11, 12, 13, 15, 16, 17, 5, 7, 9, 11, 13][case - 40]
            degree = rng.randint(-4, 2)
            terms = [random_term(rng, pool, degree) for _ in range(count)]
            # the top split is at count // 2: cancel across it, twice
            terms[-1] = terms[0].times_scalar(-1)
            terms[count // 2] = terms[1].times_scalar(-1)
        if case < 40:
            expected = RatFun.zero(arity)
            for t in terms:
                expanded = naive_ratfun(t, arity)
                assert t.to_ratfun(arity) == expanded, (case, t)
                expected = expected + expanded
            assert sum_factored(terms, arity) == expected, (case, terms)
        else:
            # the generic gcd is too slow at this size: cross-multiply instead,
            # in arity 5 at two seeded points (the products take 10-20 s there)
            den, num = cleared_naive_sum(terms, arity)
            total = sum_factored(terms, arity)
            if arity < 5:
                assert total.num * den == total.den * num, (case, terms)
            else:
                for point in seeded_points(case, arity):
                    assert (poly_value(total.num, point) * poly_value(den, point)
                            == poly_value(total.den, point) * poly_value(num, point)), case
        rng.shuffle(terms)
        assert sum_factored(terms + [t.times_scalar(-1) for t in terms], arity).is_zero()
        if case >= 50:
            continue  # the mirrored sums below take 20 s in arity 5
        images = [mirror_image(t) for t in terms]
        assert_sum_at_points(sum_factored(terms, arity, mirrored=True), terms + images,
                             arity, case)
        assert sum_factored(terms + [image.times_scalar(-1) for image in images], arity,
                            mirrored=True).is_zero()
        if case < 40 and arity > 1:
            form = (mirror_rng.randint(1, 7),) + tuple(mirror_rng.choice([0, 1, -2, 3])
                                                       for _ in range(arity - 1))
            lone = FactoredRatFun.product(terms[0].scalar,
                                          [((1,) + (0,) * (arity - 1), -1), (form, -1)])
            assert sum_factored([lone], arity, mirrored=True) == (
                naive_ratfun(lone, arity) + naive_ratfun(mirror_image(lone), arity)), case
            palindromes = [
                FactoredRatFun.product(t.scalar * image.scalar,
                                       [*t.forms.items(), *image.forms.items()])
                for t, image in zip(terms[:2], images)]
            halves = [p.times_scalar(Fraction(1, 2)) for p in palindromes]
            assert_sum_at_points(sum_factored(terms[2:] + halves, arity, mirrored=True),
                                 terms[2:] + images[2:] + palindromes, arity, case)
    # arity 5 packs four variables, three of them below the top one
    assert max(map(len, packing_bounds_seen)) == 3


def packed_sum(products, arity):
    """_kronecker_sum of products over the need their exponents give, in
    the order the products first meet each form."""
    need = {}
    for _, exponents in products:
        for form, e in exponents.items():
            need[form] = max(need.get(form, 0), -e)
    return _kronecker_sum(products, need, arity)


def test_sum_factored_and_the_packed_sum_ignore_term_order():
    """Packing is a ring homomorphism, so the product tree may meet the
    terms in any order: on a shuffled list of nonzero terms sum_factored
    gives the same RatFun, coefficient for coefficient, and _kronecker_sum
    the same coefficients.  Half the cases mix total degrees."""
    rng = random.Random(2717)
    for case in range(24):
        arity = 1 + case % 4
        pool = [random_form(rng, arity) for _ in range(3)]
        degree = rng.randint(-4, 2) if case % 2 else None
        terms = [random_term(rng, pool, degree) for _ in range(rng.randint(2, 13))]
        expected = sum_factored(terms, arity)
        # scalars cleared to ints; _kronecker_sum needs one total degree
        scale = math.lcm(*(t.scalar.denominator for t in terms))
        products = [(t.scalar.numerator * (scale // t.scalar.denominator), t.forms)
                    for t in terms]
        for _ in range(3):
            order = rng.sample(range(len(terms)), len(terms))
            got = sum_factored([terms[i] for i in order], arity)
            assert (got.num.coeffs, got.den.coeffs) == (expected.num.coeffs,
                                                       expected.den.coeffs), case
            assert ratfun_str(got) == ratfun_str(expected), case
            if degree is not None:
                assert (packed_sum([products[i] for i in order], arity)
                        == packed_sum(products, arity)), case


def test_sum_factored_of_many_terms_sharing_one_denominator():
    """Forty terms over one denominator dict of forms j*l0 + e*l3, some with
    numerator forms of different degrees, equal the naive RatFun sum: the
    numerators added as Poly products over that denominator, then one gcd
    reduction.  This is the regime where the product tree lifts no term."""
    rng = random.Random(2718)
    forms = [(1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1), (1, 0, 0, -1), (1, 0, 0, 2),
             (2, 0, 0, 3), (1, 0, 0, -3)]
    for case in range(6):
        den_forms, num_forms = forms[:3 + case % 2], forms[3 + case % 2:]
        den = [(form, -rng.randint(1, 2)) for form in den_forms]
        terms = [
            FactoredRatFun.product(
                random_scalar(rng),
                den + [(rng.choice(num_forms), rng.randint(1, 2))
                       for _ in range(rng.randint(0, 2))])
            for _ in range(40)
        ]
        denominators = {frozenset((f, e) for f, e in t.forms.items() if e < 0)
                        for t in terms}
        assert len(denominators) == 1
        common, num = cleared_naive_sum(terms, ARITY)
        assert sum_factored(terms, ARITY) == RatFun(num, common), case


def test_sum_factored_packing_bounds():
    # one monomial whose coefficient equals the bound, at a power of two
    for scalar in (2**64, -(2**64), 2**64 - 1):
        term = FactoredRatFun.product(scalar, [((0, 1, 0), 3)])
        twice = sum_factored([term, term], 3)
        assert twice == RatFun(Poly(3, {(0, 3, 0): 2 * scalar}))
    # one degree group whose products have different degrees in each variable
    cubes = [FactoredRatFun.product(1, [(form, 3)])
             for form in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1))]
    expected = RatFun.zero(3)
    for t in cubes:
        expected = expected + naive_ratfun(t, 3)
    assert sum_factored(cubes, 3) == expected
    # two variables: the univariate packing of the localization sums
    a = FactoredRatFun.product(3, [((1, 1), 4)])
    assert sum_factored([a, a], 2) == naive_ratfun(a.times_scalar(2), 2)


def two_expansion_ratfun(term, arity):
    """A factored term as a RatFun from two separate packed expansions, one
    of its numerator forms and one of its denominator forms, with the scalar
    multiplied in and no reduction: the reference for to_ratfun."""
    if term.scalar == 0:
        return RatFun.zero(arity)
    num = _kronecker_sum([(1, {f: e for f, e in term.forms.items() if e > 0})], {}, arity)
    den = _kronecker_sum([(1, {f: -e for f, e in term.forms.items() if e < 0})], {}, arity)
    num_poly = Poly(arity, {m: term.scalar * c for m, c in num.items()})
    return RatFun._trusted(num_poly, Poly(arity, den))


def product_of_kind(rng, arity, kind):
    """A FactoredRatFun.product term of one kind: a zero scalar, a constant,
    numerator forms only, denominator forms only, both, or factors that
    product merges (a form met again up to a unit, once cancelling)."""
    pool = [random_form(rng, arity) for _ in range(2)] + [
        tuple(rng.choice([0, 1, -1, 2]) for _ in range(arity - 1)) + (rng.choice([1, -3]),)
    ]
    exponents = {"zero": [-2, -1, 1, 2], "constant": [], "numerator": [1, 2, 3],
                 "denominator": [-1, -2, -3], "mixed": [-3, -2, -1, 1, 2, 3],
                 "merged": [-2, -1, 1, 2]}[kind]
    factors = [(rng.choice(pool), rng.choice(exponents))
               for _ in range(rng.randint(1, 4) if exponents else 0)]
    if kind == "merged":
        form, e = factors[0]
        unit = rng.choice([-1, 2, -5])
        factors.append((tuple(unit * c for c in form), rng.choice([-e, e, 1 - e])))
        factors.append((pool[2], 1))
        factors.append((tuple(-c for c in pool[2]), -1))
    scalar = Fraction(0) if kind == "zero" else random_scalar(rng)
    return FactoredRatFun.product(scalar, factors), factors


def test_to_ratfun_matches_the_two_expansion_reference():
    """to_ratfun, the one-term sum_factored, gives the same canonical RatFun,
    coefficient for coefficient and in text, as separate expansions of the
    numerator and denominator forms, on about 300 product terms of arity
    1-5."""
    rng = random.Random(1515)
    kinds = ["zero", "constant", "numerator", "denominator", "mixed", "merged"]
    covered = set()
    for case in range(300):
        arity = 1 + case % 5
        term, factors = product_of_kind(rng, arity, kinds[case % 6])
        exponents = term.forms.values()
        if term.is_zero():
            covered.add("zero")
        elif not exponents:
            covered.add("constant")
        elif min(exponents) > 0 or max(exponents) < 0:
            covered.add("numerator" if min(exponents) > 0 else "denominator")
        else:
            covered.add("mixed")
        if len(term.forms) < len(factors):
            covered.add("merged")
        got, want = term.to_ratfun(arity), two_expansion_ratfun(term, arity)
        assert got == want, (case, term)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), case
        assert ratfun_str(got) == ratfun_str(want), case
    assert covered == set(kinds)


def test_one_term_sum_runs_no_trial_division(monkeypatch):
    """One nonzero term, alone or beside zero terms, is reduced already: its
    sum calls no Poly.try_divide and equals the gcd-reduced generic RatFun
    of the term (naive_ratfun).  Two terms still trial-divide."""
    rng = random.Random(1516)
    cases = []
    for case in range(60):
        arity = 1 + case % 5
        pool = [tuple(rng.choice([0, 1, -1, 2, -3]) for _ in range(arity - 1))
                + (rng.choice([1, 2, -1]),) for _ in range(3)]
        factors = [(rng.choice(pool), rng.choice([-3, -2, -1, 1, 2]))
                   for _ in range(rng.randint(1, 4))]
        factors.append((pool[0], -1))
        term = FactoredRatFun.product(random_scalar(rng), factors)
        cases.append((term, arity, naive_ratfun(term, arity)))

    def refuse(self, divisor):
        raise AssertionError("a one-term sum was trial-divided")

    monkeypatch.setattr(Poly, "try_divide", refuse)
    for term, arity, want in cases:
        zero = term.times_scalar(0)
        assert sum_factored([term], arity) == want, term
        assert sum_factored([zero, term, zero], arity) == want, term
        assert term.to_ratfun(arity) == want, term
    term, arity, _ = next(c for c in cases if min(c[0].forms.values(), default=0) < 0)
    with pytest.raises(AssertionError, match="trial-divided"):
        sum_factored([term, term], arity)


def test_factored_product_normalizes_in_one_pass():
    # units 2, -1, 5, 3 move into the scalar; equal forms merge
    factors = [((2, 0, 0, -4), 3), ((-1, 0, 0, 2), -1), ((0, 0, 0, 5), -2), ((3, 0, 0, 0), 1)]
    term = FactoredRatFun.product(Fraction(-2, 3), factors)
    assert term.scalar == Fraction(16, 25)
    assert term.forms == {(1, 0, 0, -2): 2, (0, 0, 0, 1): -2, (1, 0, 0, 0): 1}
    # a form whose exponents cancel leaves only its unit behind
    term = FactoredRatFun.product(1, [((0, 2, 0, 0), 1), ((0, -1, 0, 0), -1)])
    assert (term.scalar, term.forms) == (-2, {})
    with pytest.raises(ValueError):
        FactoredRatFun.product(1, [((0, 0, 0, 0), 1)])


def uncached_product(scalar, factors):
    """(scalar, forms) of FactoredRatFun.product, each form normalized on
    the spot by its own gcd and sign scan: the reference for the cached
    normalization."""
    forms, unit_product = {}, Fraction(1)
    for coefficients, exponent in factors:
        unit = math.gcd(*coefficients)
        if next(filter(None, coefficients)) < 0:
            unit = -unit
        form = tuple(c // unit for c in coefficients)
        unit_product *= Fraction(unit) ** exponent
        forms[form] = forms.get(form, 0) + exponent
        if not forms[form]:
            del forms[form]
    return Fraction(scalar) * unit_product, forms


def test_factored_product_matches_uncached_normalization():
    # negative leading entries, common factors, exponent 0, and a form met
    # again with the opposite exponent, so that it cancels to exponent 0
    rng = random.Random(1313)
    for _ in range(300):
        arity = rng.randint(1, 5)
        factors = []
        for _ in range(rng.randint(0, 6)):
            form = [rng.choice([0, 0, 1, -1, 3, -7]) for _ in range(arity)]
            form[rng.randrange(arity)] = rng.choice([1, -1, 2, -2, 5])
            unit = rng.choice([1, -1, 2, -3, 6])
            factors.append((tuple(unit * c for c in form), rng.choice([-3, -1, 0, 1, 2])))
            if rng.random() < 0.3:
                again = rng.choice([1, -1, -2])
                factors.append((tuple(again * c for c in form), -factors[-1][1]))
        scalar = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        term = FactoredRatFun.product(scalar, factors)
        expected_scalar, expected_forms = uncached_product(scalar, factors)
        assert term.scalar == expected_scalar, factors
        assert list(term.forms.items()) == list(expected_forms.items()), factors
        # a list of coefficients normalizes as its tuple
        listed = FactoredRatFun.product(scalar, [(list(f), e) for f, e in factors])
        assert (listed.scalar, listed.forms) == (term.scalar, term.forms)


def test_zero_form_raises_on_every_call_and_is_never_cached():
    before = _primitive_form.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError, match="zero linear form"):
            FactoredRatFun.product(1, [((0, 0, 0, 0), -1)])
    after = _primitive_form.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses + 3, before.currsize)


# -- text formats ---------------------------------------------------------------------


def test_poly_str_pinned():
    p = L0 * L0 * Fraction(3, 2) - L1 * L2 + const(7)
    assert poly_str(p) == "3/2*l0^2 - l1*l2 + 7"
    assert poly_str(Poly.zero(ARITY)) == "0"
    assert poly_str(-L0) == "-l0"


def test_poly_text_round_trip():
    rng = random.Random(107)
    for _ in range(100):
        p = random_poly(rng, max_terms=4, max_deg=3, max_c=9)
        assert poly_parse(poly_str(p), ARITY) == p


def test_ratfun_str_pinned():
    assert ratfun_str(RatFun.zero()) == "0"
    assert ratfun_str(RatFun(L0 + const(1))) == "(l0 + 1)"
    sixth = RatFun(Poly.constant(Fraction(1, 6), ARITY), L3**3)
    assert ratfun_str(sixth) == "(1/6)/(l3^3)"
    assert ratfun_str(RatFun(L3, L0)) == "(l3)/(l0)"
    assert ratfun_str(RatFun(L3 * Fraction(1, 2), L0)) == "(1/2*l3)/(l0)"


def test_ratfun_text_round_trip():
    rng = random.Random(108)
    for _ in range(60):
        f = random_ratfun(rng, max_terms=3, max_deg=2, max_c=5)
        text = ratfun_str(f)
        assert ratfun_parse(text, ARITY) == f
        # canonical text is stable under a second round trip
        assert ratfun_str(ratfun_parse(text, ARITY)) == text


def test_ratfun_parse_tolerates_spacing():
    assert ratfun_parse("( 1/6 ) / ( l3^3 )", ARITY) == ratfun_parse(
        "(1/6)/(l3^3)", ARITY
    )
