"""Equivariant K-theory layer: characters on the line and the 4-fold,
Euler classes, conjugation, square roots, text round-trips."""

import random
from fractions import Fraction

import pytest

from stablepairs.equivariant import (
    E0,
    E3,
    ZERO_WEIGHT,
    EqLineBundleP1,
    KClass,
    SplitGeometry,
    TrivialWeightError,
    check_square_root,
    chi_adjunction,
    chi_p1_line,
    chi_p1_pair,
    chi_x_pair,
    euler_class,
    euler_factored,
    kclass_parse,
    kclass_str,
)
from stablepairs.ratfun import Poly, RatFun

GEOM = SplitGeometry(-1, -1, 0)
TRIVIAL_BUNDLE = EqLineBundleP1(0, 0)


def random_kclass(rng, terms=4, span=2, mult=3):
    out = KClass.zero()
    for _ in range(rng.randint(0, terms)):
        w = tuple(rng.randint(-span, span) for _ in range(4))
        out = out + KClass.character(w).scale(rng.randint(-mult, mult))
    return out


# -- cohomology of line bundles on the fixed curve ------------------------------------


def test_chi_p1_line_three_regimes():
    both = chi_p1_line(2, 1)
    assert both.terms == {(-1, 0, 0, 0): 1, (0, 0, 0, 0): 1,
                          (1, 0, 0, 0): 1, (2, 0, 0, 0): 1}
    assert chi_p1_line(0, -1).is_zero()
    assert chi_p1_line(-3, 2).is_zero()
    dual = chi_p1_line(-2, -1)
    assert dual.terms == {(-1, 0, 0, 0): -1, (0, 0, 0, 0): -1}


def test_chi_p1_line_rank_is_riemann_roch():
    for a in range(-20, 21):
        for b in range(-20, 21):
            assert chi_p1_line(a, b).rank() == a + b + 1


def test_chi_p1_pair_matches_difference_bundle():
    a = EqLineBundleP1(0, 1, (0, 1, 0, 0))
    b = EqLineBundleP1(1, 0, (1, 0, 0, 0))
    expected = chi_p1_line(1 - 0, 0 - 1).twist((1, -1, 0, 0))
    assert chi_p1_pair(a, b) == expected
    # a pair with itself is the structure sheaf's chi: a single trivial character
    assert chi_p1_pair(b, b) == KClass.one()


# -- pairings on the local 4-fold ------------------------------------------------------


def test_adjunction_of_trivial_summand():
    adj = chi_adjunction([TRIVIAL_BUNDLE], GEOM)
    assert kclass_str(adj) == "2 - t3 - t3^-1"
    assert adj.rank() == 0
    # invariant under conjugation, as self-pairings must be
    assert adj.conj() == adj


def test_adjunction_square_root():
    adj = chi_adjunction([TRIVIAL_BUNDLE], GEOM)
    half = KClass({(0, 0, 0, 0): 1, (0, 0, 0, 1): -1})  # 1 - t3
    assert check_square_root(adj, half)
    assert not check_square_root(adj, KClass.one())


def test_pair_of_degree_one_summands():
    # the two summands of the k = 1 fixed sheaf, one per torus-fixed point
    a = EqLineBundleP1(0, 1)
    b = EqLineBundleP1(1, 0)
    pair = chi_x_pair(a, b, GEOM)
    assert pair == KClass({(1, 0, 0, 0): 2, (1, 0, 0, 1): -1, (1, 0, 0, -1): -1})
    assert kclass_str(pair) == "2*t0 - t0*t3 - t0*t3^-1"


def test_adjunction_is_conjugation_invariant():
    rng = random.Random(201)
    for _ in range(10):
        bundles = [
            EqLineBundleP1(rng.randint(-2, 2), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 3))
        ]
        adj = chi_adjunction(bundles, GEOM)
        assert adj.conj() == adj
        assert adj.rank() == 0


def test_raw_and_normalized_pairings_agree_after_normalization():
    a = EqLineBundleP1(1, 1)
    b = EqLineBundleP1(2, 0)
    raw = chi_x_pair(a, b, GEOM, raw=True)
    assert chi_x_pair(a, b, GEOM) == raw.cy_normalized()


# -- the K-theory ring ------------------------------------------------------------------


def test_kclass_ring_axioms():
    rng = random.Random(202)
    for _ in range(40):
        x = random_kclass(rng)
        y = random_kclass(rng)
        z = random_kclass(rng)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert x * KClass.one() == x
        assert (x - x).is_zero()


def test_conj_is_a_ring_involution():
    rng = random.Random(203)
    for _ in range(40):
        x = random_kclass(rng)
        y = random_kclass(rng)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.conj().cy_normalized() == x.cy_normalized().conj()


def test_twist_and_rank():
    x = KClass({(1, 0, 0, 0): 2, (0, 0, 0, -1): -1})
    assert x.rank() == 1
    assert x.twist((0, 1, 0, 0)) == KClass({(1, 1, 0, 0): 2, (0, 1, 0, -1): -1})
    assert x.twist(ZERO_WEIGHT) == x


def test_cy_normalization_kills_second_coordinate():
    x = KClass({(1, 3, 0, 0): 1})
    assert x.cy_normalized() == KClass({(-2, 0, -3, -3): 1})
    # rank is preserved
    rng = random.Random(204)
    for _ in range(20):
        y = random_kclass(rng)
        assert y.cy_normalized().rank() == y.rank()


# -- Euler classes ----------------------------------------------------------------------


def test_euler_class_of_single_weights():
    l3 = Poly.variable(3, 4)
    assert euler_class(KClass({(0, 0, 0, 1): 1})) == RatFun(l3)
    assert euler_class(KClass({(0, 0, 0, 1): -1})) == RatFun.one() / RatFun(l3)
    mixed = KClass({(1, 0, 0, -2): 3})
    l0 = Poly.variable(0, 4)
    assert euler_class(mixed) == RatFun((l0 - l3 * 2) ** 3)


def test_euler_class_rejects_trivial_weight():
    with pytest.raises(TrivialWeightError):
        euler_class(KClass({(0, 0, 0, 0): 2, (1, 0, 0, 0): 1}))
    # a trivial weight with multiplicity zero never survives construction
    x = KClass({(0, 0, 0, 0): 1}) - KClass.one()
    assert x.is_zero()
    assert euler_class(x) == RatFun.one()


def test_euler_class_is_multiplicative():
    rng = random.Random(205)
    for _ in range(15):
        u = random_kclass(rng, terms=3, span=2, mult=2)
        v = random_kclass(rng, terms=3, span=2, mult=2)
        if ZERO_WEIGHT in u.terms or ZERO_WEIGHT in v.terms:
            continue
        assert euler_class(u + v) == euler_class(u) * euler_class(v)


def test_euler_factored_agrees_with_expanded():
    rng = random.Random(206)
    for _ in range(30):
        u = random_kclass(rng)
        if ZERO_WEIGHT in u.terms:
            continue
        assert euler_factored(u).to_ratfun(4) == euler_class(u)


# -- text format ------------------------------------------------------------------------


def test_kclass_str_pinned():
    assert kclass_str(KClass.zero()) == "0"
    assert kclass_str(KClass.one()) == "1"
    x = KClass({(0, 0, 0, 0): 2, (0, 0, 0, 1): -1, (0, 0, 0, -1): -1})
    assert kclass_str(x) == "2 - t3 - t3^-1"
    y = KClass({(1, 0, 0, 0): 1, (0, 0, 0, 2): 3})
    assert kclass_str(y) == "t0 + 3*t3^2"


def test_kclass_text_round_trip():
    rng = random.Random(207)
    for _ in range(60):
        x = random_kclass(rng, terms=5, span=3, mult=4)
        assert kclass_parse(kclass_str(x)) == x


def test_kclass_parse_negative_exponents():
    x = kclass_parse("2 - t3 - t3^-1")
    assert x == KClass({(0, 0, 0, 0): 2, (0, 0, 0, 1): -1, (0, 0, 0, -1): -1})
    assert kclass_parse("t0^-2*t1^3") == KClass({(-2, 3, 0, 0): 1})


def test_split_geometry_validates_degrees():
    with pytest.raises(ValueError):
        SplitGeometry(0, 0, 0)
    assert SplitGeometry(3, -2, -3).degrees == (3, -2, -3)


def test_line_bundle_twisting():
    bundle = EqLineBundleP1(1, 2, (0, 0, 1, 0))
    shifted = bundle.twisted(2, (1, 0, 0, 0))
    # the divisor shift lands at the Zinf fixed point, the weight accumulates
    assert shifted.a == 1 and shifted.b == 4
    assert shifted.twist == (1, 0, 1, 0)
