"""Truncated generating series: MacMahon expansion, the stable-pair series
from tables of integer-type invariants, wall-crossing identities, wall
predicates, and Gromov-Witten conversions."""

import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from stablepairs.series import (
    ClassLattice,
    GVTable,
    NMinTable,
    TParam,
    TruncatedSeries,
    WallError,
    gv0_from_gw,
    gv1_extract,
    gw0_from_gv0,
    gw1_assemble,
    js_from_gv,
    log_macmahon,
    macmahon,
    no_wall_predicate,
    pt_coeff_from_gv,
    pt_series_from_gv,
    wall_candidates,
    wall_classes,
    wall_factor_series,
    wall_jump_check,
    _chambers,
    _exp,
    _fill,
    _pair_counts,
    _top_n,
)
from stablepairs import series as series_module

LOCAL_P2_LATTICE = ClassLattice(1, (1,), 6)


def local_p2_table():
    return GVTable(LOCAL_P2_LATTICE, n0={(1,): 1, (4,): 2}, p0={(0,): 1, (3,): 1})


def random_lattice(rng, deg_lo=1, deg_hi=6):
    rank = rng.choice([1, 2])
    omega = tuple(rng.choice([1, 2]) for _ in range(rank))
    return ClassLattice(rank, omega, rng.randint(deg_lo, deg_hi))


def random_gv_table(rng):
    lattice = random_lattice(rng, deg_lo=2)
    n0 = {}
    for beta in lattice.positive_classes():
        if rng.random() < 0.5:
            value = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
            if value:
                n0[beta] = value
    p0 = None
    n1 = {}
    if rng.random() < 0.5:
        p0 = {}
        for beta in lattice.classes():
            if rng.random() < 0.4:
                value = Fraction(rng.randint(-2, 3))
                if value:
                    p0[beta] = value
    else:
        for beta in lattice.positive_classes():
            if rng.random() < 0.4:
                value = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                if value:
                    n1[beta] = value
    return GVTable(lattice, n0=n0, n1=n1, p0=p0)


# -- lattice --------------------------------------------------------------------------


def test_lattice_enumeration_is_sorted_by_degree():
    lattice = ClassLattice(2, (1, 2), 3)
    classes = lattice.classes()
    assert classes[0] == (0, 0)
    degrees = [lattice.deg(b) for b in classes]
    assert degrees == sorted(degrees)
    assert all(lattice.deg(b) <= 3 for b in classes)
    assert lattice.positive_classes() == [b for b in classes if lattice.deg(b) > 0]


def test_lattice_keeps_its_classes_out_of_equality():
    lattice = ClassLattice(2, (1, 2), 5)
    classes = lattice.classes()
    classes.append((9, 9))
    classes[0] = (7, 7)
    assert lattice.classes() == ClassLattice(2, (1, 2), 5).classes()
    assert lattice == ClassLattice(2, (1, 2), 5)
    assert hash(lattice) == hash(ClassLattice(2, (1, 2), 5))
    assert repr(lattice) == "ClassLattice(rank=2, omega=(1, 2), dmax=5)"


def test_lattice_sub_classes():
    lattice = ClassLattice(1, (1,), 4)
    assert lattice.sub_classes((3,)) == [(1,), (2,)]
    assert lattice.sub_classes((1,)) == []


def test_lattice_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        ClassLattice(1, (0,), 3)
    with pytest.raises(ValueError):
        ClassLattice(2, (1, -1), 3)


def test_table_rejects_keys_off_its_lattice():
    lattice = ClassLattice(2, (1, 2), 4)
    with pytest.raises(ValueError, match=re.escape(
            "bad class key (1,): expected a list of 2 nonnegative integers")):
        GVTable(lattice, n0={(1,): 1, (-1, 2): 3}, p0={})
    for name in ("n0", "n1", "p0", "nmin"):
        for beta in ((1, 0, 0), (-1, 2), (2, -1), (1.5, 0), (1.0, 0), (True, 0), (0, False)):
            with pytest.raises(ValueError, match=re.escape(
                    f"bad class key {beta!r}: expected a list of 2 nonnegative integers")):
                GVTable(lattice, **{name: {beta: 1}})
    # classes above dmax stay allowed, and the series drop them
    gv = GVTable(lattice, n0={(1, 0): 1, (5, 0): 2}, p0={})
    assert pt_series_from_gv(TParam.infinity(), gv, 2) == pt_series_from_gv(
        TParam.infinity(), GVTable(lattice, n0={(1, 0): 1}, p0={}), 2)


def test_table_rejects_meeting_keys_off_its_lattice():
    lattice = ClassLattice(2, (1, 2), 4)
    for pair, bad in ((((1,), (0, 1, 5)), (1,)), (((-1, 0), (0, 1)), (-1, 0)),
                      (((0, 1), (0, 1, 5)), (0, 1, 5)), (((1, 0), (2, -1)), (2, -1)),
                      (((1, 0), (0, 1.5)), (0, 1.5)), (((True, 0), (0, 1)), (True, 0))):
        with pytest.raises(ValueError, match=re.escape(
                f"bad class key {bad!r}: expected a list of 2 nonnegative integers")):
            GVTable(lattice, meeting={pair: 1})
    # accepted meeting keys, one of them above dmax, survive the JSON round trip
    gv = GVTable(lattice, n0={(1, 0): 1}, p0={},
                 meeting={((1, 0), (0, 1)): Fraction(1, 2), ((5, 0), (0, 1)): 3})
    assert GVTable.from_json(json.loads(json.dumps(gv.to_json())), dmax=4) == gv


def test_stored_degrees_are_computed_once_per_table(monkeypatch):
    gv = GVTable(ClassLattice(2, (1, 2), 6), n0={(0, 2): 1, (1, 0): 2, (0, 1): 3, (2, 0): 1})
    heaviest = gv._by_degree()
    assert [deg for deg, *_ in heaviest] == [4, 2, 2, 1]
    classes = gv.lattice.classes()
    assert [i for *_, i in heaviest] == [classes.index(gamma) for _, _, gamma, _ in heaviest]
    # a stored class above dmax has no position
    above = GVTable(ClassLattice(2, (1, 2), 3), n0={(0, 2): 1, (1, 0): 2})._by_degree()
    assert [(gamma, i) for _, _, gamma, i in above] == [((0, 2), None), ((1, 0), 1)]

    def no_degree(self, beta):
        raise AssertionError("degree recomputed")

    def no_position(self, beta):
        raise AssertionError("position recomputed")

    monkeypatch.setattr(ClassLattice, "deg", no_degree)
    monkeypatch.setattr(ClassLattice, "_position", no_position)
    assert series_module._n0_form(gv, heaviest) == (1, {(1, i): mult for _, mult, _, i in heaviest})
    assert _top_n(gv, 9) == 6 and _top_n(gv, 2) == 2
    assert _top_n(GVTable(gv.lattice), 9) == 0
    assert wall_classes(Fraction(1, 2), gv) == [(0, 1), (2, 0)]
    assert wall_classes(Fraction(1, 3), gv) == []
    assert gv._by_degree() is heaviest
    # the chamber store is keyed by nmax and the number of stored classes
    # admitted; the chambers' series compute degrees of their own
    monkeypatch.undo()
    for t0, keys in ((Fraction(1, 2), {(2, 3), (2, 1)}), (1, {(2, 4), (2, 3)})):
        wall_jump_check(t0, gv, 2)
        assert set(gv._chambers) == keys
    _chambers(gv, 3, (TParam.zero_plus(), TParam.infinity()))
    assert set(gv._chambers) == {(3, 0), (3, 4)}
    assert gv._by_degree() is heaviest


# -- MacMahon -------------------------------------------------------------------------


def test_macmahon_initial_coefficients():
    coeffs = macmahon(10)
    assert [int(c) for c in coeffs[:5]] == [1, 1, 3, 6, 13]
    assert all(c.denominator == 1 for c in coeffs)


def test_macmahon_inverse_product():
    # M(q) * prod_k (1 - q^k)^k == 1 through the truncation order
    order = 10
    coeffs = macmahon(order)
    poly = [Fraction(0)] * (order + 1)
    poly[0] = Fraction(1)
    for k in range(1, order + 1):
        for _ in range(k):
            step = list(poly)
            for j in range(order + 1 - k):
                step[j + k] -= poly[j]
            poly = step
    product = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            product[i + j] += coeffs[i] * poly[j]
    assert product[0] == 1
    assert all(c == 0 for c in product[1:])


def test_log_macmahon_values():
    logm = log_macmahon(4)
    # sum_{k m = j} k/m
    assert logm[1] == 1
    assert logm[2] == Fraction(2, 1) + Fraction(1, 2)
    assert logm[3] == 3 + Fraction(1, 3)


# -- stability parameter ---------------------------------------------------------------


def test_tparam_admits():
    assert TParam.infinity().admits(3)
    assert not TParam.zero_plus().admits(3)
    assert TParam.exact(2).admits(1)  # 1 > 1/2
    assert not TParam.exact(Fraction(1, 2)).admits(1)  # 1 < 2
    assert TParam.plus(1).admits(1)
    assert not TParam.minus(1).admits(1)
    with pytest.raises(WallError):
        TParam.exact(1).admits(1)
    with pytest.raises(ValueError):
        TParam.infinity().admits(0)


def test_tparam_labels():
    assert TParam.infinity().label() == "inf"
    assert TParam.zero_plus().label() == "0+"
    assert TParam.plus(Fraction(1, 2)).label() == "1/2+"
    assert TParam.exact(3).label() == "3"


def test_tparam_refuses_what_it_cannot_mean():
    for make in (TParam.exact, TParam.plus, TParam.minus):
        for t in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError, match=f"must be positive, got {t}$"):
                make(t)
    with pytest.raises(ValueError, match="must be positive, got None"):
        TParam("finite")
    with pytest.raises(ValueError, match="unknown stability parameter kind 'zero'"):
        TParam("zero")
    with pytest.raises(ValueError, match=r"side must be -1, 0 or \+1, got 2"):
        TParam("finite", Fraction(1), 2)
    # a negative wall location no longer reads as the large-volume limit
    with pytest.raises(ValueError, match="must be positive, got -1"):
        wall_jump_check(-1, local_p2_table(), 2)


# -- the local plane fixture ------------------------------------------------------------


def test_fixture_chamber_values():
    gv = local_p2_table()
    assert pt_coeff_from_gv(TParam.exact(2), 1, (4,), gv) == 3
    assert pt_coeff_from_gv(TParam.exact(Fraction(1, 2)), 1, (4,), gv) == 2
    with pytest.raises(WallError):
        pt_coeff_from_gv(TParam.exact(1), 1, (4,), gv)


def test_fixture_wall_jump():
    gv = local_p2_table()
    report = wall_jump_check(1, gv, 3)
    assert report["ok"]
    assert report["series_identity_ok"]
    assert report["wall_classes"] == [[1]]
    row = [r for r in report["coefficients"] if r["n"] == 1 and r["beta"] == [4]][0]
    assert row["jump"] == "1"
    assert row["simple_wall"]
    assert row["mspace"] == "1"
    assert row["id_wcf"] == "1"


def test_fixture_loaded_from_json():
    with open("tests/fixtures/local_p2.json", encoding="utf-8") as handle:
        gv = GVTable.from_json(json.load(handle), dmax=6)
    assert gv.n0 == {(1,): 1, (4,): 2}
    assert gv.p0 == {(0,): 1, (3,): 1}
    assert gv.nmin == {(1,): 1, (2,): 1, (3,): 0}
    assert pt_coeff_from_gv(TParam.exact(2), 1, (4,), gv) == 3


# -- chamber identities ------------------------------------------------------------------


def test_js_chamber_equals_plus_side_of_the_slope():
    gv = local_p2_table()
    lattice = gv.lattice
    assert js_from_gv(1, (4,), gv) == 2
    assert js_from_gv(0, (3,), gv) == 1
    for n in range(1, 4):
        for beta in lattice.positive_classes():
            t = TParam.plus(Fraction(n, lattice.deg(beta)))
            assert js_from_gv(n, beta, gv) == pt_coeff_from_gv(t, n, beta, gv), (n, beta)


def test_js_chamber_identity_on_random_tables():
    # Just above the wall t = n/deg(beta), the recursion only admits classes of
    # degree >= deg(beta)/n, so every surviving chain has equal slopes and ends
    # on the zero class: the chamber value is the slope sum times p0(0).
    rng = random.Random(301)
    for _ in range(15):
        gv = random_gv_table(rng)
        lattice = gv.lattice
        anchor = gv.p0_value(lattice.zero())
        for beta in lattice.positive_classes():
            for n in range(1, 4):
                t = TParam.plus(Fraction(n, lattice.deg(beta)))
                assert js_from_gv(n, beta, gv) * anchor == pt_coeff_from_gv(t, n, beta, gv)


def test_dual_construction_series_vs_recursion():
    gv = local_p2_table()
    lattice = gv.lattice
    params = [
        TParam.infinity(),
        TParam.zero_plus(),
        TParam.exact(2),
        TParam.exact(Fraction(1, 2)),
        TParam.plus(1),
        TParam.minus(1),
    ]
    for t in params:
        series = pt_series_from_gv(t, gv, 3)
        memo = {}
        for beta in lattice.classes():
            for n in range(4):
                assert math.factorial(n) * series.coefficient(n, beta) == \
                    pt_coeff_from_gv(t, n, beta, gv, memo), (t.label(), n, beta)


def test_telescoping_across_all_walls():
    gv = local_p2_table()
    nmax = 3
    series = pt_series_from_gv(TParam.zero_plus(), gv, nmax)
    degrees = sorted({gv.lattice.deg(b) for b in gv.n0}, reverse=True)
    for deg in degrees:  # t = 1/deg runs upward through every wall
        series = series * wall_factor_series(Fraction(1, deg), gv, nmax)
    assert series == pt_series_from_gv(TParam.infinity(), gv, nmax)


def test_wall_identities_on_random_tables():
    rng = random.Random(302)
    for _ in range(20):
        gv = random_gv_table(rng)
        lattice = gv.lattice
        nmax = rng.randint(1, 3)
        series = pt_series_from_gv(TParam.zero_plus(), gv, nmax)
        degrees = sorted({lattice.deg(b) for b in gv.n0}, reverse=True)
        for deg in degrees:
            series = series * wall_factor_series(Fraction(1, deg), gv, nmax)
        assert series == pt_series_from_gv(TParam.infinity(), gv, nmax)
        for deg in degrees:
            report = wall_jump_check(Fraction(1, deg), gv, nmax)
            assert report["ok"], (deg, report)


def test_empty_table_series_is_one():
    lattice = ClassLattice(1, (1,), 3)
    gv = GVTable(lattice, n0={})
    series = pt_series_from_gv(TParam.infinity(), gv, 3)
    assert series == TruncatedSeries.one(lattice, 3)


def test_wall_classes_and_wall_factor_series_refuse_a_nonpositive_t0():
    gv = local_p2_table()
    for t0 in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match=f"must be positive, got {t0}$"):
            wall_classes(t0, gv)
        with pytest.raises(ValueError, match=f"must be positive, got {t0}$"):
            wall_factor_series(t0, gv, 3)


def test_chamber_series_on_a_stored_wall_raises_and_off_it_matches_every_class():
    """pt_series_from_gv admits a heaviest-first prefix of the stored
    classes: an exact t on a stored wall still raises WallError, and off the
    walls the series is the exponential over every stored class t admits."""
    gv = local_p2_table()  # n0 on degrees 1 and 4
    for t, deg in ((1, 1), (Fraction(1, 4), 4)):
        with pytest.raises(WallError, match=f"degree-{deg} class"):
            pt_series_from_gv(TParam.exact(t), gv, 3)
    rng = random.Random(523)
    for case in range(12):
        gv = random_rank_table(rng, case % 3 + 1)
        lattice, nmax = gv.lattice, 3
        degrees = sorted({lattice.deg(beta) for beta in gv.n0})
        for d in degrees:
            with pytest.raises(WallError, match=f"degree-{d} class"):
                pt_series_from_gv(TParam.exact(Fraction(1, d)), gv, nmax)
        for t in chambers(gv):
            active = {beta: v for beta, v in gv.n0.items() if t.admits(lattice.deg(beta))}
            exponent = TruncatedSeries(lattice, nmax, {(1, b): v for b, v in active.items()})
            p0 = TruncatedSeries(lattice, nmax, {(0, b): gv.p0_value(b)
                                                 for b in lattice.classes()})
            expected = reference_mul(p0, _exp(exponent))
            assert pt_series_from_gv(t, gv, nmax) == expected, (case, t)


def test_wall_factor_only_involves_classes_on_the_wall():
    gv = local_p2_table()
    assert wall_classes(1, gv) == [(1,)]
    assert wall_classes(Fraction(1, 4), gv) == [(4,)]
    assert wall_classes(Fraction(1, 2), gv) == []
    factor = wall_factor_series(Fraction(1, 2), gv, 3)
    assert factor == TruncatedSeries.one(gv.lattice, 3)


# -- wall predicates ---------------------------------------------------------------------


def test_wall_predicates_on_the_fixture():
    lattice = LOCAL_P2_LATTICE
    nmin = NMinTable({(1,): 1, (2,): 1, (3,): 0})
    assert not no_wall_predicate((4,), 1, nmin, lattice)
    assert wall_candidates((4,), 1, nmin, lattice) == [Fraction(1)]


def test_wall_predicate_requires_complete_table():
    lattice = LOCAL_P2_LATTICE
    nmin = NMinTable({(1,): 1})
    with pytest.raises(KeyError):
        no_wall_predicate((4,), 1, nmin, lattice)


def test_wall_predicates_refuse_a_class_of_degree_zero():
    for lattice, zero in ((LOCAL_P2_LATTICE, (0,)), (ClassLattice(2, (1, 2), 4), (0, 0))):
        nmin = NMinTable({})
        for predicate in (no_wall_predicate, wall_candidates):
            with pytest.raises(ValueError, match=re.escape(
                    f"wall predicates need a class of positive degree, got {zero}")):
                predicate(list(zero), 1, nmin, lattice)


def test_no_wall_implies_no_candidates():
    rng = random.Random(303)
    for _ in range(200):
        lattice = random_lattice(rng, deg_lo=2)
        candidates = [b for b in lattice.positive_classes() if lattice.deg(b) >= 2]
        if not candidates:
            continue
        beta = rng.choice(candidates)
        nmin = NMinTable(
            {sub: rng.randint(0, 3) for sub in lattice.sub_classes(beta)}
        )
        n = rng.randint(0, 6)
        if no_wall_predicate(beta, n, nmin, lattice):
            assert wall_candidates(beta, n, nmin, lattice) == [], (beta, n)


# -- Gromov-Witten conversions -------------------------------------------------------------


def test_genus_zero_inversion_pinned():
    lattice = ClassLattice(1, (1,), 2)
    n0 = gv0_from_gw({(1,): Fraction(1), (2,): Fraction(1)}, lattice)
    assert n0 == {(1,): Fraction(1), (2,): Fraction(3, 4)}


def test_genus_zero_round_trips():
    rng = random.Random(304)
    for _ in range(100):
        lattice = random_lattice(rng)
        table = {}
        for beta in lattice.positive_classes():
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if value:
                table[beta] = value
        assert gv0_from_gw(gw0_from_gv0(table, lattice), lattice) == table


def test_genus_one_assembly_pinned():
    lattice = ClassLattice(1, (1,), 4)
    gw1 = gw1_assemble({(1,): Fraction(1)}, {}, {}, lattice)
    # sigma(d)/d multiple-cover weights: 1, 3/2, 4/3, 7/4
    assert gw1[(1,)] == 1
    assert gw1[(2,)] == Fraction(3, 2)
    assert gw1[(3,)] == Fraction(4, 3)
    assert gw1[(4,)] == Fraction(7, 4)


def test_gw_conversions_reject_keys_off_the_lattice():
    lattice = ClassLattice(2, (1, 2), 4)
    calls = []
    for beta in ((1,), (0, 1, 5), (-1, 2), (2, -1), (1.5, 0), (1.0, 0), (0, True)):
        table = {beta: 1}
        calls += [(beta, gw0_from_gv0, (table, lattice)), (beta, gv0_from_gw, (table, lattice)),
                  (beta, gw1_assemble, (table, {}, {}, lattice)),
                  (beta, gw1_assemble, ({}, table, {}, lattice)),
                  (beta, gv1_extract, (table, {}, {}, lattice)),
                  (beta, gv1_extract, ({}, table, {}, lattice))]
    for pair, bad in ((((1,), (0, 1, 5)), (1,)), (((-1, 0), (1, 1)), (-1, 0)),
                      (((1, 0), (2, -1)), (2, -1)), (((1, 0), (0.5, 1)), (0.5, 1))):
        calls += [(bad, gw1_assemble, ({}, {}, {pair: 1}, lattice)),
                  (bad, gv1_extract, ({}, {}, {pair: 1}, lattice))]
    for bad, fn, args in calls:
        with pytest.raises(ValueError, match=re.escape(
                f"bad class key {bad!r}: expected a list of 2 nonnegative integers")):
            fn(*args)


def test_genus_one_degree_zero_rejected():
    lattice = ClassLattice(1, (1,), 2)
    with pytest.raises(ValueError):
        gw1_assemble({(0,): Fraction(1)}, {}, {}, lattice)
    with pytest.raises(ValueError):
        gw1_assemble({}, {(0,): Fraction(1)}, {}, lattice)
    with pytest.raises(ValueError):
        gw1_assemble({}, {}, {((0,), (0,)): Fraction(1)}, lattice)
    with pytest.raises(ValueError, match="n1"):
        GVTable(lattice, n1={(0,): 1}).p0_value((1,))


def test_genus_one_round_trips():
    rng = random.Random(305)
    for _ in range(100):
        lattice = random_lattice(rng)
        n1 = {}
        for beta in lattice.positive_classes():
            value = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            if value:
                n1[beta] = value
        n0_c2 = {
            beta: Fraction(rng.randint(-2, 2))
            for beta in lattice.positive_classes()
            if rng.random() < 0.3
        }
        n0_c2 = {b: v for b, v in n0_c2.items() if v}
        meeting = {}
        positives = lattice.positive_classes()
        if len(positives) >= 2 and rng.random() < 0.5:
            meeting[(positives[0], positives[1])] = Fraction(rng.randint(1, 2))
        gw1 = gw1_assemble(n1, n0_c2, meeting, lattice)
        assert gv1_extract(gw1, n0_c2, meeting, lattice) == n1


# -- reference oracles: push-style cover sums and js_from_gv's own recursion -----------


def reference_multiple_covers(beta, lattice, table):
    """(k, k*beta) for k = 1, 2, ... while deg(k*beta) <= dmax; a class of
    degree zero is refused naming ``table``."""
    d = lattice.deg(beta)
    if d == 0:
        raise ValueError(f"{table} table contains the zero class")
    return [(k, tuple(k * b for b in beta)) for k in range(1, lattice.dmax // d + 1)]


def reference_gw1_assemble(n1, n0_c2, meeting, lattice):
    """The genus-one series built push-style: every table entry adds its
    weighted multiple covers to the classes k*beta."""
    out = {}

    def bump(table, beta, weight):
        for k, gamma in reference_multiple_covers(beta, lattice, table):
            out[gamma] = out.get(gamma, Fraction(0)) + weight(k)

    for beta, v in sorted(n1.items()):
        bump("n1", beta,
             lambda d: v * Fraction(sum(k for k in range(1, d + 1) if d % k == 0), d))
    for beta, v in sorted(n0_c2.items()):
        bump("n0_c2", beta, lambda k: -v / Fraction(24 * k))
    for (b1, b2), v in sorted(meeting.items()):
        bump("meeting", tuple(x + y for x, y in zip(b1, b2)),
             lambda k: v / Fraction(24 * k))
    return {b: v for b, v in out.items() if v}


def reference_p0(n1, lattice):
    """exp of the log series sum_beta n1(beta) sum_k logM_k q^(k beta), the
    log series built push-style."""
    logm = log_macmahon(lattice.dmax)
    log_series = {}
    for beta, mult in sorted(n1.items()):
        for k, gamma in reference_multiple_covers(beta, lattice, "n1"):
            key = (0, gamma)
            log_series[key] = log_series.get(key, Fraction(0)) + mult * logm[k]
    p0 = _exp(TruncatedSeries(lattice, 0, log_series))
    return {beta: c for (_, beta), c in p0.coeffs.items()}


def reference_js_from_gv(n, beta, gv):
    """The equal-slope count by its own recursion over ordered decompositions
    into classes of degree deg(beta)/n."""
    beta = tuple(beta)
    if n == 0:
        return gv.p0_value(beta)
    lattice = gv.lattice
    slope = Fraction(lattice.deg(beta), n)

    def rec(remaining, slots):
        if slots == 0:
            return Fraction(1) if not any(remaining) else Fraction(0)
        total = Fraction(0)
        for gamma, mult in sorted(gv.n0.items()):
            if Fraction(lattice.deg(gamma)) != slope:
                continue
            rest = tuple(b - g for b, g in zip(remaining, gamma))
            if any(b < 0 for b in rest):
                continue
            total += mult * rec(rest, slots - 1)
        return total

    return rec(beta, n)


def random_genus_one_tables(rng):
    """A lattice of rank 1 or 2 with fractional n1 and n0_c2 tables and a
    few meeting pairs, some of them summing beyond the truncation."""
    lattice = random_lattice(rng, deg_lo=2)
    positives = lattice.positive_classes()

    def table(share, den):
        return {b: Fraction(rng.randint(-3, 3), rng.randint(1, den))
                for b in positives if rng.random() < share}

    meeting = {}
    for _ in range(rng.randint(0, 3)):
        pair = (rng.choice(positives), rng.choice(positives))
        meeting[pair] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return lattice, table(0.5, 3), table(0.3, 2), meeting


def test_genus_one_assembly_matches_the_push_style_reference():
    rng = random.Random(306)
    ranks = set()
    for _ in range(80):
        lattice, n1, n0_c2, meeting = random_genus_one_tables(rng)
        ranks.add(lattice.rank)
        gw1 = reference_gw1_assemble(n1, n0_c2, meeting, lattice)
        assert gw1_assemble(n1, n0_c2, meeting, lattice) == gw1
        assert gv1_extract(gw1, n0_c2, meeting, lattice) == {b: v for b, v in n1.items() if v}
    assert ranks == {1, 2}


def test_p0_synthesis_matches_the_push_style_reference():
    rng = random.Random(307)
    for _ in range(40):
        lattice, n1, _, _ = random_genus_one_tables(rng)
        expected = reference_p0(n1, lattice)
        gv = GVTable(lattice, n0={}, n1=n1)
        for beta in lattice.classes():
            assert gv.p0_value(beta) == expected.get(beta, 0), beta


def test_js_from_gv_matches_its_own_recursion():
    rng = random.Random(308)
    tables = [local_p2_table()] + [random_gv_table(rng) for _ in range(25)]
    for gv in tables:
        for beta in gv.lattice.classes():
            for n in range(5):
                assert js_from_gv(n, beta, gv) == reference_js_from_gv(n, beta, gv), (n, beta)


# -- p0 synthesis and serialization ----------------------------------------------------


def test_p0_synthesized_from_n1_is_macmahon():
    gv = GVTable(ClassLattice(1, (1,), 6), n0={(1,): 1}, n1={(1,): 1})
    coeffs = macmahon(6)
    for j in range(7):
        assert gv.p0_value((j,)) == coeffs[j]


def test_p0_synthesis_with_fractional_exponent():
    gv = GVTable(ClassLattice(1, (1,), 4), n0={}, n1={(1,): Fraction(1, 2)})
    assert gv.p0_value((0,)) == 1
    assert gv.p0_value((1,)) == Fraction(1, 2)


def test_explicit_p0_zero_class_defaults_to_one():
    gv = GVTable(ClassLattice(1, (1,), 3), n0={}, p0={(2,): 5})
    assert gv.p0_value((0,)) == 1  # empty pair convention
    assert gv.p0_value((1,)) == 0
    assert gv.p0_value((2,)) == 5


def test_gv_table_json_round_trip():
    gv = local_p2_table()
    data = json.loads(json.dumps(gv.to_json()))
    back = GVTable.from_json(data, dmax=6)
    assert back.n0 == gv.n0
    assert back.p0 == gv.p0
    assert back.lattice == gv.lattice


def test_from_json_infers_truncation_from_keys():
    data = {"rank": 1, "omega": [1], "n0": {"[1]": "1", "[4]": "2"}}
    gv = GVTable.from_json(data)
    assert gv.lattice.dmax == 4


# -- truncation soundness ---------------------------------------------------------------


def test_series_multiplication_truncates_consistently():
    rng = random.Random(306)
    lattice = ClassLattice(1, (1,), 4)
    big = ClassLattice(1, (1,), 8)

    def random_series(lat, nmax):
        coeffs = {}
        for beta in lat.classes():
            for n in range(nmax + 1):
                if rng.random() < 0.4:
                    coeffs[(n, beta)] = Fraction(rng.randint(-3, 3))
        return TruncatedSeries(lat, nmax, coeffs)

    for _ in range(20):
        a = random_series(big, 4)
        b = random_series(big, 4)
        product = a * b
        a_cut = TruncatedSeries(
            lattice, 2,
            {(n, b2): c for (n, b2), c in a.coeffs.items()
             if n <= 2 and lattice.deg(b2) <= 4},
        )
        b_cut = TruncatedSeries(
            lattice, 2,
            {(n, b2): c for (n, b2), c in b.coeffs.items()
             if n <= 2 and lattice.deg(b2) <= 4},
        )
        small = a_cut * b_cut
        for (n, beta), value in small.coeffs.items():
            assert value == product.coefficient(n, beta), (n, beta)


# -- the truncated exponential ------------------------------------------------------------


def random_series_without_constant(rng, lattice, nmax, den=3):
    """Coefficients p/q with |p| <= 3 and q drawn from 1..den."""
    coeffs = {}
    for beta in lattice.classes():
        for n in range(nmax + 1):
            if (n or any(beta)) and rng.random() < 0.3:
                coeffs[(n, beta)] = Fraction(rng.randint(-3, 3), rng.randint(1, den))
    return TruncatedSeries(lattice, nmax, coeffs)


def common_den(values):
    """The lcm of the denominators of some Fractions (1 for none)."""
    return math.lcm(*(v.denominator for v in values))


def test_exp_of_a_sum_is_the_product_of_exps():
    rng = random.Random(307)
    for _ in range(40):
        lattice = random_lattice(rng, deg_hi=5)
        nmax = rng.randint(0, 3)
        a = random_series_without_constant(rng, lattice, nmax)
        b = random_series_without_constant(rng, lattice, nmax)
        assert _exp(a + b) == _exp(a) * _exp(b)
        assert _exp(TruncatedSeries(lattice, nmax)) == TruncatedSeries.one(lattice, nmax)


def test_exp_of_one_class_is_the_closed_form():
    # exp(n0 y q^beta) = sum_k n0^k y^k q^(k beta) / k!, cut at k <= nmax and
    # deg(k beta) <= dmax
    rng = random.Random(308)
    for _ in range(40):
        lattice = random_lattice(rng, deg_lo=2, deg_hi=8)
        nmax = rng.randint(0, 5)
        beta = rng.choice(lattice.positive_classes())
        n0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 5]))
        kmax = min(nmax, lattice.dmax // lattice.deg(beta))
        closed = {(k, tuple(k * b for b in beta)): n0**k / math.factorial(k)
                  for k in range(kmax + 1)}
        series = _exp(TruncatedSeries(lattice, nmax, {(1, beta): n0}))
        assert series == TruncatedSeries(lattice, nmax, closed), (beta, n0, nmax)


def reference_power_sum_exp(series):
    """exp(series) = sum_k series^k / k!, the power sum that the weighted
    recurrence replaced: each power raises the y-degree or the class degree,
    so the truncation ends the sum."""
    lattice, nmax = series.lattice, series.nmax
    total = term = TruncatedSeries.one(lattice, nmax)
    k = 0
    while term.coeffs:
        k += 1
        term = term * series
        term = TruncatedSeries(lattice, nmax, {key: c / k for key, c in term.coeffs.items()})
        total = total + term
    return total


def reference_macmahon_loop(order):
    """MacMahon coefficients by the derivative recurrence that macmahon ran
    on its own: j M_j = sum_i i logM_i M_(j-i)."""
    logm = log_macmahon(order)
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for j in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += i * logm[i] * out[j - i]
        out[j] = acc / j
    return out


def test_exp_matches_the_power_sum_reference():
    # denominators up to 3, then up to 9, so that the series' own common
    # denominator and those of the weight levels are rarely 1 or 2
    rng = random.Random(309)
    ranks, mixed, wide = set(), 0, 0
    for case in range(120):
        rank = rng.randint(1, 3)
        omega = tuple(rng.randint(1, 2) for _ in range(rank))
        lattice = ClassLattice(rank, omega, rng.randint(1, 7 if rank < 3 else 5))
        nmax = rng.randint(0, 4)
        series = random_series_without_constant(rng, lattice, nmax, 3 if case < 60 else 9)
        ranks.add(rank)
        mixed += len({n > 0 for n, _ in series.coeffs}) == 2
        wide += common_den(series.coeffs.values()) > 2 and common_den(
            _exp(series).coeffs.values()) > 2
        assert _exp(series) == reference_power_sum_exp(series), (lattice, nmax)
        zero = TruncatedSeries(lattice, nmax)
        assert _exp(zero) == reference_power_sum_exp(zero) == TruncatedSeries.one(lattice, nmax)
    assert ranks == {1, 2, 3} and mixed >= 10 and wide >= 40


def test_macmahon_matches_its_former_loop():
    expected = reference_macmahon_loop(120)
    for order in range(121):
        coeffs = macmahon(order)
        assert coeffs == expected[: order + 1], order
        assert all(type(c) is Fraction for c in coeffs)


# -- the split table ----------------------------------------------------------------------


def reference_admits(t, deg):
    """TParam.admits as it computed 1/t on every call."""
    if t.kind != "finite":
        return t.kind == "infinity"
    threshold = 1 / t.value
    if deg == threshold:
        if t.side:
            return t.side > 0
        raise WallError(
            f"t = {t.value} lies on the wall of a stored degree-{deg} class; choose a side"
        )
    return deg > threshold


def reference_pt_coeff(t, n, beta, gv, memo):
    """P^t(n, beta) by the recursion as it walked the whole n0 table on each
    step, testing every class for beta - gamma >= 0 and for admission."""
    if n < 0:
        return Fraction(0)
    if (n, beta) not in memo:
        if n == 0:
            value = gv.p0_value(beta)
        else:
            value = Fraction(0)
            for gamma, mult in gv.n0.items():
                rest = tuple(b - g for b, g in zip(beta, gamma))
                if min(rest) >= 0 and reference_admits(t, gv.lattice.deg(gamma)):
                    value += mult * reference_pt_coeff(t, n - 1, rest, gv, memo)
        memo[n, beta] = value
    return memo[n, beta]


def reference_mul(a, b):
    """TruncatedSeries.__mul__ as it tested both degrees on every pair."""
    lattice, out = a.lattice, {}
    for (n1, b1), c1 in a.coeffs.items():
        for (n2, b2), c2 in b.coeffs.items():
            if n1 + n2 <= a.nmax and lattice.deg(b1) + lattice.deg(b2) <= lattice.dmax:
                key = (n1 + n2, tuple(x + y for x, y in zip(b1, b2)))
                out[key] = out.get(key, 0) + c1 * c2
    return TruncatedSeries(lattice, a.nmax, out)


def random_rank_table(rng, rank, den=None):
    """A table of the given rank, fractional n0, explicit or synthesized p0:
    n0 denominators from 1..3, n1 ones from 1..2 and an integer p0, or, with
    ``den``, all three drawn from 1..den."""
    omega = tuple(rng.randint(1, 2) for _ in range(rank))
    lattice = ClassLattice(rank, omega, rng.randint(2, 6 if rank < 3 else 4))
    n0 = {beta: Fraction(rng.randint(-3, 3), rng.randint(1, den or 3))
          for beta in lattice.positive_classes() if rng.random() < 0.5}
    if rng.random() < 0.5:
        p0 = {beta: Fraction(rng.randint(-2, 3), rng.randint(1, den) if den else 1)
              for beta in lattice.classes() if rng.random() < 0.4}
        return GVTable(lattice, n0=n0, p0=p0)
    n1 = {beta: Fraction(rng.randint(-2, 2), rng.randint(1, den or 2))
          for beta in lattice.positive_classes() if rng.random() < 0.4}
    return GVTable(lattice, n0=n0, n1=n1)


def chambers(gv):
    """inf, 0+, each side of every wall, and exact parameters off the walls:
    between two integer degrees and at an integer degree no class has."""
    degrees = sorted({gv.lattice.deg(beta) for beta in gv.n0})
    out = [TParam.infinity(), TParam.zero_plus()]
    for d in degrees:
        out += [TParam.plus(Fraction(1, d)), TParam.minus(Fraction(1, d)),
                TParam.exact(Fraction(2, 2 * d + 1))]
    out += [TParam.exact(Fraction(1, d)) for d in range(1, gv.lattice.dmax + 2)
            if d not in degrees]
    return out


def reference_wall_jump_check(t0, gv, nmax):
    """wall_jump_check as it summed the jump formula in Fractions, over the
    former recursion and product, to nmax (the rows past the top y-degree
    are zero and not listed)."""
    plus, minus = TParam.plus(t0), TParam.minus(t0)
    wall = wall_factor_series(t0, gv, nmax)
    series_ok = pt_series_from_gv(plus, gv, nmax) == reference_mul(
        wall, pt_series_from_gv(minus, gv, nmax))
    memo_plus, memo_minus = {}, {}
    rows, all_ok = [], series_ok
    for beta in gv.lattice.classes():
        for n in range(nmax + 1):
            jump = (reference_pt_coeff(plus, n, beta, gv, memo_plus)
                    - reference_pt_coeff(minus, n, beta, gv, memo_minus))
            id_wcf, active_k1, higher_terms_vanish = Fraction(0), 0, True
            for (k, b2), w in wall.coeffs.items():
                rest = tuple(b - g for b, g in zip(beta, b2))
                if 1 <= k <= n and min(rest) >= 0:
                    sub = reference_pt_coeff(minus, n - k, rest, gv, memo_minus)
                    if sub:
                        id_wcf += math.perm(n, k) * w * sub
                        active_k1 += k == 1
                        higher_terms_vanish = higher_terms_vanish and k == 1
            mspace = Fraction(0)
            for b2 in wall_classes(t0, gv):
                rest = tuple(b - g for b, g in zip(beta, b2))
                if min(rest) >= 0:
                    sub = reference_pt_coeff(minus, n - 1, rest, gv, memo_minus)
                    mspace += n * gv.n0[b2] * sub
            simple = active_k1 == 1 and higher_terms_vanish
            row_ok = jump == id_wcf and (not simple or jump == mspace)
            all_ok = all_ok and row_ok
            if jump or id_wcf or mspace or simple:
                rows.append({"n": n, "beta": list(beta), "jump": str(jump),
                             "id_wcf": str(id_wcf), "mspace": str(mspace),
                             "simple_wall": simple, "ok": row_ok})
    return {"t0": str(t0), "wall_classes": [list(b) for b in wall_classes(t0, gv)],
            "series_identity_ok": series_ok, "coefficients": rows, "ok": all_ok}


def test_recursion_and_product_match_the_former_walks():
    # 45 tables with small denominators, then 45 with n0, n1 and p0
    # denominators up to 9, so that the scales D (of n0), E (of P(0, beta))
    # and K_W (of each wall series) are rarely 1 or 2
    rng = random.Random(310)
    seen, wide = set(), {"D": 0, "E": 0, "K_W": 0}
    for case in range(90):
        rank = case % 3 + 1
        gv = random_rank_table(rng, rank, None if case < 45 else 9)
        nmax = rng.randint(1, 4)
        seen.add((rank, gv.p0 is None, case < 45))
        wide["D"] += common_den(gv.n0.values()) > 2
        wide["E"] += common_den(gv.p0_value(b) for b in gv.lattice.classes()) > 2
        for d in sorted({gv.lattice.deg(beta) for beta in gv.n0}):
            t0 = Fraction(1, d)
            wide["K_W"] += common_den(wall_factor_series(t0, gv, nmax).coeffs.values()) > 2
            assert wall_jump_check(t0, gv, nmax) == reference_wall_jump_check(
                t0, gv, nmax), (case, t0)
        for t in chambers(gv):
            memo, reference = {}, {}
            for beta in gv.lattice.classes():
                for n in range(nmax + 1):
                    assert pt_coeff_from_gv(t, n, beta, gv, memo) == reference_pt_coeff(
                        t, n, beta, gv, reference), (t, n, beta)
            p0 = TruncatedSeries(gv.lattice, nmax,
                                 {(0, b): gv.p0_value(b) for b in gv.lattice.classes()})
            active = {(1, b): v for b, v in gv.n0.items() if t.admits(gv.lattice.deg(b))}
            assert pt_series_from_gv(t, gv, nmax) == reference_mul(
                p0, _exp(TruncatedSeries(gv.lattice, nmax, active)))
        den = 3 if case < 45 else 9
        a = random_series_without_constant(rng, gv.lattice, nmax, den)
        b = random_series_without_constant(rng, gv.lattice, nmax, den) + p0
        assert a * b == reference_mul(a, b) and b * a == reference_mul(b, a)
    assert seen == {(r, synthesized, small) for r in (1, 2, 3)
                    for synthesized in (False, True) for small in (False, True)}
    assert min(wide.values()) >= 20, wide


def test_exact_parameter_on_a_wall_raises_where_the_former_walk_did():
    rng = random.Random(311)
    raised = 0
    for case in range(30):
        gv = random_rank_table(rng, case % 3 + 1)
        for d in sorted({gv.lattice.deg(beta) for beta in gv.n0}):
            t = TParam.exact(Fraction(1, d))
            for beta in gv.lattice.classes():
                for n in range(4):
                    try:
                        expected = reference_pt_coeff(t, n, beta, gv, {})
                    except WallError as exc:
                        with pytest.raises(WallError) as got:
                            pt_coeff_from_gv(t, n, beta, gv, {})
                        assert str(got.value) == str(exc)
                        # never at n = 0, nor below every class on the wall
                        assert n > 0 and gv.lattice.deg(beta) >= d
                        raised += 1
                    else:
                        assert pt_coeff_from_gv(t, n, beta, gv, {}) == expected
    assert raised >= 100


def test_recursion_runs_deeper_than_the_interpreter_stack():
    # a cold query at n fills n levels of the chamber's table, one at a time
    n = max(1100, sys.getrecursionlimit() + 100)
    gv = GVTable(ClassLattice(1, (1,), n), n0={(1,): 1}, p0={(0,): 1})
    assert pt_coeff_from_gv(TParam.infinity(), n, (n,), gv) == 1


def test_exact_parameter_on_a_wall_is_quiet_below_it():
    gv = local_p2_table()  # n0 on degrees 1 and 4
    t = TParam.exact(Fraction(1, 4))
    for beta in gv.lattice.classes():
        assert pt_coeff_from_gv(t, 0, beta, gv) == gv.p0_value(beta)
        if beta[0] < 4:
            for n in range(1, 4):
                pt_coeff_from_gv(t, n, beta, gv)  # no class on the wall fits
    with pytest.raises(WallError, match="degree-4 class"):
        pt_coeff_from_gv(t, 1, (4,), gv)


def test_tuples_off_the_lattice_are_refused():
    gv = GVTable(ClassLattice(2, (1, 1), 3), n0={(1, 0): 1}, p0={})
    # other lengths, negative entries, above dmax; at n < 0 too
    for beta in ((1,), (1, 0, 5), (-1, 5), (0, -1), (4, 0), (2, 2)):
        for n in (1, -1):
            with pytest.raises(ValueError, match=re.escape(f"{beta} is not a class")):
                pt_coeff_from_gv(TParam.infinity(), n, beta, gv)
    assert pt_coeff_from_gv(TParam.infinity(), 1, (1, 0), gv) == 1
    assert pt_coeff_from_gv(TParam.infinity(), -1, (1, 0), gv) == 0
    # a synthesized P(0, .) is truncated at dmax: M(q) has 24 q^5 and 13 q^4
    tables = {dmax: GVTable(ClassLattice(1, (1,), dmax), n0={(1,): 1}, n1={(1,): 1})
              for dmax in (3, 6)}
    assert tables[6].p0_value((5,)) == js_from_gv(0, (5,), tables[6]) == 24
    assert pt_coeff_from_gv(TParam.infinity(), 1, (5,), tables[6]) == 13
    for query in (lambda gv: gv.p0_value((5,)), lambda gv: js_from_gv(0, (5,), gv),
                  lambda gv: pt_coeff_from_gv(TParam.infinity(), 0, (5,), gv),
                  lambda gv: pt_coeff_from_gv(TParam.infinity(), 1, (5,), gv)):
        with pytest.raises(ValueError, match=re.escape("(5,) is not a class")):
            query(tables[3])
    for gv in tables.values():
        for beta in ((-1,), (1, 0)):
            with pytest.raises(ValueError, match=re.escape(f"{beta} is not a class")):
                gv.p0_value(beta)
    # an equal-slope count is taken on a lattice of its own, up to deg(beta)
    for gv in tables.values():
        assert js_from_gv(5, (5,), gv) == 1
        assert js_from_gv(1, (5,), gv) == js_from_gv(2, (5,), gv) == 0
        with pytest.raises(ValueError, match=re.escape("(5, 1) is not a class")):
            js_from_gv(5, (5, 1), gv)


def test_wall_sweep_keeps_two_chambers_and_no_new_field():
    rng = random.Random(312)
    for case in range(9):
        gv = random_rank_table(rng, case % 3 + 1)
        fresh = GVTable.from_json(gv.to_json(), dmax=gv.lattice.dmax)
        fields = set(vars(gv))
        for d in sorted({gv.lattice.deg(beta) for beta in gv.n0}, reverse=True):
            assert wall_jump_check(Fraction(1, d), gv, 3)["ok"]
            assert len(gv._chambers) <= 2
        assert set(vars(gv)) == fields
        assert fresh == gv


def wall_sweeps(rng, degrees):
    """Orders of the walls 1/d: ascending, descending, shuffled, and each
    wall twice in a row."""
    shuffled = list(degrees)
    rng.shuffle(shuffled)
    return [sorted(degrees), sorted(degrees, reverse=True), shuffled,
            [d for d in degrees for _ in range(2)]]


def test_chamber_store_gives_the_reports_of_a_fresh_table(monkeypatch):
    rng = random.Random(313)
    built = []
    build = series_module.pt_series_from_gv
    monkeypatch.setattr(series_module, "pt_series_from_gv",
                        lambda t, gv, nmax: built.append(gv) or build(t, gv, nmax))
    for case in range(18):
        gv = random_rank_table(rng, case % 3 + 1)
        degrees = sorted({gv.lattice.deg(beta) for beta in gv.n0})
        for sweep, order in enumerate(wall_sweeps(rng, degrees)):
            # odd cases change nmax between calls
            nmaxes = [rng.randint(1, 4) if case % 2 else 3 for _ in order]
            built.clear()
            for d, nmax in zip(order, nmaxes):
                t0 = Fraction(1, d)
                fresh = GVTable.from_json(gv.to_json(), dmax=gv.lattice.dmax)
                assert wall_jump_check(t0, gv, nmax) == wall_jump_check(
                    t0, fresh, nmax), (case, order, t0, nmax)
                assert len(gv._chambers) <= 2
            if case % 2 == 0 and sweep < 2 and degrees:
                # a monotone sweep at one nmax builds each of its chambers
                # once, one more than its walls; the descending sweep starts
                # at the wall where the ascending one ended
                expected = len(degrees) + 1 if sweep == 0 else len(degrees) - 1
                assert sum(table is gv for table in built) == expected, (case, order)


def test_pair_count_table_matches_the_single_queries():
    rng = random.Random(314)
    for case in range(30):
        gv = random_rank_table(rng, case % 3 + 1, None if case < 15 else 9)
        nmax = rng.randint(0, 4)
        classes = gv.lattice.classes()
        scale_d = common_den(gv.n0.values())
        scale_e = common_den(gv.p0_value(beta) for beta in classes)
        for t in chambers(gv):
            table, reference = _fill(_pair_counts(t, gv), _top_n(gv, nmax)), {}
            assert len(table) == _top_n(gv, nmax) + 1
            for n, level in enumerate(table):
                assert all(type(g) is int for g in level)
                assert level == [
                    reference_pt_coeff(t, n, beta, gv, reference) * scale_d**n * scale_e
                    for beta in classes
                ], (case, t, n)


def test_one_memo_answers_as_cold_queries_do(monkeypatch):
    rng = random.Random(315)
    built, levels = [], []
    build, fill = series_module._pair_counts, series_module._fill
    monkeypatch.setattr(series_module, "_pair_counts",
                        lambda t, gv: built.append(t) or build(t, gv))

    def counting_fill(table, n):
        before = len(table[1])
        g = fill(table, n)
        levels.append(len(g) - before)
        return g

    monkeypatch.setattr(series_module, "_fill", counting_fill)

    def answer(query, gv, memo):
        try:
            return pt_coeff_from_gv(*query, gv, memo)
        except WallError as exc:
            return str(exc)

    for case in range(12):
        gv = random_rank_table(rng, case % 3 + 1)
        degrees = sorted({gv.lattice.deg(beta) for beta in gv.n0})
        # exact parameters off the walls come with chambers(gv), on them here
        params = chambers(gv) + [TParam.exact(Fraction(1, d)) for d in degrees]
        queries = [(t, n, beta) for t in params for n in range(5)
                   for beta in gv.lattice.classes()]
        cold = {}
        for query in queries:
            memo = {}
            cold[query] = answer(query, gv, memo)
            # a cold query at n fills no level above n
            t, n = query[:2]
            assert len(memo[t][2][1]) <= n + 1, query
        descending = sorted(queries, key=lambda query: -query[1])
        ascending = sorted(queries, key=lambda query: query[1])
        interleaved = rng.sample(queries, len(queries))
        for order in (descending, ascending, interleaved):
            memo = {}
            built.clear()
            levels.clear()
            assert [answer(query, gv, memo) for query in order] == [cold[q] for q in order]
            # one table per parameter, and each of its levels filled once
            assert len(built) == len(set(params)) == len(memo)
            assert sum(levels) == sum(len(table[1]) - 1 for _, _, table in memo.values())


def test_a_memo_shared_by_two_tables_answers_for_each():
    lattice = ClassLattice(1, (1,), 4)
    one, five = (GVTable(lattice, n0={(1,): v}, p0={}) for v in (1, 5))
    small = GVTable(ClassLattice(1, (1,), 2), n0={(1,): 1}, p0={})
    for t in (TParam.infinity(), TParam.exact(2), TParam.plus(1)):
        memo = {}
        assert pt_coeff_from_gv(t, 1, (1,), one, memo) == 1
        assert pt_coeff_from_gv(t, 1, (1,), five, memo) == 5
        assert pt_coeff_from_gv(t, 2, (2,), one, memo) == 1
        assert memo[t][0] is one
        # a table of a smaller lattice first, then a class only the larger one holds
        assert pt_coeff_from_gv(t, 1, (2,), small, memo) == 0
        assert pt_coeff_from_gv(t, 3, (3,), one, memo) == 1
        assert pt_coeff_from_gv(t, 2, (3,), five, memo) == 0
        assert pt_coeff_from_gv(t, 3, (3,), five, memo) == 125
    # an equal table is still another table: its entry is rebuilt, with the same counts
    memo = {}
    twin = GVTable(lattice, n0={(1,): 1}, p0={})
    pt_coeff_from_gv(TParam.infinity(), 1, (1,), one, memo)
    assert pt_coeff_from_gv(TParam.infinity(), 4, (4,), twin, memo) == 1
    assert memo[TParam.infinity()][0] is twin


# -- the int domain of the series kernels -----------------------------------------------


def test_pair_count_lists_sort_the_stored_classes_once(monkeypatch):
    rng = random.Random(316)
    sorts = []
    monkeypatch.setattr(series_module, "sorted",
                        lambda *args, **kwargs: sorts.append(1) or sorted(*args, **kwargs),
                        raising=False)
    ranks = set()
    for case in range(36):
        rank = case % 3 + 1
        gv = random_rank_table(rng, rank, None if case < 18 else 9)
        classes = gv.lattice.classes()
        deg, scale = gv.lattice.deg, common_den(gv.n0.values())
        gv._p0_form()  # level 0 of every table, a series of its own
        sorts.clear()
        walls = sorted({deg(gamma) for gamma in gv.n0})
        sides = [TParam.infinity(), TParam.zero_plus()]
        sides += [side(Fraction(1, d)) for d in walls for side in (TParam.plus, TParam.minus)]
        # the stored classes sorted on their own, heaviest first
        heaviest = sorted(gv.n0.items(), key=lambda item: -deg(item[0]))
        for t in sides:
            admitted = [(gamma, mult) for gamma, mult in heaviest
                        if reference_admits(t, deg(gamma))]
            prefixes = _pair_counts(t, gv)[0]
            assert len(prefixes) == len(classes)
            for beta, prefix in zip(classes, prefixes):
                rests = [(mult * scale, tuple(b - g for b, g in zip(beta, gamma)))
                         for gamma, mult in admitted]
                expected = [(mult, classes.index(rest)) for mult, rest in rests if min(rest) >= 0]
                assert prefix == expected, (case, t, beta)
                assert all(type(mult) is int for mult, _ in prefix)
        assert len(sorts) == 1, case  # one sort per table, not one per class or chamber
        ranks.add(rank)
    assert ranks == {1, 2, 3}


def test_series_keys_off_the_lattice_are_refused():
    lattice = ClassLattice(2, (1, 2), 4)
    gv = GVTable(lattice, n0={(1, 0): 1}, p0={})
    for beta in ((-1, 0), (2, -1), (1,), (0, 1, 0), (1.5, 0), (1.0, 0), (True, 0)):
        message = f"{beta} is not a class of the lattice of rank 2 and degree at most 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            _exp(TruncatedSeries(lattice, 3, {(1, beta): 1}))
        with pytest.raises(ValueError, match=re.escape(message)):
            TruncatedSeries(lattice, 3, {(0, (0, 0)): 1, (2, beta): 0})
        if len(beta) != 2:  # pt_coeff_from_gv reads a negative entry as 0
            with pytest.raises(ValueError, match=re.escape(message)):
                pt_coeff_from_gv(TParam.infinity(), 1, beta, gv)
    # keys above dmax or nmax are the truncation: dropped
    past = {(1, (5, 0)): 1, (4, (1, 0)): 1, (1, (0, 3)): 2}  # above dmax 4 or nmax 3
    assert TruncatedSeries(lattice, 3, past).coeffs == {}
    one_class = TruncatedSeries(lattice, 3, {(1, (1, 0)): 1})
    assert _exp(TruncatedSeries(lattice, 3, {(1, (1, 0)): 1, (1, (5, 0)): 7, (4, (0, 1)): 3})) \
        == _exp(one_class) != TruncatedSeries.one(lattice, 3)


def test_lattice_sum_table_is_tuple_addition():
    rng = random.Random(317)
    for case in range(30):
        rank = case % 3 + 1
        omega = tuple(rng.randint(1, 3) for _ in range(rank))
        lattice = ClassLattice(rank, omega, rng.randint(0, 9 if rank < 3 else 6))
        classes, deg = lattice.classes(), lattice.deg
        sums = lattice._sum_table()
        assert len(sums) == len(classes)
        for i, beta in enumerate(classes):
            # row i is the prefix of the classes that fit beside beta
            fits = [j for j, gamma in enumerate(classes) if deg(beta) + deg(gamma) <= lattice.dmax]
            assert fits == list(range(len(sums[i]))), (lattice, beta)
            for j, position in enumerate(sums[i]):
                assert classes[position] == tuple(b + g for b, g in zip(beta, classes[j]))
        # one entry per pair of classes whose degrees sum to at most dmax
        assert sum(map(len, sums)) == sum(deg(a) + deg(b) <= lattice.dmax
                                          for a in classes for b in classes)
        # the differences of a call, against _rest
        differences = series_module._by_difference(lattice, [(p, p) for p in range(len(classes))])
        for i, beta in enumerate(classes):
            expected = [(p, classes.index(rest)) for p, gamma in enumerate(classes)
                        if (rest := series_module._rest(beta, gamma)) is not None]
            assert sorted(differences[i]) == expected, (lattice, beta)


def test_series_identity_check_sees_one_wrong_coefficient(monkeypatch):
    # n0, n1 and p0 denominators up to 9, so that the scale of PT^+ differs
    # from the product of the scales of the wall factor and PT^-
    rng = random.Random(318)
    build = series_module.pt_series_from_gv
    nmax, checked, scales_differ = 3, 0, 0
    for case in range(36):
        gv = random_rank_table(rng, case % 3 + 1, 9)
        for d in sorted({gv.lattice.deg(beta) for beta in gv.n0}):
            t0 = Fraction(1, d)
            plus, minus = TParam.plus(t0), TParam.minus(t0)
            report = wall_jump_check(t0, gv, nmax)
            assert report["series_identity_ok"] and report["ok"]
            scale_w = series_module._exp_ints(
                gv.lattice, nmax, series_module._n0_form(gv, series_module._on_wall(t0, gv)))[0]
            scales_differ += (build(plus, gv, nmax)._ints[0]
                              != scale_w * build(minus, gv, nmax)._ints[0])
            keys = [(n, beta) for beta in gv.lattice.classes() for n in range(nmax + 1)]
            for t in (plus, minus):
                key = rng.choice(keys)  # a coefficient changed, or a new one

                def perturbed(s, table, n, t=t, key=key):
                    series = build(s, table, n)
                    if s != t:
                        return series
                    coeffs = dict(series.coeffs)
                    coeffs[key] = coeffs.get(key, 0) + Fraction(1, 7)
                    return TruncatedSeries(series.lattice, series.nmax, coeffs)

                monkeypatch.setattr(series_module, "pt_series_from_gv", perturbed)
                fresh = GVTable.from_json(gv.to_json(), dmax=gv.lattice.dmax)
                report = wall_jump_check(t0, fresh, nmax)
                assert not report["series_identity_ok"] and not report["ok"], (case, t, key)
                monkeypatch.setattr(series_module, "pt_series_from_gv", build)
                checked += 1
    assert checked >= 90 and scales_differ >= 15, (checked, scales_differ)


def test_wall_sweep_multiplies_no_series(monkeypatch):
    rng = random.Random(319)
    tables = [random_rank_table(rng, case % 3 + 1, None if case < 6 else 9) for case in range(12)]

    def sweep(gv):
        degrees = sorted({gv.lattice.deg(beta) for beta in gv.n0}, reverse=True)
        return [wall_jump_check(Fraction(1, d), gv, 3) for d in degrees]

    expected = [sweep(GVTable.from_json(gv.to_json(), dmax=gv.lattice.dmax)) for gv in tables]

    def refuse(self, other):
        raise AssertionError("a wall check multiplied two series")

    monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
    assert [sweep(gv) for gv in tables] == expected
    assert sum(map(len, expected)) >= 15


def test_wall_sweep_reads_no_series_fraction(monkeypatch):
    rng = random.Random(320)
    tables = [random_rank_table(rng, case % 3 + 1, None if case < 6 else 9) for case in range(12)]

    def sweep(gv):
        degrees = sorted({gv.lattice.deg(beta) for beta in gv.n0}, reverse=True)
        return [wall_jump_check(Fraction(1, d), gv, 3) for d in degrees]

    expected = [sweep(GVTable.from_json(gv.to_json(), dmax=gv.lattice.dmax)) for gv in tables]

    def refuse(*args):
        raise AssertionError("a wall check read a series coefficient as a Fraction")

    monkeypatch.setattr(TruncatedSeries, "coeffs", property(refuse))
    monkeypatch.setattr(TruncatedSeries, "coefficient", refuse)
    assert [sweep(gv) for gv in tables] == expected
    assert sum(map(len, expected)) >= 15


# -- one representation: a series is its int form -------------------------------------


def test_series_from_fractions_equals_its_int_form_over_any_scale():
    lattice = ClassLattice(2, (1, 2), 4)
    classes = lattice.classes()
    i, j = classes.index((1, 0)), classes.index((0, 1))
    third = TruncatedSeries(lattice, 2, {(1, (1, 0)): Fraction(1, 3), (0, (0, 0)): 1})
    over_six = TruncatedSeries._from_ints(lattice, 2, (6, {(1, i): 2, (0, 0): 6}))
    assert third._ints == (3, {(1, i): 1, (0, 0): 3})
    assert third == over_six and over_six == third
    assert third.coeffs == over_six.coeffs == {(1, (1, 0)): Fraction(1, 3), (0, (0, 0)): 1}
    assert over_six.coefficient(1, (1, 0)) == over_six.coefficient(1, [1, 0]) == Fraction(1, 3)
    # a key moved, a value changed, a key dropped or one added
    for form in ((6, {(1, j): 2, (0, 0): 6}), (6, {(1, i): 3, (0, 0): 6}),
                 (6, {(1, i): 2}), (6, {(1, i): 2, (0, 0): 6, (2, 0): 1})):
        other = TruncatedSeries._from_ints(lattice, 2, form)
        assert third != other and other != third, form
    assert third != TruncatedSeries._from_ints(lattice, 3, (6, {(1, i): 2, (0, 0): 6}))
    assert third != TruncatedSeries(ClassLattice(2, (1, 2), 5), 2,
                                    {(1, (1, 0)): Fraction(1, 3), (0, (0, 0)): 1})
    assert third != third._ints and third != 1


def test_series_coefficient_off_the_series_is_zero():
    lattice = ClassLattice(2, (1, 2), 4)
    series = TruncatedSeries(lattice, 2, {(1, (1, 0)): Fraction(1, 3), (2, (0, 2)): -4})
    assert series.coefficient(2, (0, 2)) == -4 and type(series.coefficient(2, (0, 2))) is Fraction
    # above dmax, or a key the series does not hold
    for n, beta in ((1, (5, 0)), (1, (0, 3)), (0, (1, 0)), (3, (1, 0)), (-1, (1, 0)),
                    (2, (0, 1))):
        value = series.coefficient(n, beta)
        assert value == 0 and type(value) is Fraction, (n, beta)
    # other lengths and negative entries are no classes
    for n, beta in ((1, (1,)), (1, (1, 0, 0)), (1, ()), (1, (-1, 0)), (-1, (0, -2))):
        with pytest.raises(ValueError, match=re.escape(f"{beta} is not a class")):
            series.coefficient(n, beta)


def test_series_coeffs_is_a_fresh_dict():
    lattice = ClassLattice(2, (1, 2), 4)
    series = TruncatedSeries(lattice, 2, {(1, (1, 0)): Fraction(1, 3), (0, (0, 0)): 1})
    before = TruncatedSeries(lattice, 2, series.coeffs)
    coeffs = series.coeffs
    coeffs[(1, (1, 0))] = Fraction(5)
    coeffs[(2, (0, 1))] = Fraction(1)
    del coeffs[(0, (0, 0))]
    assert series == before and series.coeffs == {(1, (1, 0)): Fraction(1, 3), (0, (0, 0)): 1}
    assert series.coeffs is not series.coeffs
    with pytest.raises(AttributeError):
        series.coeffs = coeffs


def test_negative_nmax_is_refused():
    gv = local_p2_table()
    lattice = gv.lattice
    builds = {
        "TruncatedSeries": lambda: TruncatedSeries(lattice, -1, {(0, (0,)): 1}),
        "one": lambda: TruncatedSeries.one(lattice, -1),
        "_exp_ints": lambda: series_module._exp_ints(lattice, -1, (1, {(1, 1): 1})),
        "pt_series_from_gv": lambda: pt_series_from_gv(TParam.infinity(), gv, -1),
        "wall_factor_series": lambda: wall_factor_series(Fraction(1), gv, -1),
        "wall_jump_check": lambda: wall_jump_check(Fraction(1), gv, -1),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == "series truncation nmax must be nonnegative, got -1", name
    # nmax 0 keeps the degree-zero part
    assert wall_factor_series(Fraction(1), gv, 0) == TruncatedSeries.one(lattice, 0)
    assert pt_series_from_gv(TParam.infinity(), gv, 0) == TruncatedSeries(
        lattice, 0, {(0, (0,)): 1, (0, (3,)): 1})
    assert wall_jump_check(Fraction(1), gv, 0)["ok"]
