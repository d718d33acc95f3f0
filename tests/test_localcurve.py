"""Local-curve invariants: fixed-point enumeration, obstruction square roots,
the invariants P(n, d) two ways, conjecture sweeps, residues, homogeneity."""

import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction

import pytest

from stablepairs import localcurve
from stablepairs.equivariant import (
    KClass,
    SplitGeometry,
    TrivialWeightError,
    check_square_root,
    euler_factored,
    kclass_parse,
)
from stablepairs.localcurve import (
    GEOM_STANDARD,
    Composition,
    D1FixedPoint,
    d1_fixed_points,
    enumerate_fixed_points,
    expected_conjecture_value,
    full_obstruction_d1,
    full_obstruction_general,
    half_obstruction_d1,
    half_obstruction_general,
    is_homogeneous_of_degree,
    js_invariant_closed_form,
    js_invariant_enumerated,
    orientation_sign,
    residue_vanishing_check,
    verify_conjecture,
    _contribution_general,
    _pair_block_factors,
    _part_block_factors,
    _residue_term,
    _residues_at_l3_one,
    _POOL_MIN_FIXED_POINTS,
    _worker_count,
)
from stablepairs.ratfun import (
    FactoredRatFun,
    PoleOrderError,
    Poly,
    RatFun,
    ratfun_str,
    residue_at,
)

L = [Poly.variable(i, 4) for i in range(4)]


def half(*parts):
    return half_obstruction_general(Composition(parts))


# -- fixed-point enumeration -----------------------------------------------------------


def test_enumeration_pinned():
    assert [c.parts for c in enumerate_fixed_points(2, 2)] == [(2,)]
    assert [c.parts for c in enumerate_fixed_points(4, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_fixed_points(3, 2) == []
    assert enumerate_fixed_points(1, 2) == []
    assert [p.a for p in d1_fixed_points(3)] == [0, 1, 2]


def test_enumeration_counts_weak_compositions():
    for d in range(1, 6):
        for ratio in range(1, 6):
            n = ratio * d
            count = len(enumerate_fixed_points(n, d))
            assert count == math.comb(d + ratio - 1, ratio - 1), (n, d)


def recursive_compositions(total, length):
    """The weak compositions of total into length parts, first part
    descending, by the recursion enumerate_fixed_points used to run."""
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in recursive_compositions(total - first, length - 1):
            yield (first,) + rest


def test_enumeration_matches_the_recursive_order():
    # --audit output and pinned_js.json list contributions in this order
    grid = [(n, d) for d in range(1, 8) for n in range(d, 9 * d + 1, d)]
    grid += [(60, 4), (120, 2)]
    for n, d in grid:
        assert ([c.parts for c in enumerate_fixed_points(n, d)]
                == list(recursive_compositions(d, n // d))), (n, d)


def test_enumeration_rejects_bad_degree():
    with pytest.raises(ValueError):
        enumerate_fixed_points(4, 0)
    with pytest.raises(ValueError):
        enumerate_fixed_points(4, -1)


def test_enumerated_compositions_equal_validated_ones():
    # the enumeration wraps its own parts unchecked; the result is the
    # validated composition, and every other caller's parts are still checked
    for n, d in [(4, 2), (12, 3), (30, 5), (42, 2), (36, 9)]:
        for comp in enumerate_fixed_points(n, d):
            validated = Composition(comp.parts)
            assert comp == validated and hash(comp) == hash(validated)
            assert type(comp.parts) is tuple and all(type(p) is int for p in comp.parts)
    assert Composition([2, 0]).parts == (2, 0)
    for bad in [(), (1, -1), (-2,)]:
        with pytest.raises(ValueError):
            Composition(bad)


def test_composition_labels():
    c = Composition((2, 0))
    assert c.label() == "(2,0)"
    assert (c.d, c.k, c.n) == (2, 1, 4)
    p = D1FixedPoint(1, 2)
    assert p.n == 4
    assert p.label() == "(a=1,b=2)"


# -- obstruction square roots ----------------------------------------------------------


def test_half_obstruction_frozen_values():
    assert half(1) == kclass_parse("-t3")
    assert half(2) == kclass_parse("-t3^-1 - t3^2")
    assert half(3) == kclass_parse("-t3^-1 - t3^-2 - t3^3")
    assert half(2, 0) == kclass_parse("-t0^-1 - t0^-1*t3^-1 - t3^-1 - t3^2")
    assert half(0, 2) == kclass_parse("-t3^-1 - t0 - t0*t3^-1 - t3^2")
    assert half(1, 1) == kclass_parse("t0 - t0^-1 - t0*t3 - t0*t3^-1 - 2*t3")
    assert half(1, 0, 1) == kclass_parse(
        "-t0^-2 - t0^-1 - t0 + t0^2 - t0^2*t3 - t0^2*t3^-1 - 2*t3"
    )


def test_degree_one_agrees_both_ways():
    # the composition e_i of d = 1 describes the same pair as the (a, b) point
    for n in range(1, 9):
        points = {p.a: p for p in d1_fixed_points(n)}
        for comp in enumerate_fixed_points(n, 1):
            i = comp.parts.index(1)
            assert half_obstruction_general(comp) == half_obstruction_d1(
                points[i], GEOM_STANDARD
            ), (n, comp.parts)


def test_full_obstruction_doubles_the_half():
    for n, d in [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (6, 2), (3, 3), (6, 3), (4, 4)]:
        for comp in enumerate_fixed_points(n, d):
            assert check_square_root(
                full_obstruction_general(comp), half_obstruction_general(comp)
            ), (n, d, comp.parts)


def _forget_first_coordinate(kclass):
    """Restrict to the subtorus t0 = 1: collapse every weight's first entry."""
    terms = {}
    for w, mult in kclass.terms.items():
        key = (0, w[1], w[2], w[3])
        terms[key] = terms.get(key, 0) + mult
    return KClass(terms)


def test_full_obstruction_doubles_the_half_d1():
    # The half class carries each normal direction as an integer multiple of
    # the pure fiber character, which is exact when every chi(L_i) sits in
    # t0-degree zero (degrees -1 and 0).  The assembled full class keeps the
    # finer t0-grading, so on geometries with other degrees the doubling
    # identity holds after restricting to the t0 = 1 subtorus.  Both sides
    # are compared trace-normalized.
    for degs in [(-1, -1, 0), (0, -1, -1), (-1, 0, -1)]:
        geom = SplitGeometry(*degs)
        for n in range(1, 7):
            for point in d1_fixed_points(n):
                assert check_square_root(
                    full_obstruction_d1(point, geom),
                    half_obstruction_d1(point, geom).cy_normalized(),
                ), (degs, n, point)
    for degs in [(1, -1, -2), (3, -2, -3)]:
        geom = SplitGeometry(*degs)
        for n in range(1, 7):
            for point in d1_fixed_points(n):
                full = full_obstruction_d1(point, geom)
                half = half_obstruction_d1(point, geom).cy_normalized()
                assert check_square_root(
                    _forget_first_coordinate(full),
                    _forget_first_coordinate(half),
                ), (degs, n, point)
                assert full.rank() == 2 * half.rank(), (degs, n, point)


def test_trivial_weight_always_cancels():
    # the zero weight appears in intermediate terms but never in the square root
    for n, d in [(2, 2), (4, 2), (6, 2), (6, 3), (9, 3), (8, 4)]:
        for comp in enumerate_fixed_points(n, d):
            euler_factored(half_obstruction_general(comp))  # must not raise


@pytest.fixture
def cold_block_caches():
    """The contribution's block caches, emptied before and after the test."""
    caches = (_part_block_factors, _pair_block_factors)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_contribution_keeps_the_trivial_weight_check(monkeypatch, cold_block_caches):
    # a trivial character surviving in a part block or a pair block must
    # raise, never reach the product, and the raising fill is not cached:
    # every block is trivial-free
    comp = Composition((1, 1))
    last_sum, pair_characters = localcurve._last_sum_characters, localcurve._pair_characters
    for name, with_trivial, cache in [
        # the part block loses the +1 that cancels its first sum's -1
        ("_last_sum_characters", lambda part: last_sum(part)[1:], _part_block_factors),
        ("_pair_characters", lambda *key: pair_characters(*key) + (((0, 0, 0, 0), -1),),
         _pair_block_factors),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(localcurve, name, with_trivial)
            for _ in range(2):
                with pytest.raises(TrivialWeightError):
                    _contribution_general(comp)
        assert cache.cache_info().currsize == 0, name


def test_orientation_sign():
    assert orientation_sign(Composition((2,))) == (-1) ** (2 + 1)
    assert orientation_sign(Composition((1, 1))) == (-1) ** (2 + 2)
    assert orientation_sign(Composition((2, 0))) == (-1) ** (4 + 1)


# -- the invariants -------------------------------------------------------------------


def test_pinned_invariant_values():
    assert ratfun_str(js_invariant_enumerated(1, 1).value) == "(1)/(l3)"
    assert ratfun_str(js_invariant_enumerated(3, 3).value) == "(1/6)/(l3^3)"
    assert js_invariant_enumerated(2, 2).value == RatFun(
        Poly.constant(Fraction(1, 2), 4), L[3] ** 2
    )
    assert js_invariant_enumerated(5, 2).value == RatFun.zero()
    assert js_invariant_enumerated(0, 0).value == RatFun.one()
    assert js_invariant_enumerated(1, 0).value == RatFun.zero()
    assert js_invariant_enumerated(0, 2).value == RatFun.zero()


def test_audit_of_degree_two_cancellation():
    result = js_invariant_enumerated(4, 2, audit=True)
    per = dict(result.contributions)
    l0, l3 = L[0], L[3]
    two = Poly.constant(2, 4)
    assert per["(2,0)"] == RatFun(Poly.one(4), two * l0 * l3**2 * (l0 + l3))
    assert per["(1,1)"] == RatFun(-Poly.one(4), l3**2 * (l0 * l0 - l3 * l3))
    assert per["(0,2)"] == RatFun(Poly.one(4), two * l0 * l3**2 * (l0 - l3))
    assert result.value == RatFun.zero()
    assert result.fixed_point_count == 3
    assert result.conjecture_status() == "match"


def test_invariant_on_all_four_geometries():
    cases = [
        ((-1, -1, 0), "(1)/(l3)"),
        ((0, -1, -1), "(1)/(l1)"),
        ((1, -1, -2), "(l3)/(l1^2)"),
        ((3, -2, -3), "(l2*l3^2)/(l1^4)"),
    ]
    for degs, expected in cases:
        geom = SplitGeometry(*degs)
        value = js_invariant_enumerated(1, 1, geom).value
        assert ratfun_str(value) == expected, degs
        for n in range(2, 13):
            assert js_invariant_enumerated(n, 1, geom).value == RatFun.zero(), (degs, n)


def test_closed_formula_matches_enumeration():
    spots = [(1, 1), (2, 1), (4, 1), (2, 2), (4, 2), (6, 2), (3, 3), (6, 3), (4, 4)]
    for n, d in spots:
        closed = js_invariant_closed_form(n, d).value
        enumerated = js_invariant_enumerated(n, d).value
        assert closed == enumerated, (n, d)


def test_closed_formula_domain():
    with pytest.raises(ValueError):
        js_invariant_closed_form(3, 2)
    with pytest.raises(ValueError):
        js_invariant_closed_form(2, 0)
    with pytest.raises(ValueError):
        js_invariant_closed_form(1, 2)


def test_higher_degree_needs_standard_geometry():
    with pytest.raises(ValueError):
        js_invariant_enumerated(2, 2, SplitGeometry(0, -1, -1))


def test_diagonal_values():
    for d in range(1, 7):
        value = js_invariant_closed_form(d, d).value
        assert value == expected_conjecture_value(d, d), d
    assert expected_conjecture_value(6, 2) == RatFun.zero()


def test_verify_conjecture_prefix():
    report = verify_conjecture(2, 5)
    assert report["ok"]
    assert len(report["rows"]) == 10
    assert report["counterexamples"] == []
    statuses = {row["conjecture_status"] for row in report["rows"]}
    assert statuses == {"match"}


def test_verify_conjecture_resume_and_callback():
    fresh = []
    done = {(1, 1): {"n": 1, "d": 1, "conjecture_status": "match"}}
    report = verify_conjecture(1, 3, rows_done=done, on_row=fresh.append)
    assert len(report["rows"]) == 3
    assert [(r["n"], r["d"]) for r in fresh] == [(2, 1), (3, 1)]


@pytest.mark.parametrize("d_max, ratio_max, bad", [
    (0, 3, "d_max >= 1, got 0"), (2, 0, "ratio_max >= 1, got 0"), (-1, -1, "d_max >= 1, got -1")])
def test_verify_conjecture_refuses_an_empty_grid(d_max, ratio_max, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        verify_conjecture(d_max, ratio_max)


def test_jobs_give_identical_results():
    for jobs in (2, 4):
        assert (
            js_invariant_enumerated(6, 2, jobs=jobs).value
            == js_invariant_enumerated(6, 2, jobs=1).value
        )


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr("stablepairs.localcurve.os.cpu_count", lambda: 2)
    assert _worker_count(8, 100) == 2
    assert _worker_count(8, 1) == 1
    assert _worker_count(1, 100) == 1
    assert _worker_count(4, 0) == 1
    monkeypatch.setattr("stablepairs.localcurve.os.cpu_count", lambda: None)
    assert _worker_count(8, 100) == 1


def test_each_call_starts_at_most_one_pool(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize):
            return map(fn, items)

    expected_sweep = verify_conjecture(2, 3)
    expected_value = js_invariant_enumerated(6, 2, audit=True)
    monkeypatch.setattr("multiprocessing.Pool", SerialPool)
    monkeypatch.setattr("stablepairs.localcurve.os.cpu_count", lambda: 2)
    monkeypatch.setattr("stablepairs.localcurve._POOL_MIN_FIXED_POINTS", 0)
    # the sweep spreads whole rows; each row computes in process
    assert verify_conjecture(2, 3, jobs=4) == expected_sweep
    assert started == [2]
    value = js_invariant_enumerated(6, 2, jobs=4, audit=True)
    assert value.contributions == expected_value.contributions
    assert started == [2]
    # below the gate, jobs=4 starts no pool
    monkeypatch.setattr("stablepairs.localcurve._POOL_MIN_FIXED_POINTS",
                        _POOL_MIN_FIXED_POINTS)
    assert verify_conjecture(2, 3, jobs=4) == expected_sweep
    value = js_invariant_enumerated(6, 2, jobs=4, audit=True)
    assert value.contributions == expected_value.contributions
    assert started == [2]


def test_real_pool_gives_identical_values_and_audits(monkeypatch, pool_starts):
    monkeypatch.setattr("stablepairs.localcurve._POOL_MIN_FIXED_POINTS", 0)
    for n, d in [(6, 3), (8, 2), (9, 1)]:
        serial, pooled = (js_invariant_enumerated(n, d, jobs=jobs, audit=True) for jobs in (1, 2))
        assert pooled.value == serial.value, (n, d)
        assert pooled.contributions == serial.contributions, (n, d)
        assert pooled.fixed_point_count == serial.fixed_point_count
    assert verify_conjecture(2, 3, jobs=2) == verify_conjecture(2, 3)
    assert pool_starts == [2]


def test_report_shape():
    report = js_invariant_enumerated(2, 2).to_report()
    assert report == {
        "n": 2,
        "d": 2,
        "geometry": [-1, -1, 0],
        "value": "(1/2)/(l3^2)",
        "fixed_point_count": 1,
        "elapsed_ms": 0,
        "conjecture_status": "match",
    }


# -- residue certificate ---------------------------------------------------------------


def at_l3_one(term):
    """A residue summand at l3 = 1 as a RatFun: scalar / prod(l0 + j), the
    product expanded in ints.  Its numerator is constant and its forms are
    distinct, so it is already reduced; residue_at on it is the oracle for
    the certificate's int residues."""
    den = [1]  # coefficients in l0, lowest power first
    for _, _, _, j in term.forms:
        den = [low + j * c for low, c in zip([0] + den, den + [0])]
    return RatFun._trusted(
        Poly.constant(term.scalar, 4),
        Poly(4, {(power, 0, 0, 0): c for power, c in enumerate(den)}),
    )


def test_residue_summands_frozen_at_first_pole():
    # d = 2, pole at m = 1, summands ordered by d1 = 0, 1, 2
    terms = [_residue_term(2 - d1, d1) for d1 in range(3)]
    expected = [Fraction(0), Fraction(-1, 2), Fraction(1, 2)]
    assert [residue_at(at_l3_one(term), 1).as_fraction() for term in terms] == expected
    assert [Fraction(*_residues_at_l3_one(term, 2).get(1, (0, 1)))
            for term in terms] == expected


def test_residue_summands_equal_the_reduced_generic_fraction():
    """The summand built from its factor list, with no gcd, is the RatFun
    that generic reduction of (-1)^d1/(d0! d1!) * (l0 + d0 - d1) /
    prod_{j=-d1}^{d0} (l0 + j) gives."""
    one = Poly.one(4)
    for d in range(1, 7):
        for d1 in range(d + 1):
            d0 = d - d1
            num = (L[0] + one * (d0 - d1)) * Fraction(
                (-1) ** d1, math.factorial(d0) * math.factorial(d1))
            den = one
            for j in range(-d1, d0 + 1):
                den = den * (L[0] + one * j)
            assert at_l3_one(_residue_term(d0, d1)) == RatFun(num, den), (d0, d1)


def test_int_residues_match_residue_at_on_every_summand():
    """Every summand's int residue at every integer m in [-d, d], d <= 20,
    equals residue_at on its l3 = 1 expansion; it has no pole elsewhere."""
    for d in range(1, 21):
        for d1 in range(d + 1):
            term = _residue_term(d - d1, d1)
            residues = _residues_at_l3_one(term, d)
            assert len(residues) == d and set(residues) <= set(range(-d, d + 1))
            f = at_l3_one(term)
            for m in range(-d, d + 1):
                residue = Fraction(*residues[m]) if m in residues else 0
                assert residue == residue_at(f, m).as_fraction(), (d, d1, m)


def test_residue_certificate_runs_no_poly_or_ratfun_arithmetic(monkeypatch):
    from stablepairs.cli import main

    def tripwire(*args):
        raise AssertionError("Poly or RatFun arithmetic on the residues path")

    monkeypatch.setattr("stablepairs.ratfun.residue_at", tripwire)
    for cls in (Poly, RatFun):
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
            if hasattr(cls, op):
                monkeypatch.setattr(cls, op, tripwire)
    for d in range(1, 21):
        assert residue_vanishing_check(d)["ok"], d
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["residues", "--d", "7", "--format", "json"]) == 0
    assert json.loads(out.getvalue())["ok"]


@pytest.mark.parametrize("change", [
    lambda forms: {**forms, (1, 0, 0, 0): forms[1, 0, 0, 0] - 1},
    lambda forms: {**forms, (1, 1, 0, 0): -1},
    lambda forms: {**forms, (1, 0, 0, -4): -1},  # m = 4 > d
    lambda forms: {**forms, (1, 0, 0, 3): 1},
], ids=["doubled_form", "form_with_l1", "pole_outside_the_range", "numerator_form_left"])
def test_residue_certificate_refuses_a_non_simple_summand(monkeypatch, change):
    def changed(d0, d1):
        term = _residue_term(d0, d1)
        return FactoredRatFun(term.scalar, change(term.forms)) if d1 == 1 else term

    monkeypatch.setattr("stablepairs.localcurve._residue_term", changed)
    with pytest.raises(PoleOrderError):
        residue_vanishing_check(3)


def test_residue_certificate_fails_on_a_doubled_summand(monkeypatch):
    """Both fast checks, the residue totals and the packed Phi sum, still
    see a wrong summand."""
    def doubled(d0, d1):
        term = _residue_term(d0, d1)
        return term.times_scalar(2) if d1 == 0 else term

    monkeypatch.setattr("stablepairs.localcurve._residue_term", doubled)
    for d in (1, 3, 6):
        report = residue_vanishing_check(d)
        assert report["ok"] is False
        assert report["phi_is_zero"] is False
        assert any(row["residue"] != "0" for row in report["poles"])


def reference_residue_term(d0, d1):
    """The summand as built before it was written as its factor list: the
    numerator form and every denominator form through FactoredRatFun.product,
    which cancels the pair and normalizes each form."""
    factors = [((1, 0, 0, d0 - d1), 1)]
    factors.extend(((1, 0, 0, j), -1) for j in range(-d1, d0 + 1))
    scalar = Fraction((-1) ** d1, math.factorial(d0) * math.factorial(d1))
    return FactoredRatFun.product(scalar, factors)


def reference_residue_report(d):
    """residue_vanishing_check(d) with every residue a Fraction, summed one
    Fraction addition per summand and pole, on localcurve._residue_term as
    it is bound when called."""
    terms = [localcurve._residue_term(d - d1, d1) for d1 in range(d + 1)]
    totals = dict.fromkeys(range(-d, d + 1), Fraction(0))
    for term in terms:
        js = [form[-1] for form in term.forms]
        for j in js:
            totals[-j] += term.scalar / math.prod(k - j for k in js if k != j)
    pole_rows = []
    ok = True
    for m, res in totals.items():
        printed = (localcurve._printed_residue_total(m, d) if m >= 0
                   else -localcurve._printed_residue_total(-m, d))
        row_ok = res == 0 and printed == 0 and res == printed
        ok = ok and row_ok
        pole_rows.append({"m": m, "residue": str(res), "printed_form": str(printed),
                          "ok": row_ok})
    phi_zero = localcurve.sum_factored(terms, 4).is_zero()
    return {"d": d, "n": 2 * d, "poles": pole_rows, "phi_is_zero": phi_zero,
            "ok": ok and phi_zero}


def test_residue_terms_written_as_factor_lists_match_the_product():
    for d in range(1, 26):
        for d1 in range(d + 1):
            term, expected = _residue_term(d - d1, d1), reference_residue_term(d - d1, d1)
            assert term.scalar == expected.scalar, (d, d1)
            assert list(term.forms.items()) == list(expected.forms.items()), (d, d1)


def test_int_residue_totals_match_the_fraction_sums():
    for d in range(1, 26):
        assert residue_vanishing_check(d) == reference_residue_report(d), d


@pytest.mark.parametrize("corrupt", [
    lambda term: term.times_scalar(2),
    lambda term: term.times_scalar(Fraction(3, 2)),
    lambda term: term.times_scalar(0),  # dropped: sum_factored skips a zero term
    lambda term: term.times_scalar(-1),
], ids=["doubled", "scaled_by_3_2", "dropped", "sign_flipped"])
def test_int_residue_totals_match_the_fraction_sums_on_a_corrupted_summand(
        monkeypatch, corrupt):
    for d in (1, 2, 3, 6, 11):
        for bad in (0, d // 2, d):
            def changed(d0, d1, bad=bad):
                term = _residue_term(d0, d1)
                return corrupt(term) if d1 == bad else term

            monkeypatch.setattr("stablepairs.localcurve._residue_term", changed)
            report = residue_vanishing_check(d)
            assert report == reference_residue_report(d), (d, bad)
            assert report["ok"] is False and report["phi_is_zero"] is False
            assert any(row["residue"] != "0" for row in report["poles"]), (d, bad)


@pytest.mark.parametrize("d", [0, -1, 1.0, 2.5, "3", None, True])
def test_residue_certificate_refuses_a_bad_degree(d):
    with pytest.raises(ValueError, match=re.escape(f"got {d!r}")):
        residue_vanishing_check(d)


def test_residue_vanishing_certificate():
    for d in (1, 2, 3):
        report = residue_vanishing_check(d)
        assert report["ok"], d
        assert report["phi_is_zero"]
        assert report["n"] == 2 * d
        assert len(report["poles"]) == 2 * d + 1
        for row in report["poles"]:
            assert row["residue"] == "0"
            assert row["printed_form"] == "0"


# -- homogeneity ------------------------------------------------------------------------


def test_invariants_are_homogeneous():
    for n, d in [(1, 1), (2, 2), (6, 3)]:
        value = js_invariant_closed_form(n, d).value
        if not value.is_zero():
            assert is_homogeneous_of_degree(value, -n), (n, d)
    for degs in [(1, -1, -2), (3, -2, -3)]:
        value = js_invariant_enumerated(1, 1, SplitGeometry(*degs)).value
        assert is_homogeneous_of_degree(value, -1), degs


def homogeneous_degree(f):
    """deg(num) - deg(den) when both are homogeneous, else None.  A quotient
    of homogeneous polynomials is homogeneous of that degree."""
    num_degrees = {sum(m) for m in f.num.coeffs}
    den_degrees = {sum(m) for m in f.den.coeffs}
    if len(num_degrees) != 1 or len(den_degrees) != 1:
        return None
    return num_degrees.pop() - den_degrees.pop()


def test_every_fixed_point_contribution_is_homogeneous():
    # most values in this range are zero; their summands carry the check
    for d in range(1, 5):
        for ratio in range(1, 6):
            n = ratio * d
            for method in (js_invariant_enumerated, js_invariant_closed_form):
                result = method(n, d, audit=True)
                assert len(result.contributions) == result.fixed_point_count
                for label, value in result.contributions:
                    assert not value.is_zero(), (n, d, label)
                    assert homogeneous_degree(value) == -n, (n, d, label)


def test_homogeneity_detects_failures():
    assert is_homogeneous_of_degree(RatFun(L[0] * L[3], L[1] ** 3), -1)
    assert not is_homogeneous_of_degree(RatFun(L[0] + Poly.one(4)), 1)
    assert not is_homogeneous_of_degree(RatFun(L[0] * L[3], L[1] ** 3), -2)
