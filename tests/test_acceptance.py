"""Acceptance gate: one test per shipping criterion.

Run ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Every assertion is exact (Fraction arithmetic end to end); the
elapsed-time assertions pin the documented performance budgets.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

from stablepairs.cli import main as cli_main
from stablepairs.equivariant import SplitGeometry, check_square_root, euler_factored
from stablepairs.localcurve import (
    GEOM_STANDARD,
    Composition,
    D1FixedPoint,
    _closed_form_term,
    _closed_pair_block,
    _closed_part_block,
    _contribution_d1,
    _contribution_general,
    _first_sum_block,
    _pair_block_factors,
    _part_block_factors,
    d1_fixed_points,
    enumerate_fixed_points,
    expected_conjecture_value,
    full_obstruction_general,
    half_obstruction_general,
    is_homogeneous_of_degree,
    js_invariant_closed_form,
    js_invariant_enumerated,
    orientation_sign,
    residue_vanishing_check,
)
from stablepairs.ratfun import (
    FactoredRatFun,
    Poly,
    RatFun,
    _normalized,
    _primitive_form,
    ratfun_str,
    sum_factored,
)
from stablepairs.series import (
    ClassLattice,
    GVTable,
    TParam,
    WallError,
    gv0_from_gw,
    gv1_extract,
    gw0_from_gv0,
    gw1_assemble,
    pt_coeff_from_gv,
    pt_series_from_gv,
    wall_factor_series,
    wall_jump_check,
)

L = [Poly.variable(i, 4) for i in range(4)]


def fiber_weight_product(degrees):
    """lam1^-chi(L1) * lam2^-chi(L2) * lam3^-chi(L3) with chi(L_i) = l_i + 1."""
    num = Poly.one(4)
    den = Poly.one(4)
    for i, l in enumerate(degrees, start=1):
        chi = l + 1
        if chi < 0:
            num = num * L[i] ** (-chi)
        elif chi > 0:
            den = den * L[i] ** chi
    return RatFun(num, den)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_1_degree_one_closed_form():
    start = time.perf_counter()
    for degrees in [(-1, -1, 0), (0, -1, -1), (1, -1, -2), (3, -2, -3)]:
        geom = SplitGeometry(*degrees)
        assert js_invariant_enumerated(1, 1, geom).value == fiber_weight_product(
            degrees
        ), degrees
        for n in range(2, 13):
            assert js_invariant_enumerated(n, 1, geom).value == RatFun.zero(), (
                degrees,
                n,
            )
    assert time.perf_counter() - start < 1.0


CRITERION_2_GRID = [(ratio * d, d) for d in range(1, 5) for ratio in range(1, 6)]


def test_criterion_2_closed_formula_matches_enumeration():
    start = time.perf_counter()
    for n, d in CRITERION_2_GRID + [(60, 4), (120, 2)]:
        closed = js_invariant_closed_form(n, d).value
        enumerated = js_invariant_enumerated(n, d).value
        assert closed == enumerated, (n, d)
    assert time.perf_counter() - start < 60.0


VANISHING_FAMILIES = {
    "d=1, n<=30": [(n, 1) for n in range(2, 31)],
    "d=2, n<=30": [(n, 2) for n in range(1, 31) if n != 2],
    "d=3, n<=30": [(n, 3) for n in range(1, 31) if n != 3],
    "d=4, n<=24": [(n, 4) for n in range(1, 25) if n != 4],
    "n=2d, d<=12": [(2 * d, d) for d in range(1, 13)],
    "n=3d, d<=8": [(3 * d, d) for d in range(1, 9)],
}


def test_criterion_3_conjecture_sweep():
    # diagonal values: P(d, d) = 1 / (d! * lam3^d)
    start = time.perf_counter()
    for d in range(1, 7):
        value = js_invariant_enumerated(d, d).value
        assert value == RatFun(
            Poly.constant(Fraction(1, math.factorial(d)), 4), L[3] ** d
        ), d
        assert value == expected_conjecture_value(d, d), d
    assert time.perf_counter() - start < 600.0

    # vanishing families, each within its own time budget
    for label, spots in VANISHING_FAMILIES.items():
        start = time.perf_counter()
        for n, d in spots:
            assert js_invariant_enumerated(n, d).value == RatFun.zero(), (label, n, d)
        assert time.perf_counter() - start < 600.0, label


P61 = 2**61 - 1


def form_at(form, point):
    value = sum(c * x for c, x in zip(form, point)) % P61
    assert value, f"the point lies on the form {form}"
    return value


def poly_at(poly, point):
    """poly(point) mod P61, in ints."""
    total = 0
    for mono, c in poly.coeffs.items():
        term = c.numerator * pow(c.denominator, -1, P61)
        for x, m in zip(point, mono):
            term = term * pow(x, m, P61) % P61
        total += term
    return total % P61


def sum_agrees_mod_p(terms, value, seed):
    """Whether sum(terms) and value agree at a seeded random point mod the
    prime 2**61 - 1: each factored term evaluated in ints, form by form, with
    no packing.  By Schwartz-Zippel a wrong value passes with probability at
    most its total degree over the prime."""
    rng = random.Random(seed)
    point = [rng.randrange(1, P61) for _ in range(4)]
    total = 0
    for term in terms:
        scalar = term.scalar
        t = scalar.numerator * pow(scalar.denominator, -1, P61)
        for form, e in term.forms.items():
            t = t * pow(form_at(form, point), e, P61) % P61
        total += t
    num, den = poly_at(value.num, point), poly_at(value.den, point)
    return total % P61 == num * pow(den, -1, P61) % P61


def contributions(n, d):
    """The factored fixed-point terms that js_invariant_enumerated sums."""
    if d == 1:
        return [_contribution_d1(p, GEOM_STANDARD) for p in d1_fixed_points(n)]
    return [_contribution_general(comp) for comp in enumerate_fixed_points(n, d)]


# the (n, d) of the benchmark's ``deep`` tiers (bench/cases.py)
DEEP_SPOTS = [(20, 4), (27, 9), (24, 6), (30, 10), (24, 4), (25, 5), (28, 7),
              (28, 4), (30, 6), (30, 5), (36, 9)]


def test_criterion_3_sums_agree_mod_p_at_full_scale():
    spots = [(d, d) for d in range(1, 7)] + DEEP_SPOTS + [(60, 4), (120, 2)]
    for family in VANISHING_FAMILIES.values():
        spots += family
    for seed, (n, d) in enumerate(spots):
        value = js_invariant_enumerated(n, d).value
        assert sum_agrees_mod_p(contributions(n, d), value, seed), (n, d)


def test_modular_check_catches_a_corrupted_term():
    terms = contributions(12, 3)
    value = js_invariant_enumerated(12, 3).value
    assert sum_agrees_mod_p(terms, value, 0)
    doubled = terms[:5] + [terms[5].times_scalar(2)] + terms[6:]
    form, e = next(iter(terms[5].forms.items()))
    shifted = FactoredRatFun(terms[5].scalar, {**terms[5].forms, form: e - 1})
    for corrupted in (doubled, terms[:5] + terms[6:], terms[:5] + [shifted] + terms[6:]):
        assert not sum_agrees_mod_p(corrupted, value, 0)
    assert not sum_agrees_mod_p(terms, expected_conjecture_value(3, 3), 0)


def test_criterion_4_residues_vanish_through_degree_20():
    start = time.perf_counter()
    for d in range(1, 21):
        report = residue_vanishing_check(d)
        assert report["n"] == 2 * d
        assert report["phi_is_zero"], d
        assert all(row["ok"] and row["residue"] == "0" for row in report["poles"]), d
        assert report["ok"], d
    assert time.perf_counter() - start < 60.0


def test_criterion_5_square_root_doubles_at_every_fixed_point():
    for d in range(1, 5):
        for ratio in range(1, 6):
            n = ratio * d
            for comp in enumerate_fixed_points(n, d):
                assert check_square_root(
                    full_obstruction_general(comp), half_obstruction_general(comp)
                ), (n, d, comp.parts)


def triple_loop_half_obstruction(comp):
    """half_obstruction_general's terms with the first sum built by its
    triple loop at every call: the reference for the cached blocks."""
    k = comp.k
    nonzero = [(i, part) for i, part in enumerate(comp.parts) if part]
    terms = {}
    for i, part in nonzero:
        for j in range(-(k - i), i + 1):
            for j2 in range(part):
                w = (j, 0, 0, -j2)
                terms[w] = terms.get(w, 0) - 1
    for a, (i, di) in enumerate(nonzero):
        for j, dj in nonzero[a + 1:]:
            for w, m in (((j - i, 0, 0, 0), 1), ((j - i, 0, 0, di), -1),
                         ((j - i, 0, 0, -dj), -1), ((j - i, 0, 0, di - dj), 1)):
                terms[w] = terms.get(w, 0) + m
    for _, part in nonzero:
        for w, m in (((0, 0, 0, 0), 1), ((0, 0, 0, part), -1)):
            terms[w] = terms.get(w, 0) + m
    return {w: m for w, m in terms.items() if m}


def test_half_obstruction_blocks_match_the_triple_loop():
    spots = [(ratio * d, d) for d in range(1, 7) for ratio in range(1, 7)] + DEEP_SPOTS
    for family in VANISHING_FAMILIES.values():
        spots += [(n, d) for n, d in family if d > 1]
    for n, d in spots:
        for comp in enumerate_fixed_points(n, d):
            half = half_obstruction_general(comp)
            assert list(half.terms.items()) == list(
                triple_loop_half_obstruction(comp).items()), (n, d, comp.parts)
            # a caller that mutates the result cannot reach a later one
            half.terms.clear()
            half.terms[(5, 0, 0, 5)] = 7
        for comp in enumerate_fixed_points(n, d):
            assert half_obstruction_general(comp).terms == triple_loop_half_obstruction(comp)


def test_packing_bounds_of_the_sweep_match_the_lifted_reference(packing_bounds_seen):
    """bits and the strides of every localization sum of the acceptance
    sweep and the deep tiers are those of the lifted reference."""
    spots = [(d, d) for d in range(1, 7)] + DEEP_SPOTS
    for family in VANISHING_FAMILIES.values():
        spots += family
    for n, d in spots:
        js_invariant_enumerated(n, d)
    # one packed sum at least for every spot with fixed points
    assert len(packing_bounds_seen) >= sum(n % d == 0 for n, d in spots)


def reference_contribution(comp):
    """The enumerated term as the signed Euler class of the whole half
    obstruction: the reference for _contribution_general's cached blocks."""
    return euler_factored(half_obstruction_general(comp)).times_scalar(orientation_sign(comp))


def reference_closed_form_term(comp):
    """The closed formula's summand with every factor as written: the
    superfactorial prefactor, l0^-(k(k+1)/2), all k(k+1)/2 pair factors and
    every (a, b) row factor of every part.  The reference for
    _closed_form_term, which merges cached part and pair blocks."""
    parts = comp.parts
    k = comp.k
    scalar = 1
    for i in range(1, k + 1):
        scalar *= math.factorial(i)
    for part in parts:
        scalar *= math.factorial(part)
    factors = [((1, 0, 0, 0), -(k * (k + 1)) // 2), ((0, 0, 0, 1), -comp.d)]
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            factors.append(((j - i, 0, 0, parts[i] - parts[j]), 1))
    for i, part in enumerate(parts):
        for a in range(1, part + 1):
            factors.extend(((b, 0, 0, a), -1) for b in range(1, k - i + 1))
            factors.extend(((-b, 0, 0, a), -1) for b in range(1, i + 1))
    return FactoredRatFun.product(Fraction(1, scalar), factors)


def kernel_compositions():
    """(n, d, compositions) of the acceptance sweep, the deep tiers, every
    fixed point of (60,4), and 200 seeded fixed points each of (120,2) and
    (180,2)."""
    spots = CRITERION_2_GRID + DEEP_SPOTS + [(60, 4)]
    for family in VANISHING_FAMILIES.values():
        spots += family
    for n, d in spots:
        yield n, d, enumerate_fixed_points(n, d)
    rng = random.Random(16)
    for n, d in [(120, 2), (180, 2)]:
        yield n, d, rng.sample(enumerate_fixed_points(n, d), 200)


def same_term(term, reference):
    return term.scalar == reference.scalar and term.forms == reference.forms


KERNELS = [(_contribution_general, reference_contribution),
           (_closed_form_term, reference_closed_form_term)]


def test_both_kernels_match_their_references():
    for kernel, reference in KERNELS:
        for n, d, comps in kernel_compositions():
            for comp in comps:
                assert same_term(kernel(comp), reference(comp)), (kernel, n, d, comp.parts)


def test_kernel_terms_are_fresh_and_independent_of_the_caches():
    caches = (_part_block_factors, _pair_block_factors, _closed_part_block, _closed_pair_block,
              _first_sum_block, _primitive_form)
    comps = [c for n, d in [(12, 3), (30, 5), (24, 6), (42, 2)]
             for c in enumerate_fixed_points(n, d)]
    for kernel, reference in KERNELS:
        for cache in caches:
            cache.cache_clear()
        cold = [kernel(comp) for comp in comps]
        warm = [kernel(comp) for comp in comps]
        for comp, a, b in zip(comps, cold, warm):
            assert same_term(a, b), (kernel, comp.parts)
            # a caller that mutates a term cannot reach a later one
            a.forms.clear()
            a.forms[(5, 0, 0, 5)] = 7
        for comp, b in zip(comps, warm):
            assert same_term(kernel(comp), reference(comp)), (kernel, comp.parts)
            assert same_term(b, reference(comp)), (kernel, comp.parts)


def mirror_image(term):
    """term under l0 -> -l0: every form with its l0 entry negated, normalized
    again by FactoredRatFun.product."""
    return FactoredRatFun.product(
        term.scalar, [((-form[0], *form[1:]), e) for form, e in term.forms.items()])


TEST_GEOMETRIES = [(-1, -1, 0), (0, -1, -1), (1, -1, -2), (3, -2, -3)]


def test_mirror_point_terms_are_the_l0_images():
    """The swap of Z0 and Zinf reverses a composition and swaps (a, b); the
    term of the mirror point is the term under l0 -> -l0, scalar and form
    dict alike, for both kernels over the acceptance grid and in degree one
    on the four test geometries.  mirror_side is antisymmetric and zero
    exactly on self-mirror points."""
    for kernel, _ in KERNELS:
        for n, d, comps in kernel_compositions():
            for comp in comps:
                mirror = Composition(comp.parts[::-1])
                assert mirror.mirror_side() == -comp.mirror_side(), comp.parts
                assert (comp.mirror_side() == 0) == (mirror == comp), comp.parts
                assert same_term(kernel(mirror), mirror_image(kernel(comp))), (
                    kernel, n, d, comp.parts)
    for degrees in TEST_GEOMETRIES:
        geom = SplitGeometry(*degrees)
        for n in range(1, 13):
            for point in d1_fixed_points(n):
                mirror = D1FixedPoint(point.b, point.a)
                assert mirror.mirror_side() == -point.mirror_side(), point
                assert (point.mirror_side() == 0) == (mirror == point), point
                assert same_term(_contribution_d1(mirror, geom),
                                 mirror_image(_contribution_d1(point, geom))), (degrees, point)


def test_invariants_equal_the_unfolded_sum_of_every_term():
    """Both methods, which build one term per mirror pair and fold in the
    images, equal sum_factored of every fixed point's term with no fold."""
    spots = CRITERION_2_GRID + DEEP_SPOTS
    for family in VANISHING_FAMILIES.values():
        spots += family
    for n, d in spots:
        assert js_invariant_enumerated(n, d).value == sum_factored(contributions(n, d), 4), (n, d)
        if n % d == 0:
            terms = [_closed_form_term(comp) for comp in enumerate_fixed_points(n, d)]
            assert js_invariant_closed_form(n, d).value == sum_factored(terms, 4), (n, d)
    for degrees in TEST_GEOMETRIES:
        geom = SplitGeometry(*degrees)
        for n in range(1, 13):
            terms = [_contribution_d1(p, geom) for p in d1_fixed_points(n)]
            assert js_invariant_enumerated(n, 1, geom).value == sum_factored(terms, 4), (
                degrees, n)


def test_sum_factored_results_are_already_canonical(monkeypatch):
    """_normalized leaves every denominator sum_factored returns as it is,
    so the result needs no re-normalization: the invariants and the --audit
    terms of the acceptance sweep and the deep tiers, both methods."""
    seen = []

    def recorded(terms, arity, mirrored=False):
        result = sum_factored(terms, arity, mirrored)
        seen.append(result)
        return result

    monkeypatch.setattr("stablepairs.ratfun.sum_factored", recorded)
    monkeypatch.setattr("stablepairs.localcurve.sum_factored", recorded)
    spots = CRITERION_2_GRID + DEEP_SPOTS
    for family in VANISHING_FAMILIES.values():
        spots += family
    for n, d in spots:
        js_invariant_enumerated(n, d, audit=(n, d) in CRITERION_2_GRID + DEEP_SPOTS)
        if n % d == 0:
            js_invariant_closed_form(n, d)
    assert len(seen) > len(spots)
    for result in seen:
        num, den = _normalized(result.num, result.den)
        if result.is_zero():
            assert (num, den) == (result.num, result.den)
        else:
            assert num is result.num and den is result.den, ratfun_str(result)


def test_criterion_6_invariants_are_homogeneous_of_degree_minus_n():
    # degree-one values on all four geometries
    for degrees in TEST_GEOMETRIES:
        geom = SplitGeometry(*degrees)
        for n in range(1, 13):
            value = js_invariant_enumerated(n, 1, geom).value
            assert is_homogeneous_of_degree(value, -n), (degrees, n)
    # closed-formula range and the diagonal
    for d in range(1, 5):
        for ratio in range(1, 6):
            n = ratio * d
            assert is_homogeneous_of_degree(
                js_invariant_enumerated(n, d).value, -n
            ), (n, d)
    for d in range(1, 7):
        assert is_homogeneous_of_degree(js_invariant_enumerated(d, d).value, -d), d


def local_p2_table():
    lattice = ClassLattice(1, (1,), 6)
    return GVTable(
        lattice,
        n0={(1,): 1, (4,): 2},
        p0={(0,): 1, (3,): 1},
        nmin={(1,): 1, (2,): 1, (3,): 0},
    )


def random_gv_table(rng):
    rank = rng.choice([1, 2])
    omega = tuple(rng.choice([1, 2]) for _ in range(rank))
    lattice = ClassLattice(rank, omega, rng.randint(2, 6))
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


def test_criterion_7_wall_crossing_series():
    start = time.perf_counter()

    # the local plane curve-class table: chamber values and the t0 = 1 wall
    gv = local_p2_table()
    assert pt_coeff_from_gv(TParam.exact(2), 1, (4,), gv) == 3
    assert pt_coeff_from_gv(TParam.exact(Fraction(1, 2)), 1, (4,), gv) == 2
    report = wall_jump_check(1, gv, 3)
    assert report["ok"] and report["series_identity_ok"]
    row = [r for r in report["coefficients"] if r["n"] == 1 and r["beta"] == [4]][0]
    assert row["jump"] == "1" and row["simple_wall"] and row["mspace"] == "1"

    # random tables: dual construction, telescoping, wall identities
    rng = random.Random(20260818)
    for i in range(50):
        gv = random_gv_table(rng)
        lattice = gv.lattice
        n_max = rng.randint(1, 4)
        for t in [TParam.infinity(), TParam.zero_plus(), TParam.exact(Fraction(2, 3))]:
            try:
                series = pt_series_from_gv(t, gv, n_max)
            except WallError:
                t = TParam.plus(Fraction(2, 3))
                series = pt_series_from_gv(t, gv, n_max)
            memo = {}
            for beta in lattice.classes():
                for n in range(n_max + 1):
                    assert math.factorial(n) * series.coefficient(
                        n, beta
                    ) == pt_coeff_from_gv(t, n, beta, gv, memo), (i, t, n, beta)
        telescoped = pt_series_from_gv(TParam.zero_plus(), gv, n_max)
        degrees = sorted({lattice.deg(beta) for beta in gv.n0}, reverse=True)
        for deg in degrees:
            telescoped = telescoped * wall_factor_series(Fraction(1, deg), gv, n_max)
        assert telescoped == pt_series_from_gv(TParam.infinity(), gv, n_max), i
        for deg in degrees:
            report = wall_jump_check(Fraction(1, deg), gv, n_max)
            assert report["ok"], (i, deg)

    assert time.perf_counter() - start < 120.0


def test_criterion_8_gv_inversion_round_trips():
    start = time.perf_counter()
    rng = random.Random(20260819)

    def random_lattice():
        rank = rng.choice([1, 2])
        omega = tuple(rng.choice([1, 2]) for _ in range(rank))
        return ClassLattice(rank, omega, rng.randint(1, 6))

    for _ in range(100):
        lattice = random_lattice()
        gw0 = {}
        for beta in lattice.positive_classes():
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if value:
                gw0[beta] = value
        assert gw0_from_gv0(gv0_from_gw(gw0, lattice), lattice) == gw0

    for _ in range(100):
        lattice = random_lattice()
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

    assert time.perf_counter() - start < 10.0


def test_criterion_9_outputs_identical_across_worker_counts():
    # library level: values and per-point audit identical for 1, 4, 8 workers
    for n, d in [(3, 3), (4, 2), (8, 2)]:
        results = [
            js_invariant_enumerated(n, d, jobs=jobs, audit=True) for jobs in (1, 4, 8)
        ]
        assert results[0].value == results[1].value == results[2].value
        assert (
            results[0].contributions
            == results[1].contributions
            == results[2].contributions
        )

    # command level: byte-identical reports
    js_runs = [
        run_cli(["js", "--n", "4", "--d", "2", "--format", "json", "--audit",
                 "--jobs", str(jobs)])
        for jobs in (1, 4, 8)
    ]
    assert js_runs[0] == js_runs[1] == js_runs[2]
    assert js_runs[0][0] == 0

    verify_runs = [
        run_cli(["verify", "--d-max", "3", "--ratio-max", "4", "--format", "json",
                 "--jobs", str(jobs)])
        for jobs in (1, 4, 8)
    ]
    assert verify_runs[0] == verify_runs[1] == verify_runs[2]
    assert verify_runs[0][0] == 0
    assert json.loads(verify_runs[0][1])["ok"] is True
