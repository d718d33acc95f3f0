"""Stable-pair invariants of local curves by torus fixed-point localization.

The target geometry is the total space X of O(l1) + O(l2) + O(l3) over a
rigid line, with l1 + l2 + l3 = -2.  The invariant P(n, d) attached to
holomorphic Euler characteristic n and curve degree d is a sum over the
torus-fixed points of the pair moduli space: each fixed point carries a
square root of its obstruction class, and contributes the inverse Euler
class of that square root, with an orientation sign.

Two independent evaluation paths are implemented:

* :func:`js_invariant_enumerated` walks the fixed points (degree one on any
  split geometry; higher degree on the standard (-1,-1,0) geometry, where
  the fixed points are the weak compositions of d into n/d parts) and sums
  Euler-class contributions assembled from K-theory.
* :func:`js_invariant_closed_form` evaluates a closed product formula per
  composition, normalized so that P(d, d) = 1/(d! * l3^d) is positive.

Their agreement, the vanishing P(n, d) = 0 for n != d, and the residue
identity behind the n = 2d case are the main verification targets.
"""
from __future__ import annotations

import math
import os
import time
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations

from .equivariant import (
    EqLineBundleP1,
    KClass,
    SplitGeometry,
    chi_adjunction,
    chi_p1_line,
    euler_factored,
)
from ._record import FrozenRecord, Record
from .ratfun import FactoredRatFun, PoleOrderError, Poly, RatFun, ratfun_str, sum_factored

__all__ = [
    "GEOM_STANDARD",
    "Composition",
    "D1FixedPoint",
    "InvariantResult",
    "enumerate_fixed_points",
    "d1_fixed_points",
    "fixed_point_sheaf",
    "chi_sheaf",
    "half_obstruction_d1",
    "half_obstruction_general",
    "full_obstruction_d1",
    "full_obstruction_general",
    "orientation_sign",
    "js_invariant_enumerated",
    "js_invariant_closed_form",
    "expected_conjecture_value",
    "conjectured_row",
    "verify_conjecture",
    "residue_vanishing_check",
    "is_homogeneous_of_degree",
]

GEOM_STANDARD = SplitGeometry(-1, -1, 0)


class Composition(FrozenRecord):
    """A weak composition (d_0, ..., d_k) of the curve degree d."""

    _fields = ("parts",)

    def __init__(self, parts: tuple):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts) or not parts:
            raise ValueError(f"composition parts {parts} must be nonnegative and nonempty")
        self.__dict__["parts"] = parts

    @classmethod
    def _trusted(cls, parts):
        """Internal: wrap a nonempty tuple of nonnegative ints as is, with no
        re-validation (enumerate_fixed_points makes its own parts)."""
        comp = object.__new__(cls)
        object.__setattr__(comp, "parts", parts)
        return comp

    @property
    def d(self):
        return sum(self.parts)

    @property
    def k(self):
        return len(self.parts) - 1

    @property
    def n(self):
        return self.d * len(self.parts)

    def nonzero_parts(self):
        return sum(1 for p in self.parts if p)

    def mirror_side(self):
        """1, 0 or -1 as the parts compare with the reversed parts, the
        composition's mirror under the swap of Z0 and Zinf: one of each
        mirror pair has side 1, and a palindrome is its own mirror."""
        mirror = self.parts[::-1]
        return (self.parts > mirror) - (self.parts < mirror)

    def label(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class D1FixedPoint(FrozenRecord):
    """Degree-one fixed point: sections vanishing to orders a at Z0, b at Zinf."""

    _fields = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 0 or b < 0:
            raise ValueError("fixed-point orders must be nonnegative")
        self.__dict__.update(a=a, b=b)

    @property
    def n(self):
        return self.a + self.b + 1

    def mirror_side(self):
        """1, 0 or -1 as a compares with b: the mirror of (a, b) under the
        swap of Z0 and Zinf is (b, a)."""
        return (self.a > self.b) - (self.a < self.b)

    def label(self):
        return f"(a={self.a},b={self.b})"


def enumerate_fixed_points(n, d):
    """Fixed points of the degree-d pair space at Euler characteristic n.

    These exist only when d divides n and n >= d; they are the weak
    compositions of d into n/d parts, listed with the first part descending.
    Raises ValueError when d <= 0.
    """
    if d <= 0:
        raise ValueError(f"curve degree must be positive, got {d}")
    if n < d or n % d != 0:
        return []
    slots = n // d
    # stars and bars: the parts are the gaps between slots - 1 bars among
    # d + slots - 1 positions, and the bar sets in reverse lex order give the
    # compositions in reverse lex order
    width = d + slots - 1
    trusted = Composition._trusted
    return [trusted(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (width,))))
            for bars in reversed(list(combinations(range(width), slots - 1)))]


def d1_fixed_points(n):
    """Degree-one fixed points with section space of dimension n."""
    if n < 1:
        return []
    return [D1FixedPoint(a, n - 1 - a) for a in range(n)]


# -- fixed-point sheaves and obstruction classes ----------------------------------


def fixed_point_sheaf(comp):
    """The fixed sheaf for a composition: one O(i*Z0 + (k-i)*Zinf) summand per
    unit of the i-th part, carrying fiber characters t3^0, t3^-1, ..."""
    k = comp.k
    bundles = []
    for i, part in enumerate(comp.parts):
        for j in range(part):
            bundles.append(EqLineBundleP1(i, k - i, (0, 0, 0, -j)))
    return bundles


def chi_sheaf(bundles):
    """Character of the section cohomology of a sum of line bundles."""
    total = KClass()
    for bundle in bundles:
        total = total + chi_p1_line(bundle.a, bundle.b).twist(bundle.twist)
    return total


def half_obstruction_d1(point, geom):
    """Square root of the degree-one fixed-point obstruction class.

    Equals -sum_i chi(O(l_i)) * t_i  -  sum over t0^j for j in [-b, a], j != 0,
    where chi(O(l_i)) = l_i + 1 is an integer multiplicity carried entirely
    on the normal character t_i.
    """
    return _summed(chain(
        ((tuple(int(j == i) for j in range(4)), -l - 1)
         for i, l in enumerate(geom.degrees, start=1)),
        (((j, 0, 0, 0), -1) for j in range(-point.b, point.a + 1) if j),
    ))


@lru_cache(maxsize=1 << 10)
def _first_sum_block(k, i, part):
    """The weights (j, 0, 0, -j2), j in [-(k - i), i], j2 in [0, part), of
    one part's block of the first sum of half_obstruction_general: the same
    at every fixed point that has this part in slot i, so built once."""
    return tuple((j, 0, 0, -j2) for j in range(-(k - i), i + 1) for j2 in range(part))


def _pair_characters(gap, di, dj):
    """(weight, multiplicity) of the second-sum term of half_obstruction_general
    for nonzero parts d_i, d_j at slots gap apart:
    t0^gap (1 - t3^d_i - t3^-d_j + t3^(d_i - d_j)).  The first and last
    characters coincide when d_i = d_j."""
    return (((gap, 0, 0, 0), 1), ((gap, 0, 0, di), -1),
            ((gap, 0, 0, -dj), -1), ((gap, 0, 0, di - dj), 1))


def _last_sum_characters(part):
    """(weight, multiplicity) of one nonzero part's last-sum term 1 - t3^part."""
    return (((0, 0, 0, 0), 1), ((0, 0, 0, part), -1))


def _summed(characters):
    """The KClass of (weight, multiplicity) pairs, summed in order, zero
    sums dropped."""
    terms = {}
    for w, m in characters:
        terms[w] = terms.get(w, 0) + m
    return KClass._trusted({w: m for w, m in terms.items() if m})


def half_obstruction_general(comp):
    """Square root of the obstruction class at a composition fixed point
    (standard (-1,-1,0) geometry).

    H(c) = - sum_i (sum_{j=-(k-i)}^{i} t0^j) (sum_{j=0}^{d_i-1} t3^-j)
           + sum_{i<j} t0^(j-i) (1 - t3^{d_i} - t3^{-d_j} + t3^{d_i - d_j})
           + sum_i (1 - t3^{d_i}).

    The trivial character cancels between the first and last sums, so the
    Euler class of the result is always defined.  A pair with d_i = 0 or
    d_j = 0 adds nothing (its four characters cancel), so only nonzero parts
    are visited.
    """
    k = comp.k
    nonzero = [(i, part) for i, part in enumerate(comp.parts) if part]
    return _summed(chain(
        ((w, -1) for i, part in nonzero for w in _first_sum_block(k, i, part)),
        (c for a, (i, di) in enumerate(nonzero) for j, dj in nonzero[a + 1:]
         for c in _pair_characters(j - i, di, dj)),
        (c for _, part in nonzero for c in _last_sum_characters(part)),
    ))


def _block_items(term):
    """A cached block: (num, den, ((form, exponent), ...)) of a FactoredRatFun."""
    return term.scalar.numerator, term.scalar.denominator, tuple(term.forms.items())


@lru_cache(maxsize=1 << 12)
def _part_block_factors(k, i, part):
    """One nonzero part's block: minus its first-sum block plus its last-sum
    term, between which the trivial character cancels."""
    return _block_items(euler_factored(_summed(chain(
        ((w, -1) for w in _first_sum_block(k, i, part)), _last_sum_characters(part)))))


@lru_cache(maxsize=1 << 12)
def _pair_block_factors(gap, di, dj):
    return _block_items(euler_factored(_summed(_pair_characters(gap, di, dj))))


def _full_obstruction(bundles, geom):
    """chi(I, I)_0 for F the sum of ``bundles``: chi(F, F) on X minus chi(F)
    and its dual."""
    chi_f = chi_sheaf(bundles)
    return chi_adjunction(bundles, geom) - chi_f - chi_f.conj()


def full_obstruction_general(comp):
    """Full obstruction class chi(I, I)_0 at a composition fixed point
    (standard (-1,-1,0) geometry)."""
    return _full_obstruction(fixed_point_sheaf(comp), GEOM_STANDARD)


def full_obstruction_d1(point, geom):
    """Full obstruction class at a degree-one fixed point."""
    return _full_obstruction([EqLineBundleP1(point.a, point.b)], geom)


def orientation_sign(comp):
    """Orientation sign (-1)^(n + number of nonzero parts)."""
    return -1 if (comp.n + comp.nonzero_parts()) % 2 else 1


def _merged_term(parts, num, part_block, pair_block):
    """num times a composition's cached blocks, merged into a fresh FactoredRatFun:
    part_block(k, i, d_i) per nonzero part, pair_block(j - i, d_i, d_j) per pair i < j."""
    k = len(parts) - 1
    nonzero = [(i, part) for i, part in enumerate(parts) if part]
    blocks = [part_block(k, i, part) for i, part in nonzero]
    blocks += [pair_block(j - i, di, dj)
               for a, (i, di) in enumerate(nonzero) for j, dj in nonzero[a + 1:]]
    den, forms = 1, {}
    get = forms.get
    for block_num, block_den, items in blocks:
        num *= block_num
        den *= block_den
        for form, e in items:
            e += get(form, 0)
            if e:
                forms[form] = e
            else:
                del forms[form]
    return FactoredRatFun._trusted(Fraction(num, den), forms)


def _contribution_general(comp):
    """Signed Euler class of the obstruction square root H(c).

    The square root has virtual-negative multiplicities, so its Euler class
    is already the required inverse product of weight forms.  It is the
    orientation sign times the merge of the Euler factors of trivial-free
    blocks: per nonzero part, its first-sum characters and last-sum term
    1 - t3^d_i; per pair of nonzero parts, its second-sum term.  Each block
    is filled once through euler_factored (TrivialWeightError if trivial).
    """
    return _merged_term(comp.parts, orientation_sign(comp),
                        _part_block_factors, _pair_block_factors)


def _contribution_d1(point, geom):
    return euler_factored(half_obstruction_d1(point, geom))


# -- invariants ---------------------------------------------------------------------


class InvariantResult(Record):
    """One computed invariant, with enough context to report it."""

    _fields = ("n", "d", "geometry", "value", "fixed_point_count", "elapsed_ms", "contributions")

    def __init__(self, n: int, d: int, geometry: tuple, value: RatFun, fixed_point_count: int,
                 elapsed_ms: int = 0, contributions: list = None):
        self.n = n
        self.d = d
        self.geometry = geometry
        self.value = value
        self.fixed_point_count = fixed_point_count
        self.elapsed_ms = elapsed_ms
        self.contributions = contributions  # optional [(label, RatFun)] audit trail

    def conjecture_status(self):
        if tuple(self.geometry) != GEOM_STANDARD.degrees:
            return "n/a"
        expected = expected_conjecture_value(self.n, self.d)
        return "match" if self.value == expected else "counterexample"

    def to_report(self, timings=False):
        report = {
            "n": self.n,
            "d": self.d,
            "geometry": list(self.geometry),
            "value": ratfun_str(self.value),
            "fixed_point_count": self.fixed_point_count,
            "elapsed_ms": self.elapsed_ms if timings else 0,
            "conjecture_status": self.conjecture_status(),
        }
        return report


def _localize(n, d, geom, points, term, audit, start):
    """The invariant as the reduced sum of term(point) over the fixed points.

    The involution of P^1 that swaps Z0 and Zinf inverts t0 and maps the
    fixed points to themselves, so term(mirror of p) is term(p) under
    l0 -> -l0.  One term is built per mirror pair, at the point of side 1
    (mirror_side), and a self-mirror point's term enters at half weight;
    sum_factored(mirrored=True) adds each term's image.  --audit builds and
    lists every point's term.
    """
    contributions = None
    if audit:
        contributions = [(p.label(), term(p).to_ratfun(4)) for p in points]
    terms = []
    for p in points:
        side = p.mirror_side()
        if side >= 0:
            t = term(p)
            terms.append(t if side else t.times_scalar(Fraction(1, 2)))
    return InvariantResult(
        n, d, geom.degrees, sum_factored(terms, 4, mirrored=True), len(points),
        _ms_since(start), contributions,
    )


def js_invariant_enumerated(n, d, geom=GEOM_STANDARD, jobs=1, audit=False):
    """Invariant P(n, d) as the sum of fixed-point contributions.

    Degree one is available on any split geometry; higher degree requires the
    standard (-1,-1,0) geometry, whose fixed points are classified by weak
    compositions.  Outside the support (d not dividing n, or n < d) the
    enumeration is empty and the invariant is zero; P(0, 0) = 1 by convention.
    ``jobs`` is accepted and not used: the sum runs in this process.
    """
    start = time.monotonic()
    if d < 0:
        raise ValueError(f"curve degree must be nonnegative, got {d}")
    if d == 0:
        value = RatFun.one() if n == 0 else RatFun.zero()
        return InvariantResult(n, d, geom.degrees, value, 0, _ms_since(start))
    if d >= 2 and geom.degrees != GEOM_STANDARD.degrees:
        raise ValueError(
            "degree >= 2 fixed points are classified only on the (-1,-1,0) geometry"
        )
    if d == 1:
        points, term = d1_fixed_points(n), partial(_contribution_d1, geom=geom)
    else:
        points, term = enumerate_fixed_points(n, d), _contribution_general
    return _localize(n, d, geom, points, term, audit, start)


@lru_cache(maxsize=1 << 12)
def _closed_part_block(k, i, part):
    """l3^-d_i / (d_i! prod_{j != i} (j - i) l0) / prod_{a < d_i, j != i} ((j - i) l0 + a l3)."""
    scalar = math.factorial(part) * math.prod(j - i for j in range(k + 1) if j != i)
    factors = [((0, 0, 0, 1), -part), ((1, 0, 0, 0), -k)]
    factors += [((j - i, 0, 0, a), -1) for a in range(1, part) for j in range(k + 1) if j != i]
    return _block_items(FactoredRatFun.product(Fraction(1, scalar), factors))


@lru_cache(maxsize=1 << 12)
def _closed_pair_block(gap, di, dj):
    """-g l0 (g l0 + (d_i - d_j) l3) / ((g l0 + d_i l3) (-g l0 + d_j l3)), g = gap."""
    factors = (((1, 0, 0, 0), 1), ((gap, 0, 0, di - dj), 1),
               ((gap, 0, 0, di), -1), ((-gap, 0, 0, dj), -1))
    return _block_items(FactoredRatFun.product(-gap, factors))


def _closed_form_term(comp):
    """One composition's summand of the closed product formula, merged from
    blocks derived from the formula alone.

    Write part d_i's row factors b l0 + a l3 (b <= k - i) and -b l0 + a l3
    (b <= i) as (j - i) l0 + a l3 over the slots j != i.  The prefactor and
    l0^-(k(k+1)/2) are prod_{i<j} 1 / ((j - i) l0) over all pairs of slots.
    A pair of zero parts then contributes 1, and a nonzero d_i at slot i with
    a zero at j leaves 1 / ((j - i) l0), its factor cancelling row d_i at j.
    So a part's block assumes every other slot zero; a pair of nonzero parts
    adds the pair factor, the rows a = d_i at j and a = d_j at i, and
    -(j - i) l0 for the second 1 / ((i - j) l0) its part blocks took.
    """
    return _merged_term(comp.parts, 1, _closed_part_block, _closed_pair_block)


def js_invariant_closed_form(n, d, audit=False):
    """Invariant P(n, d) on the standard geometry by the closed formula.

    P(n, d) = 1/(1! ... k!) * 1/(l0^(k(k+1)/2) * l3^d) * sum over compositions
    (d_0 .. d_k) of d of
        1/(d_0! ... d_k!) * prod_{i<j} ((j-i) l0 + (d_i - d_j) l3)
        * prod_i [ prod_{a<=d_i, b<=k-i} (a l3 + b l0)^-1
                 * prod_{a<=d_i, b<=i}   (a l3 - b l0)^-1 ],
    with k = n/d - 1.  Requires d >= 1 and d | n.
    """
    start = time.monotonic()
    if d < 1:
        raise ValueError(f"curve degree must be positive, got {d}")
    if n < d or n % d != 0:
        raise ValueError(f"closed formula needs d | n and n >= d, got n={n}, d={d}")
    comps = enumerate_fixed_points(n, d)
    return _localize(n, d, GEOM_STANDARD, comps, _closed_form_term, audit, start)


def expected_conjecture_value(n, d):
    """Conjectured invariant on the standard geometry: 1/(d! l3^d) when
    n = d, else zero."""
    if n == d and d >= 0:
        num = Poly.constant(Fraction(1, math.factorial(d)), 4)
        return RatFun._trusted(num, Poly._trusted(4, {(0, 0, 0, d): Fraction(1)}))
    return RatFun.zero()


def conjectured_row(n, d):
    """The row verify_conjecture writes for (n, d), d | n, at the conjectured value."""
    return InvariantResult(n, d, GEOM_STANDARD.degrees, expected_conjecture_value(n, d),
                           math.comb(n // d + d - 1, d)).to_report()


def _ms_since(start):
    return int((time.monotonic() - start) * 1000)


def _worker_count(jobs, items):
    """Pool size: no more workers than requested, than CPUs, or than items."""
    return max(1, min(jobs, os.cpu_count() or 1, items))


# verify starts its row pool only for rows of at least this many fixed points
# in all.  Jobs 1 -> 2 with the gate off, each run in a fresh process on a
# 2-CPU machine (Python 3.11, medians of 9 alternated runs): verify(3,6), 203
# points, 0.004 -> 0.030 s; verify(6,6), 1,709 points, 0.026 -> 0.046 s;
# verify(4,12), 6,109 points, 0.091 -> 0.100 s; verify(6,8), 6,426 points,
# 0.099 -> 0.099 s; verify(7,7), 6,427 points, 0.101 -> 0.094 s;
# verify(5,10), 7,952 points, 0.120 -> 0.097 s.
_POOL_MIN_FIXED_POINTS = 6400


def _ordered_map(fn, items, jobs):
    """Yield fn(item) for the items in order, computed on one pool of
    _worker_count(jobs, len(items)) processes when that is more than one."""
    workers = _worker_count(jobs, len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    from multiprocessing import Pool  # here, not at the top: it slows every import
    with Pool(processes=workers) as pool:
        # the chunk size Pool.map would choose
        yield from pool.imap(fn, items, -(-len(items) // (4 * workers)))


def _verify_row(key):
    return js_invariant_closed_form(*key).to_report()


def _sweep_grid(d_max, ratio_max):
    """The (n, d) of a sweep in row order: n = d, 2d, ..., ratio_max*d for d <= d_max."""
    return [(ratio * d, d) for d in range(1, d_max + 1) for ratio in range(1, ratio_max + 1)]


def verify_conjecture(d_max, ratio_max, jobs=1, rows_done=None, on_row=None):
    """Sweep P(n, d) for d <= d_max, n = d, 2d, ..., ratio_max*d; bounds below 1 raise ValueError.

    Every value is computed by the closed formula with full simplification
    and compared against the conjectured 1/(d! l3^d) (n = d) or zero.  The
    rows still to compute are spread over the package's one process pool, of
    up to ``jobs`` workers, when their fixed points reach
    _POOL_MIN_FIXED_POINTS, else computed in process.
    ``rows_done`` maps (n, d) to previously computed row dicts to skip;
    ``on_row`` is called with each freshly computed row dict, in order.
    """
    for name, bound in (("d_max", d_max), ("ratio_max", ratio_max)):
        if bound < 1:
            raise ValueError(f"verify sweep needs {name} >= 1, got {bound}")
    grid = _sweep_grid(d_max, ratio_max)
    done = dict(rows_done or {})
    pending = [key for key in grid if key not in done]
    fixed_points = sum(math.comb(n // d + d - 1, d) for n, d in pending)
    if fixed_points < _POOL_MIN_FIXED_POINTS:
        jobs = 1
    for row in _ordered_map(_verify_row, pending, jobs):
        done[row["n"], row["d"]] = row
        if on_row is not None:
            on_row(row)
    rows = [done[key] for key in grid]
    counterexamples = [row for row in rows if row.get("conjecture_status") == "counterexample"]
    return {
        "d_max": d_max,
        "ratio_max": ratio_max,
        "rows": rows,
        "counterexamples": counterexamples,
        "ok": not counterexamples,
    }


# -- residue identity for n = 2d -----------------------------------------------------


def _residue_term(d0, d1):
    """Summand of the n = 2d invariant, l3-homogenized, as a factored term:

    (-1)^d1 / (d0! d1!) * (l0 + (d0 - d1) l3) / prod_{j=-d1}^{d0} (l0 + j l3).

    The numerator is one of the denominator forms, so it cancels: the term
    is written as its factor list {(1, 0, 0, j): -1} over j in [-d1, d0],
    j != d0 - d1, forms that are already primitive.
    """
    forms = {(1, 0, 0, j): -1 for j in range(-d1, d0 + 1) if j != d0 - d1}
    scalar = Fraction((-1) ** d1, math.factorial(d0) * math.factorial(d1))
    return FactoredRatFun._trusted(scalar, forms)


def _residues_at_l3_one(term, d):
    """{m: (num, den)} of a residue summand at l3 = 1, which must be
    scalar / prod_j (l0 + j l3) over distinct j in [-d, d] (else
    PoleOrderError): at m = -j the residue is num / den with num the
    scalar's numerator and den its denominator times prod_{k != j} (k - j),
    unreduced ints.  Over all k != j of [lo, hi] = [min j, max j] that
    product is (-1)^(j - lo) (j - lo)! (hi - j)!; the k of [lo, hi] that are
    not among the j (one per summand of the certificate) are divided out."""
    js = []
    for form, e in term.forms.items():
        if e != -1 or form != (1, 0, 0, form[-1]) or not -d <= form[-1] <= d:
            raise PoleOrderError(
                f"summand factor {form}^{e} is not (l0 + j l3)^-1 with |j| <= {d}")
        js.append(form[-1])
    num, den = term.scalar.numerator, term.scalar.denominator
    lo, hi = min(js, default=0), max(js, default=0)
    missing = set(range(lo, hi + 1)).difference(js)
    residues = {}
    for j in js:
        product = math.factorial(j - lo) * math.factorial(hi - j)
        for k in missing:
            product //= k - j
        residues[-j] = (num, den * (-product if (j - lo) % 2 else product))
    return residues


def _printed_residue_total(m, d):
    """The residue at l0 = m >= 0 as printed in closed form:

    sum_{i=m}^{d} (-1)^m / ((d-i)! i!) * (m + d - 2i) / ((i-m)! (m+d-i)!),

    summed in ints over (d!)^2, where the i-th term is
    (-1)^m (m + d - 2i) C(d, i) C(d, i - m).
    """
    total = sum((m + d - 2 * i) * math.comb(d, i) * math.comb(d, i - m)
                for i in range(m, d + 1))
    return Fraction((-1) ** m * total, math.factorial(d) ** 2)


def residue_vanishing_check(d):
    """Certify that the n = 2d invariant vanishes via its residues.

    The l3 = 1 specialization Phi(l0) of l3^(2d) * P(2d, d) is a sum over
    ordered (d0, d1) with d0 + d1 = d of simple-pole terms.  The check: every
    summand, read off its factor list, has only simple poles at integers m in
    [-d, d] (else PoleOrderError); the residues of Phi there, one int pair
    per summand and pole, summed over a cross-multiplied denominator and
    reduced once per pole, all vanish (matching the printed closed form,
    which vanishes by the j -> -j antisymmetry of its reindexed summands);
    and Phi itself is identically zero.  Raises ValueError unless d is an
    int of at least 1.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"residue certificate needs an integer degree d >= 1, got {d!r}")
    terms = [_residue_term(d - d1, d1) for d1 in range(d + 1)]
    sums = dict.fromkeys(range(-d, d + 1), (0, 1))
    for term in terms:
        for m, (num, den) in _residues_at_l3_one(term, d).items():
            total, common = sums[m]
            sums[m] = (total * den + num * common, common * den)
    pole_rows = []
    ok = True
    for m, (total, common) in sums.items():
        res = Fraction(total, common)
        printed = (
            _printed_residue_total(m, d) if m >= 0 else -_printed_residue_total(-m, d)
        )
        row_ok = res == 0 and printed == 0 and res == printed
        ok = ok and row_ok
        pole_rows.append(
            {"m": m, "residue": str(res), "printed_form": str(printed), "ok": row_ok}
        )
    # the homogenized sum has degree -d and is Phi at l3 = 1: zero iff Phi is
    phi_zero = sum_factored(terms, 4).is_zero()
    ok = ok and phi_zero
    return {
        "d": d,
        "n": 2 * d,
        "poles": pole_rows,
        "phi_is_zero": phi_zero,
        "ok": ok,
    }


# -- homogeneity --------------------------------------------------------------------


def is_homogeneous_of_degree(f, degree):
    """True when f(s*l0, ..., s*l3) = s^degree * f.

    A reduced num/den is homogeneous exactly when num and den are, and its
    degree is then their difference; zero is homogeneous of every degree.
    """
    if f.is_zero():
        return True
    num = {sum(m) for m in f.num.coeffs}
    den = {sum(m) for m in f.den.coeffs}
    return len(num) == len(den) == 1 and num.pop() - den.pop() == degree
