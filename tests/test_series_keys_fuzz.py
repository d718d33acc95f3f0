"""Class keys through every ``series`` builder and every read that takes one.

A key is a class when it holds ``rank`` ints >= 0; bools and floats are no
ints here.  Keys are drawn from a grammar of ints, bools, floats, negative
entries, other lengths and classes above ``dmax``, and each call must give
what a slow reference on tuples and Fractions gives: the same value, or the
same exception class (ValueError, or WallError for an exact parameter on a
wall).  At a class above dmax, ``coefficient`` reads 0, ``pt_coeff_from_gv``
and a synthesized ``p0_value`` raise ValueError, and an explicit
``p0_value``, ``js_from_gv`` and the wall predicates compute a value.
"""

import itertools
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from stablepairs.series import (  # noqa: E402
    ClassLattice,
    GVTable,
    TParam,
    TruncatedSeries,
    WallError,
    gw0_from_gv0,
    js_from_gv,
    no_wall_predicate,
    pt_coeff_from_gv,
    pt_series_from_gv,
    wall_candidates,
)


def outcome(call):
    """('value', result) or ('raises', exception class) of call()."""
    try:
        return "value", call()
    except (ValueError, KeyError, TypeError) as exc:
        return "raises", type(exc)


def is_class(key, rank):
    return len(key) == rank and all(type(b) is int and b >= 0 for b in key)


def ref_deg(lattice, beta):
    return sum(w * b for w, b in zip(lattice.omega, beta))


def ref_rest(beta, gamma):
    rest = tuple(b - g for b, g in zip(beta, gamma))
    return rest if min(rest) >= 0 else None


def ref_product(a, b, lattice):
    """The product of two {class: Fraction} series in q, truncated at dmax."""
    out = {}
    for (b1, c1), (b2, c2) in itertools.product(a.items(), b.items()):
        beta = tuple(x + y for x, y in zip(b1, b2))
        if ref_deg(lattice, beta) <= lattice.dmax:
            out[beta] = out.get(beta, 0) + c1 * c2
    return out


def ref_synthesized_p0(lattice, n1):
    """{class: P(0, class)} up to dmax: exp(L) = sum_m L^m / m! with
    L = sum_beta n1(beta) sum_k logM_k q^(k beta), logM_j = sum_{km = j} k/m."""
    log_m = [sum(Fraction(k, j // k) for k in range(1, j + 1) if j % k == 0)
             for j in range(lattice.dmax + 1)]
    log = {}
    for beta, v in n1.items():
        for k in range(1, lattice.dmax + 1):
            multiple = tuple(k * b for b in beta)
            if ref_deg(lattice, multiple) <= lattice.dmax:
                log[multiple] = log.get(multiple, 0) + v * log_m[k]
    zero = (0,) * lattice.rank
    total, power = {zero: Fraction(1)}, {zero: Fraction(1)}
    for m in range(1, lattice.dmax + 1):  # L has no term of degree 0
        power = {b: c / m for b, c in ref_product(power, log, lattice).items()}
        for b, c in power.items():
            total[b] = total.get(b, 0) + c
    return total


def ref_admits(t, deg):
    if t.kind != "finite":
        return t.kind == "infinity"
    if deg == 1 / t.value:
        if not t.side:
            raise WallError("on the wall")
        return t.side > 0
    return deg > 1 / t.value


class Reference:
    """The values of one table, walked on tuples and Fractions."""

    def __init__(self, lattice, n0, p0, n1):
        self.lattice, self.n0, self.p0 = lattice, n0, p0
        self.synthesized = None if p0 is not None else ref_synthesized_p0(lattice, n1)

    def check(self, key):
        """key as a tuple; ValueError unless it is a class."""
        if not is_class(key, self.lattice.rank):
            raise ValueError(key)
        return tuple(key)

    def on_lattice(self, key):
        """key as a class of degree <= dmax; ValueError otherwise."""
        beta = self.check(key)
        if ref_deg(self.lattice, beta) > self.lattice.dmax:
            raise ValueError(key)
        return beta

    def p0_value(self, key):
        if self.p0 is not None:
            beta = self.check(key)
            return self.p0.get(beta, Fraction(0) if any(beta) else Fraction(1))
        return self.synthesized.get(self.on_lattice(key), 0)

    def pt(self, t, n, key):
        beta = self.on_lattice(key)
        if n < 0:
            return Fraction(0)
        if n == 0:
            return self.p0_value(beta)
        total = Fraction(0)
        for gamma, mult in self.n0.items():
            rest = ref_rest(beta, gamma)
            if rest is not None and ref_admits(t, ref_deg(self.lattice, gamma)):
                total += mult * self.pt(t, n - 1, rest)
        return total

    def chamber_coefficient(self, t, nmax, n, key):
        """A coefficient of the chamber series: P^t(n, beta)/n!, 0 past the
        truncation; WallError when t is exact on a stored degree, which
        building the series finds before the key is read."""
        if t.kind == "finite" and not t.side:
            for gamma in self.n0:
                ref_admits(t, ref_deg(self.lattice, gamma))
        beta = self.check(key)
        if not 0 <= n <= nmax or ref_deg(self.lattice, beta) > self.lattice.dmax:
            return Fraction(0)
        return self.pt(t, n, beta) / math.factorial(n)

    def js(self, n, key):
        if n == 0:
            return self.p0_value(key)
        beta = self.check(key)
        if n < 0:
            return Fraction(0)
        slope = Fraction(ref_deg(self.lattice, beta), n)
        on_slope = {g: v for g, v in self.n0.items() if ref_deg(self.lattice, g) == slope}

        def count(k, rest):
            if k == 0:
                return Fraction(int(not any(rest)))
            return sum((v * count(k - 1, r) for g, v in on_slope.items()
                        if (r := ref_rest(rest, g)) is not None), Fraction(0))

        return count(n, beta)

    def gw0_of_one(self, key):
        """GW(0, .) of the table n0 = {key: 1}: 1/k^2 at each multiple k key
        of degree <= dmax, none for the zero class."""
        beta, out = self.check(key), {}
        for k in range(1, self.lattice.dmax + 1):
            multiple = tuple(k * b for b in beta)
            if any(beta) and ref_deg(self.lattice, multiple) <= self.lattice.dmax:
                out[multiple] = Fraction(1, k * k)
        return out

    def subs(self, key):
        beta = self.check(key)
        return sorted((b for b in itertools.product(*(range(x + 1) for x in beta))
                       if any(b) and b != beta), key=lambda b: (ref_deg(self.lattice, b), b))

    def slope(self, n, key):
        beta = self.check(key)
        if not any(beta):
            raise ValueError(key)
        return beta, Fraction(n, ref_deg(self.lattice, beta))

    def no_wall(self, key, n, nmin):
        beta, slope = self.slope(n, key)
        return all(slope <= Fraction(nmin(s), ref_deg(self.lattice, s)) for s in self.subs(beta))

    def candidates(self, key, n, nmin):
        beta, slope = self.slope(n, key)
        found = {Fraction(n2, ref_deg(self.lattice, s)) for s in self.subs(beta)
                 for n2 in range(nmin(s), n - nmin(ref_rest(beta, s)) + 1)}
        return sorted(v for v in found if v > slope)


def nmin(beta):
    return sum(beta) % 3 - 1


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
entries = st.one_of(st.integers(0, 4), st.integers(-2, -1), st.booleans(),
                    st.sampled_from([0.0, 1.0, 2.0, 1.5]))


@st.composite
def cases(draw):
    rank = draw(st.integers(1, 2))
    omega = tuple(draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank)))
    lattice = ClassLattice(rank, omega, draw(st.integers(1, 4)))
    # stored classes reach two degrees above dmax
    stored = [b for b in itertools.product(range(lattice.dmax + 3), repeat=rank)
              if any(b) and ref_deg(lattice, b) <= lattice.dmax + 2]
    n0 = draw(st.dictionaries(st.sampled_from(stored), fractions, max_size=4))
    if draw(st.booleans()):
        p0 = draw(st.dictionaries(st.sampled_from([(0,) * rank, *stored]), fractions,
                                  max_size=3))
        n1 = {}
    else:
        p0, n1 = None, draw(st.dictionaries(st.sampled_from(stored), fractions, max_size=3))
    # keys of the lattice's rank most of the time, of other lengths otherwise
    length = draw(st.sampled_from([rank] * 4 + [0, rank - 1, rank + 1]))
    key = tuple(draw(st.lists(entries, min_size=length, max_size=length)))
    d = draw(st.integers(1, lattice.dmax + 2))
    t = draw(st.sampled_from([TParam.infinity(), TParam.zero_plus(), TParam.plus(Fraction(1, d)),
                              TParam.minus(Fraction(1, d)), TParam.exact(Fraction(1, d))]))
    n, nmax = draw(st.integers(-1, 3)), draw(st.integers(0, 3))
    return lattice, n0, p0, n1, key, t, n, nmax


def on_rank_two(key, n=1):
    """A case on ClassLattice(2, (1, 2), 4) with n0 = {(1, 0): 1}, p0 = {}."""
    return ClassLattice(2, (1, 2), 4), {(1, 0): 1}, {}, {}, key, TParam.infinity(), n, 2


# keys once read as the class they hash equal to, or as a class of another rank
@settings(max_examples=150, deadline=None, database=None)
@given(cases())
@example(on_rank_two((1.0, 0)))
@example(on_rank_two((True, 0)))
@example(on_rank_two((0, 0, 0), n=0))
@example(on_rank_two((-1, 2)))
def test_class_keys_read_as_the_reference_does(case):
    lattice, n0, p0, n1, key, t, n, nmax = case
    gv = GVTable(lattice, n0=n0, n1=n1, p0=p0)
    ref = Reference(lattice, gv.n0, gv.p0, gv.n1)

    # builders: a key that is no class is refused, a class is kept
    for name in ("n0", "n1", "p0", "nmin"):
        assert outcome(lambda: getattr(GVTable(lattice, **{name: {key: 1}}), name)) == outcome(
            lambda: {ref.check(key): 1}), name
    assert outcome(lambda: GVTable(lattice, meeting={(key, key): 1}).meeting) == outcome(
        lambda: {(ref.check(key), ref.check(key)): 1})
    assert outcome(lambda: gw0_from_gv0({key: 1}, lattice)) == outcome(
        lambda: ref.gw0_of_one(key))
    built = outcome(lambda: TruncatedSeries(lattice, nmax, {(n, key): Fraction(1, 3)}))

    def ref_built():
        beta = ref.check(key)
        kept = 0 <= n <= nmax and ref_deg(lattice, beta) <= lattice.dmax
        return {(n, beta): Fraction(1, 3)} if kept else {}

    assert (built[0], built[1].coeffs if built[0] == "value" else built[1]) == outcome(ref_built)

    # reads
    assert outcome(lambda: gv.p0_value(key)) == outcome(lambda: ref.p0_value(key))
    assert outcome(lambda: pt_coeff_from_gv(t, n, key, gv)) == outcome(lambda: ref.pt(t, n, key))
    assert outcome(lambda: pt_series_from_gv(t, gv, nmax).coefficient(n, key)) == outcome(
        lambda: ref.chamber_coefficient(t, nmax, n, key))
    assert outcome(lambda: js_from_gv(n, key, gv)) == outcome(lambda: ref.js(n, key))
    assert outcome(lambda: lattice.sub_classes(key)) == outcome(lambda: ref.subs(key))
    assert outcome(lambda: no_wall_predicate(key, n, nmin, lattice)) == outcome(
        lambda: ref.no_wall(key, n, nmin))
    assert outcome(lambda: wall_candidates(key, n, nmin, lattice)) == outcome(
        lambda: ref.candidates(key, n, nmin))
