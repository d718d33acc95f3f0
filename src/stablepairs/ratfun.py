"""Exact multivariate polynomial and rational-function arithmetic over Q.

Values live in the field of rational functions in equivariant parameters
l0, l1, l2, l3 (or a prefix/extension of that list).  Everything is exact:
coefficients are arbitrary-precision :class:`fractions.Fraction`, there is no
floating point anywhere, and every value has a single canonical form so that
printed output is reproducible byte-for-byte.

Canonical forms
---------------
* ``Poly``: sparse map from exponent tuples to nonzero Fractions; term order
  is graded lexicographic with l0 > l1 > l2 > l3.
* ``RatFun``: reduced fraction num/den with gcd(num, den) = 1, denominator an
  integer-primitive polynomial with positive leading coefficient (rational
  content is pushed into the numerator).

A factored fast path (:class:`FactoredRatFun`, :func:`sum_factored`) handles
the hot loops, where every factor is a linear form: products are kept as
multisets of primitive linear forms plus a rational scalar.  A sum expands
the numerators by Kronecker substitution and adds them as a tree of halves,
each over its own denominator, so a term is lifted toward the common
denominator only where halves meet.  A homogeneous polynomial of degree N
drops its last variable (implied by N) and maps l_i to X**stride_i with
X = 2**bits, so it becomes a single Python int and a product of linear forms
is a few big-int multiplications.  The radix comes from a rigorous
coefficient bound, the sum of |scalar| * prod(||form||_1 ** lift), so the
balanced base-X digits of the packed sum are exactly its coefficients.  The
result is then reduced by trial division against each denominator form
(one term, as in ``FactoredRatFun.to_ratfun``, needs none) instead of
generic polynomial gcd.  That gcd (:func:`poly_gcd`, by subresultants) is
the reduction of general ``RatFun`` arithmetic and the tests' oracle; no
``stablepairs`` command reaches it.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd, lcm as _int_lcm, prod
from operator import add

__all__ = [
    "Poly",
    "RatFun",
    "FactoredRatFun",
    "PoleOrderError",
    "poly_gcd",
    "specialize",
    "residue_at",
    "sum_factored",
    "poly_str",
    "poly_parse",
    "ratfun_str",
    "ratfun_parse",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleOrderError(ArithmeticError):
    """Raised when a residue is requested at a pole of order two or more."""


def _merged(a, b):
    """The sum of two sparse maps {key: nonzero coefficient}, zeros dropped."""
    out = dict(a)
    for key, c in b.items():
        s = out[key] + c if key in out else c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _convolved(a, b):
    """The product of two sparse maps keyed by exponent tuples, which add
    componentwise; zeros dropped."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(map(add, k1, k2))
            c = c1 * c2
            s = out[key] + c if key in out else c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _grlex_key(mono):
    """Sort key for graded lex order with variable 0 highest.

    Within a fixed total degree, the tuple itself compares lexicographically;
    a larger exponent on an earlier variable wins, which is exactly lex with
    l0 > l1 > l2 > l3.
    """
    return (sum(mono), mono)


class Poly:
    """Multivariate polynomial over Q with a fixed number of variables.

    Immutable by convention: no method mutates ``self``; the coefficient map
    must not be modified after construction.
    """

    __slots__ = ("arity", "coeffs", "_hash")

    def __init__(self, arity, coeffs=None):
        self.arity = int(arity)
        clean = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if len(mono) != self.arity:
                    raise ValueError(
                        f"monomial {mono} has arity {len(mono)}, expected {self.arity}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                clean[tuple(mono)] = c
        self.coeffs = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, arity, coeffs):
        """Internal: wrap a map of arity-length exponent tuples to nonzero
        Fractions as is."""
        out = cls.__new__(cls)
        out.arity = arity
        out.coeffs = coeffs
        out._hash = None
        return out

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def constant(cls, value, arity):
        value = Fraction(value)
        if value == 0:
            return cls(arity)
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def one(cls, arity):
        return cls.constant(1, arity)

    @classmethod
    def variable(cls, index, arity):
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {mono: _ONE})

    @classmethod
    def linear_form(cls, coefficients, arity=None):
        """The linear polynomial sum_i coefficients[i] * l_i."""
        coefficients = tuple(coefficients)
        if arity is None:
            arity = len(coefficients)
        if len(coefficients) != arity:
            raise ValueError("coefficient vector length must match arity")
        coeffs = {}
        for i, c in enumerate(coefficients):
            c = Fraction(c)
            if c != 0:
                mono = tuple(1 if j == i else 0 for j in range(arity))
                coeffs[mono] = c
        return cls(arity, coeffs)

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return all(sum(m) == 0 for m in self.coeffs)

    def constant_value(self):
        if not self.coeffs:
            return _ZERO
        [(mono, c)] = self.coeffs.items()
        if sum(mono) != 0:
            raise ValueError("polynomial is not constant")
        return c

    def total_degree(self):
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(m) for m in self.coeffs)

    def leading_monomial(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.coeffs, key=_grlex_key)

    def leading_coeff(self):
        return self.coeffs[self.leading_monomial()]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({poly_str(self)})"

    # -- ring operations ----------------------------------------------------

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check_arity(other)
        return Poly._trusted(self.arity, _merged(self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly._trusted(self.arity, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_arity(other)
        return Poly._trusted(self.arity, _convolved(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scale(self, factor):
        factor = Fraction(factor)
        if factor == 0:
            return Poly(self.arity)
        return Poly._trusted(self.arity, {m: c * factor for m, c in self.coeffs.items()})

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.arity)
        for _ in range(exponent):
            result = result * self
        return result

    # -- content / primitive part -------------------------------------------

    def content(self):
        """Positive rational content: gcd of numerators / lcm of denominators."""
        if not self.coeffs:
            return _ZERO
        num = 0
        den = 1
        for c in self.coeffs.values():
            num = _int_gcd(num, abs(c.numerator))
            den = _int_lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive(self):
        """self / content(): integer coefficients with gcd one, sign kept."""
        cont = self.content()
        if cont in (0, 1):
            return self
        return self.scale(1 / cont)

    def monic_sign(self):
        """+1 or -1: the sign of the leading coefficient (0 for zero)."""
        if not self.coeffs:
            return 0
        return 1 if self.leading_coeff() > 0 else -1

    # -- substitution ---------------------------------------------------------

    def subs(self, assignments):
        """Substitute variables by Fractions or same-arity polynomials."""
        if not assignments:
            return self
        for v in assignments:
            if not 0 <= v < self.arity:
                raise ValueError(f"assignment for variable {v} out of range")
        # every substituted monomial is added into one map, zeros dropped once
        out = {}
        for mono, c in self.coeffs.items():
            scalar = c
            factor = None
            residual = list(mono)
            for v, value in assignments.items():
                e = mono[v]
                if e == 0:
                    continue
                residual[v] = 0
                if isinstance(value, Poly):
                    if value.arity != self.arity:
                        raise ValueError("substituted polynomial has wrong arity")
                    piece = (value**e).coeffs
                    factor = piece if factor is None else _convolved(factor, piece)
                else:
                    scalar = scalar * (Fraction(value) ** e)
            if factor is None:
                pieces = ((tuple(residual), scalar),)
            else:
                pieces = ((tuple(map(add, residual, shift)), scalar * c2)
                          for shift, c2 in factor.items())
            for key, coeff in pieces:
                out[key] = out[key] + coeff if key in out else coeff
        return Poly._trusted(self.arity, {m: c for m, c in out.items() if c})

    # -- division --------------------------------------------------------------

    def try_divide(self, divisor):
        """Exact quotient self/divisor, or None when divisor does not divide."""
        self._check_arity(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        lead_d = divisor.leading_monomial()
        lc_d = divisor.coeffs[lead_d]
        remainder = dict(self.coeffs)
        quotient = {}
        # a min-heap on negated grlex keys: a monomial is pushed when it enters
        # the remainder, and skipped when popped after it has left
        heap = [(-sum(m), tuple(-e for e in m), m) for m in remainder]
        heapify(heap)
        while remainder:
            lead_r = heappop(heap)[2]
            if lead_r not in remainder:
                continue
            shift = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(e < 0 for e in shift):
                return None
            factor = remainder[lead_r] / lc_d
            quotient[shift] = factor
            for m, c in divisor.coeffs.items():
                mono = tuple(a + b for a, b in zip(m, shift))
                s = remainder.get(mono, _ZERO) - factor * c
                if s == 0:
                    remainder.pop(mono, None)
                else:
                    if mono not in remainder:
                        heappush(heap, (-sum(mono), tuple(-e for e in mono), mono))
                    remainder[mono] = s
        return Poly(self.arity, quotient)

    def exact_div(self, divisor):
        q = self.try_divide(divisor)
        if q is None:
            raise ValueError("inexact polynomial division")
        return q

    # -- univariate view along one variable --------------------------------------

    def degree_in(self, var):
        if not self.coeffs:
            return -1
        return max(m[var] for m in self.coeffs)

    def coeff_in(self, var, power):
        """Coefficient of l_var**power, as a Poly with exponent zero on var."""
        coeffs = {}
        for m, c in self.coeffs.items():
            if m[var] == power:
                mono = tuple(0 if i == var else e for i, e in enumerate(m))
                coeffs[mono] = coeffs.get(mono, _ZERO) + c
        return Poly(self.arity, coeffs)

    def used_variables(self):
        used = set()
        for m in self.coeffs:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def shift_var(self, var, amount):
        """Multiply by l_var**amount (amount >= 0)."""
        if amount == 0:
            return self
        coeffs = {}
        for m, c in self.coeffs.items():
            mono = tuple(e + amount if i == var else e for i, e in enumerate(m))
            coeffs[mono] = c
        return Poly(self.arity, coeffs)


def _signed_sum(terms, var):
    """Text of sum(c * prod(var_i ** e_i)) over (exponents, c) pairs in the
    given order, e.g. "3/2*l0^2 - l1*l2 + 7"; "0" when there are none."""
    out = ""
    for exponents, c in terms:
        body = "*".join(
            f"{var}{i}" if e == 1 else f"{var}{i}^{e}" for i, e in enumerate(exponents) if e
        )
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if out:
            out += f" - {text}" if c < 0 else f" + {text}"
        else:
            out = f"-{text}" if c < 0 else text
    return out or "0"


def poly_str(p):
    """Canonical text form: graded-lex descending terms, coefficients p/q."""
    monos = sorted(p.coeffs, key=_grlex_key, reverse=True)
    return _signed_sum(((m, p.coeffs[m]) for m in monos), "l")


_TERM_SPLIT = re.compile(r"(?<!\^)(?=[+-])")
_RATIONAL = r"\d+(?:/\d+)?"


def _parse_signed_sum(text, var, arity, coefficient_pattern):
    """{exponents: coefficient} of a text written as _signed_sum writes it,
    e.g. "3/2*l0^2 - l1*l2 + 7" for var "l": terms with an optional leading
    coefficient matching ``coefficient_pattern`` and factors var<i>^<e> with
    0 <= i < arity; repeated terms add up, cancelled ones stay as zeros."""
    terms = {}
    for chunk in _TERM_SPLIT.split(text.strip().replace(" ", "")):
        if not chunk:
            continue
        sign = -1 if chunk[0] == "-" else 1
        chunk = chunk[1:] if chunk[0] in "+-" else chunk
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        factors = chunk.split("*")
        coeff = Fraction(sign)
        if re.fullmatch(coefficient_pattern, factors[0]):
            coeff *= Fraction(factors.pop(0))
        exponents = [0] * arity
        for factor in factors:
            m = re.match(rf"{var}(\d+)(?:\^(-?\d+))?$", factor)
            if not m or int(m.group(1)) >= arity:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            exponents[int(m.group(1))] += int(m.group(2) or 1)
        key = tuple(exponents)
        terms[key] = terms.get(key, _ZERO) + coeff
    return terms


def poly_parse(text, arity=4):
    """Parse the canonical polynomial text form (inverse of poly_str)."""
    if "^-" in text.replace(" ", ""):
        raise ValueError(f"negative exponents are not polynomial: {text!r}")
    return Poly(arity, _parse_signed_sum(text, "l", arity, _RATIONAL))


# -- polynomial gcd ------------------------------------------------------------


def _pseudo_rem(f, g, var):
    """Pseudo-remainder of f by g in the main variable var.

    Returns r with lc(g)**(deg f - deg g + 1) * f = q*g + r and deg_var r < deg_var g.
    Coefficients stay in the subring generated by those of f and g.
    """
    dg = g.degree_in(var)
    lc_g = g.coeff_in(var, dg)
    r = f
    owed = f.degree_in(var) - dg + 1
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lc_r = r.coeff_in(var, dr)
        r = lc_g * r - (lc_r * g).shift_var(var, dr - dg)
        owed -= 1
    # When the degree drops by more than one per step, the identity still owes
    # factors of lc_g on the remainder.
    for _ in range(max(owed, 0)):
        r = lc_g * r
    return r


def _content_in(p, var):
    """The gcd of the coefficient polynomials of p viewed in the variable
    var; the running gcd stops once it is constant."""
    cont = None
    for power in range(p.degree_in(var) + 1):
        c = p.coeff_in(var, power)
        if c.is_zero():
            continue
        cont = c if cont is None else poly_gcd(cont, c)
        if cont.is_constant():
            break
    return cont


def _subresultant_gcd(a, b, var):
    """gcd of a, b (both primitive in var and of positive degree in it), via
    the subresultant polynomial remainder sequence."""
    arity = a.arity
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    f, g = a, b
    g_coeff = None  # lc of previous divisor; None means 1 (first round)
    h_coeff = None
    while True:
        delta = f.degree_in(var) - g.degree_in(var)
        rem = _pseudo_rem(f, g, var)
        if rem.is_zero():
            return g.exact_div(_content_in(g, var))
        if rem.degree_in(var) == 0:
            return Poly.one(arity)
        if g_coeff is None:
            divisor = None
        else:
            divisor = g_coeff
            for _ in range(delta):
                divisor = divisor * h_coeff
        f, g = g, (rem if divisor is None else rem.exact_div(divisor))
        g_coeff = f.coeff_in(var, f.degree_in(var))
        if h_coeff is None:
            h_coeff = g_coeff**delta if delta > 0 else Poly.one(arity)
        elif delta == 1:
            h_coeff = g_coeff
        elif delta > 1:
            h_coeff = (g_coeff**delta).exact_div(h_coeff ** (delta - 1))
        # delta == 0 leaves h unchanged


def poly_gcd(a, b):
    """A gcd of a and b, normalized to positive leading coefficient.

    The rational contents contribute gcd(c_a, c_b) = gcd of numerators over
    lcm of denominators, so e.g. gcd(2*l0*l3, 4*l0^2) = 2*l0.  In the
    lowest variable of either input, the gcd is that of the two contents
    times, when both inputs have positive degree there, the subresultant
    gcd of their primitive parts.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.arity != b.arity:
        raise ValueError("arity mismatch in poly_gcd")
    if a.is_zero() or b.is_zero():
        g = a + b
        return g.scale(g.monic_sign())
    ca, cb = a.content(), b.content()
    cont = Fraction(_int_gcd(ca.numerator, cb.numerator), _int_lcm(ca.denominator, cb.denominator))
    pa = a.primitive()
    pb = b.primitive()
    if pa.is_constant() or pb.is_constant():
        return Poly.constant(cont, a.arity)
    var = min(pa.used_variables() | pb.used_variables())
    conta, contb = _content_in(pa, var), _content_in(pb, var)
    g = poly_gcd(conta, contb)
    if pa.degree_in(var) and pb.degree_in(var):
        # the subresultant gcd is primitive in var already
        g = g * _subresultant_gcd(pa.exact_div(conta), pb.exact_div(contb), var)
    g = g.scale(cont / g.content())
    return g.scale(g.monic_sign())


# -- rational functions ---------------------------------------------------------


class RatFun:
    """Reduced fraction of polynomials with canonical denominator.

    Invariants: den != 0; gcd(num, den) = 1 (poly part and content); den is an
    integer-primitive polynomial with positive leading coefficient.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.one(num.arity)
        self.num, self.den = _reduce_fraction(num, den)
        self._hash = None

    @classmethod
    def _trusted(cls, num, den):
        """Internal: wrap an already canonical pair as is: num/den coprime,
        den integer-primitive with positive leading coefficient, nonzero num
        (zero is RatFun.zero()).  A product of primitive linear forms with
        positive first entries is such a den: it is primitive by Gauss's
        lemma, and its grlex leading coefficient is the product of theirs,
        their first nonzero entries."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        out._hash = None
        return out

    @classmethod
    def zero(cls, arity=4):
        return cls(Poly(arity))

    @classmethod
    def one(cls, arity=4):
        return cls(Poly.one(arity))

    @classmethod
    def constant(cls, value, arity=4):
        return cls(Poly.constant(value, arity))

    @property
    def arity(self):
        return self.num.arity

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.constant(other, self.arity)
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"RatFun({ratfun_str(self)})"

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFun.constant(other, self.arity)
        if isinstance(other, Poly):
            return RatFun(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        num = self.num * other.den + other.num * self.den
        return RatFun(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFun.__new__(RatFun)
        out.num = -self.num
        out.den = self.den
        out._hash = None
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent):
        if exponent < 0:
            return (RatFun.one(self.arity) / self) ** (-exponent)
        return RatFun(self.num**exponent, self.den**exponent)

    def as_fraction(self):
        """The value as a Fraction, when constant."""
        return self.num.constant_value() / self.den.constant_value()


def _reduce_fraction(num, den):
    """Canonical (num, den): coprime, den integer-primitive with positive
    leading coefficient.  The common factor comes from poly_gcd, except for a
    constant den, whose gcd with num is a constant."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.arity != den.arity:
        raise ValueError("arity mismatch between numerator and denominator")
    if not (num.is_zero() or den.is_constant()):
        g = poly_gcd(num, den)
        if not g.is_constant():
            num, den = num.exact_div(g), den.exact_div(g)
    return _normalized(num, den)


def _normalized(num, den):
    """(num, den) scaled so that den is integer-primitive with positive
    leading coefficient; zero is 0/1."""
    if num.is_zero():
        return Poly(num.arity), Poly.one(num.arity)
    scale = den.content() * den.monic_sign()
    if scale == 1:
        return num, den
    return num.scale(1 / scale), den.scale(1 / scale)


def specialize(f, assignments):
    """Substitute variables of a RatFun by rationals or polynomials.

    Raises ZeroDivisionError when the denominator vanishes identically under
    the substitution.
    """
    num = f.num.subs(assignments)
    den = f.den.subs(assignments)
    if den.is_zero():
        raise ZeroDivisionError("denominator vanishes identically under substitution")
    return RatFun(num, den)


def residue_at(f, pole, var=0):
    """Residue of f at l_var = pole, as a RatFun in the remaining variables.

    Zero when there is no pole; PoleOrderError when the pole order is two or
    more (the caller must fall back to full simplification).  The pole order
    is the number of exact divisions of the denominator by l_var - pole; at a
    simple pole the residue is the numerator over that cofactor, both at
    l_var = pole.
    """
    if not 0 <= var < f.arity:
        raise ValueError(f"residue variable {var} out of range for arity {f.arity}")
    pole = Fraction(pole)
    linear = Poly.variable(var, f.arity) - Poly.constant(pole, f.arity)
    cofactors, den = [], f.den
    while (den := den.try_divide(linear)) is not None:
        cofactors.append(den)
    order = len(cofactors)
    if order == 0:
        return RatFun.zero(f.arity)
    if order >= 2:
        raise PoleOrderError(
            f"pole of order {order} at variable {var} = {pole}; residue undefined"
        )
    return RatFun(f.num.subs({var: pole}), cofactors[0].subs({var: pole}))


# -- factored fast path ----------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _primitive_form(coefficients):
    """(form, unit) with coefficients = unit * form, form primitive with a
    positive first nonzero entry.  The hot loops meet the same few hundred
    forms at every fixed point, so each is normalized once; the zero form
    raises ValueError, and a raising call is not cached."""
    unit = _int_gcd(*coefficients)
    if not unit:
        raise ValueError("zero linear form has no normalization")
    if next(filter(None, coefficients)) < 0:
        unit = -unit
    if unit == 1:
        return coefficients, 1
    return tuple(map(unit.__rfloordiv__, coefficients)), unit


class FactoredRatFun:
    """A rational function kept as scalar * prod(linear_form ** exponent).

    Forms are primitive integer tuples with positive first nonzero entry;
    exponents are nonzero integers, negative for denominator factors.  This
    is the value representation for individual fixed-point contributions,
    where every factor of the equivariant Euler class is a linear form.
    """

    __slots__ = ("scalar", "forms")

    def __init__(self, scalar=_ONE, forms=None):
        self.scalar = Fraction(scalar)
        self.forms = dict(forms) if forms else {}

    @classmethod
    def _trusted(cls, scalar, forms):
        """Internal: wrap a Fraction and a fresh {primitive form: nonzero
        exponent} dict as is, with no conversion and no copy."""
        out = cls.__new__(cls)
        out.scalar = scalar
        out.forms = forms
        return out

    @classmethod
    def product(cls, scalar, factors):
        """scalar * prod(form ** exponent) over (integer form, exponent)
        pairs, each form normalized once per process (_primitive_form)."""
        forms = {}
        num = den = 1
        for coefficients, exponent in factors:
            form, unit = _primitive_form(tuple(coefficients))
            if unit != 1:
                if exponent > 0:
                    num *= unit**exponent
                else:
                    den *= unit ** (-exponent)
            e = forms.get(form, 0) + exponent
            if e:
                forms[form] = e
            else:
                forms.pop(form, None)
        scalar = Fraction(scalar)
        return cls._trusted(Fraction(scalar.numerator * num, scalar.denominator * den), forms)

    def times_scalar(self, value):
        return FactoredRatFun(self.scalar * value, self.forms)

    def is_zero(self):
        return self.scalar == 0

    def to_ratfun(self, arity):
        """The canonical RatFun of this term: the one-term sum_factored."""
        return sum_factored([self], arity)

    def __repr__(self):
        return f"FactoredRatFun({self.scalar}, {self.forms})"


def _packing_bounds(products, need, forms, variables):
    """(B, bounds): B = sum(|scalar| * prod(||form||_1 ** lift)) and, for
    each of the variables, the largest sum of the lifts of the forms that
    use it, with lift = exponent + need[form].  Read off each term's own
    exponents: its norm product is |scalar| * prod_{e > 0} ||form||**e *
    (NB // prod_{e < 0} ||form||**-e) with NB = prod_need ||form||**need,
    exact since need >= -e, and its lift sum for variable i is
    sum_need need + sum_term e over the forms using i."""
    norms = {f: sum(map(abs, f)) for f in forms}
    need_norm = prod(norms[f] ** n for f, n in need.items())
    bound = 0
    for scalar, exponents in products:
        size, cleared = abs(scalar), need_norm
        for f, e in exponents.items():
            if e > 0:
                size *= norms[f] ** e
            else:
                cleared //= norms[f] ** -e
        bound += size * cleared
    bounds = [sum(n for f, n in need.items() if f[i])
              + max(sum(e for f, e in exponents.items() if f[i]) for _, exponents in products)
              for i in variables]
    return bound, bounds


def _kronecker_sum(products, need, arity):
    """Expand sum(scalar * prod(form ** lift)) into {monomial: int}, where
    lift = exponent + need[form] >= 0 and scalars are integers.

    Every lifted product is homogeneous of one total degree N.  The last
    variable the forms use is then implied by the others and set to 1; the
    rest map to powers X**stride with X = 2**bits, strides from per-variable
    exponent bounds, so every product packs into one Python int.  The l1
    norm is submultiplicative, so no coefficient of the sum exceeds
    B = sum(|scalar| * prod(||form||_1 ** lift)) < 2**(bits - 1)
    (_packing_bounds), and the balanced base-X digits of the packed sum are
    exactly its coefficients; they are read from the binary text of its
    absolute value, zero-padded to whole digits plus one, bits per digit
    with a carry, in time linear in its size.  Packing is a ring
    homomorphism, so the packed sum may be formed in any order: as a tree of
    halves (binary splitting), each half over its own denominator exponents.
    A merge walks each half's exponents once, lifting the other half by the
    powers it lacks and keeping the larger exponents; the root is lifted to
    need.  A form is packed when first powered; unlifted forms never are.
    """
    degree = sum(need.values()) + sum(products[0][1].values())
    forms = set(need)
    for _, exponents in products:
        forms.update(exponents)
    *packed, last = sorted({i for f in forms for i, c in enumerate(f) if c}) or [0]
    # the last packed variable needs no bound: nothing is packed above it
    bound, bounds = _packing_bounds(products, need, forms, packed[:-1])
    strides = [1]
    for b in bounds:
        strides.append(strides[-1] * (b + 1))
    bits = bound.bit_length() + 1
    powers = {}

    def power(form, e):
        p = powers.get((form, e))
        if p is None:
            base = sum(form[i] << (bits * s) for i, s in zip(packed, strides)) + form[last]
            p = powers[form, e] = base ** e
        return p

    def split_sum(lo, hi):
        """(N, den) with sum of products[lo:hi] = N / prod(form ** den[form]):
        binary splitting, each half over its own denominator exponents."""
        if hi - lo == 1:
            value, exponents = products[lo]
            den = {}
            for form, e in exponents.items():
                if e > 0:
                    value *= power(form, e)
                else:
                    den[form] = -e
            return value, den
        mid = (lo + hi) // 2
        left, den = split_sum(lo, mid)
        right, right_den = split_sum(mid, hi)
        for form, e in den.items():
            missing = e - right_den.get(form, 0)
            if missing > 0:
                right *= power(form, missing)
        for form, e in right_den.items():
            missing = e - den.get(form, 0)
            if missing > 0:
                left *= power(form, missing)
                den[form] = e
        return left + right, den

    total, den = split_sum(0, len(products))
    for form, n in need.items():
        missing = n - den.get(form, 0)
        if missing:
            total *= power(form, missing)
    sign = -1 if total < 0 else 1
    text = format(abs(total), "b")
    text = "0" * (bits + -len(text) % bits) + text
    half = 1 << (bits - 1)
    coeffs = {}
    carry = 0
    for position, end in enumerate(range(len(text), 0, -bits)):
        digit = int(text[end - bits:end], 2) + carry
        carry = digit >= half
        if carry:
            digit -= half << 1
        if digit:
            mono = [0] * arity
            rest = position
            for i, b in zip(packed, bounds):
                rest, mono[i] = divmod(rest, b + 1)
            if packed:
                mono[packed[-1]] = rest
            mono[last] = degree - sum(mono)
            coeffs[tuple(mono)] = sign * digit
    return coeffs


def sum_factored(terms, arity, mirrored=False):
    """Sum FactoredRatFun terms over a common denominator, fully reduced.

    Over the common denominator prod(form ** need) a term's numerator is
    scalar * prod(form ** lift), lift = exponent + need.  The terms of one
    total degree share one packed expansion, a product tree of big ints (see
    _kronecker_sum): their scalars are cleared to integers by the lcm L of
    their denominators, bits comes from the rigorous coefficient bound
    sum(|L * scalar| * prod(||form||_1 ** lift)), read off each term's own
    exponents, and the balanced digits of the packed sum, over L, are the
    coefficients.  All denominator factors are irreducible linear forms, so
    trial division against each form is a complete reduction, and no generic
    gcd runs.  One nonzero term skips it: FactoredRatFun.product merges
    equal forms, each primitive with a positive first entry, so the term's
    numerator and denominator are already coprime.  The denominator left is
    a product of such forms, so it is canonical as it stands (RatFun._trusted).

    With ``mirrored`` the result is the sum of the terms plus their images
    under l0 -> -l0, which maps a form (a, b, c, e) with a != 0 to -1 times
    the form (a, -b, -c, -e).  need is closed under that image (the larger
    exponent kept), so D = prod(form ** need) has D(-l0) = sigma * D with
    sigma = (-1) ** (sum of need over the forms with a != 0), and the image
    of N / D is N(-l0) / (sigma * D).  So the packed sum of the terms alone
    gives the numerator of both: c_m * (1 + sigma * (-1) ** m_0), which is
    2 c_m or 0.  A term equal to its own image is passed at half weight.  The
    sum is always reduced: one term stands for two.
    """
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return RatFun.zero(arity)
    need = {}
    for t in terms:
        for form, e in t.forms.items():
            if -e > need.get(form, 0):
                need[form] = -e
    if mirrored:
        for form, e in list(need.items()):
            if form[0]:
                image = (form[0], *(-c for c in form[1:]))
                need[form] = need[image] = max(e, need.get(image, 0))
        sigma = (-1) ** sum(e for form, e in need.items() if form[0])
    groups = {}
    for t in terms:
        groups.setdefault(sum(t.forms.values()), []).append(t)
    total = {}
    for group in groups.values():
        scale = _int_lcm(*(t.scalar.denominator for t in group))
        products = [
            (t.scalar.numerator * (scale // t.scalar.denominator), t.forms)
            for t in group
        ]
        for mono, c in _kronecker_sum(products, need, arity).items():
            if mirrored:
                c *= 1 + sigma * (-1) ** mono[0]
                if not c:
                    continue
            total[mono] = Fraction(c, scale)
    if not total:
        return RatFun.zero(arity)
    num_poly = Poly._trusted(arity, total)
    remaining = dict(need)
    for form in sorted(need) if len(terms) > 1 or mirrored else ():
        form_poly = Poly.linear_form(form, arity)
        while remaining[form] > 0:
            q = num_poly.try_divide(form_poly)
            if q is None:
                break
            num_poly = q
            remaining[form] -= 1
    den = _kronecker_sum([(1, {})], remaining, arity)
    den_poly = Poly._trusted(arity, {m: Fraction(c) for m, c in den.items()})
    return RatFun._trusted(num_poly, den_poly)


# -- text format -------------------------------------------------------------------


def ratfun_str(f):
    """Canonical text: "0", "(num)" for polynomials, else "(num)/(den)"."""
    if f.is_zero():
        return "0"
    num = poly_str(f.num)
    if f.den.is_constant() and f.den.constant_value() == 1:
        return f"({num})"
    return f"({num})/({poly_str(f.den)})"


def _parse_parts(text, arity):
    """(num, den) of a rational-function text form, as written: no reduction."""
    text = text.strip()
    m = re.fullmatch(r"\((.*)\)\s*/\s*\((.*)\)", text)
    if m:
        num, den = poly_parse(m.group(1), arity), poly_parse(m.group(2), arity)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        return num, den
    m = re.fullmatch(r"\((.*)\)", text)
    return poly_parse(m.group(1) if m else text, arity), Poly.one(arity)


def ratfun_parse(text, arity=4):
    """Parse the canonical rational-function text form (inverse of ratfun_str)."""
    return RatFun(*_parse_parts(text, arity))
