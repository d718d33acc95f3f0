"""Equivariant K-theory bookkeeping for a four-dimensional torus.

A :class:`KClass` is a virtual representation of T = (C*)^4: a finite integer
combination of characters t^w = t0^w0 t1^w1 t2^w2 t3^w3, stored sparsely as a
map from weight tuples to nonzero multiplicities.  These classes track the
fixed-point obstruction theory on the total space of a split rank-three bundle
over a line: O(l1) + O(l2) + O(l3) with l1 + l2 + l3 = -2.

Conventions
-----------
* t0 scales the base line; t1, t2, t3 scale the three normal directions.
* The anticanonical relation t0*t1*t2*t3 = 1 identifies characters; classes
  are compared through :meth:`KClass.cy_normalized`, which uses the relation
  to clear the t1 exponent.  Euler classes are always taken on the raw class,
  before any such normalization.
* ``conj`` negates every weight (dualizing a representation).

The cohomology conversion is :func:`euler_class`: each character t^w of a
trivial-free class contributes the linear factor w0*l0 + w1*l1 + w2*l2 + w3*l3
raised to its multiplicity.
"""
from __future__ import annotations

from ._record import FrozenRecord
from .ratfun import FactoredRatFun, _convolved, _merged, _parse_signed_sum, _signed_sum

__all__ = [
    "Weight",
    "ZERO_WEIGHT",
    "E0",
    "E1",
    "E2",
    "E3",
    "KClass",
    "TrivialWeightError",
    "EqLineBundleP1",
    "SplitGeometry",
    "chi_p1_line",
    "chi_p1_pair",
    "chi_x_pair",
    "chi_adjunction",
    "euler_class",
    "euler_factored",
    "check_square_root",
    "kclass_str",
    "kclass_parse",
]

Weight = tuple  # 4-tuple of ints

ZERO_WEIGHT = (0, 0, 0, 0)
E0 = (1, 0, 0, 0)
E1 = (0, 1, 0, 0)
E2 = (0, 0, 1, 0)
E3 = (0, 0, 0, 1)
NORMAL_WEIGHTS = (E1, E2, E3)


class TrivialWeightError(ArithmeticError):
    """A trivial (weight-zero) character survived into an Euler class.

    The associated linear form is zero, so the Euler class is not defined;
    this is always a hard error, never a silent zero.
    """


def _check_weight(w):
    w = tuple(int(x) for x in w)
    if len(w) != 4:
        raise ValueError(f"weight {w} must have four components")
    return w


def _add_weights(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])


def _neg_weight(w):
    return (-w[0], -w[1], -w[2], -w[3])


class KClass:
    """Finite integer combination of torus characters, stored sparsely."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, m in terms.items():
                m = int(m)
                if m:
                    clean[_check_weight(w)] = m
        self.terms = clean
        self._hash = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, terms):
        """Internal: wrap a map of 4-tuple int weights to nonzero ints as is."""
        out = cls.__new__(cls)
        out.terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({ZERO_WEIGHT: 1})

    @classmethod
    def character(cls, weight, multiplicity=1):
        return cls({_check_weight(weight): multiplicity})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def rank(self):
        """Virtual rank: the sum of all multiplicities."""
        return sum(self.terms.values())

    def multiplicity(self, weight):
        return self.terms.get(_check_weight(weight), 0)

    def __eq__(self, other):
        return isinstance(other, KClass) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        return f"KClass({kclass_str(self)})"

    # -- abelian-group and ring operations ------------------------------------

    def __add__(self, other):
        return KClass._trusted(_merged(self.terms, other.terms))

    def __neg__(self):
        return KClass._trusted({w: -m for w, m in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Tensor product (convolution of characters)."""
        if isinstance(other, int):
            return self.scale(other)
        return KClass._trusted(_convolved(self.terms, other.terms))

    __rmul__ = __mul__

    def scale(self, m):
        m = int(m)
        if m == 0:
            return KClass()
        return KClass._trusted({w: c * m for w, c in self.terms.items()})

    def twist(self, weight):
        """Tensor with the single character t^weight."""
        weight = _check_weight(weight)
        if weight == ZERO_WEIGHT:
            return self
        return KClass._trusted({_add_weights(w, weight): m for w, m in self.terms.items()})

    def conj(self):
        """Dual class: every weight negated (a ring involution)."""
        return KClass._trusted({_neg_weight(w): m for w, m in self.terms.items()})

    def cy_normalized(self):
        """Rewrite via t0*t1*t2*t3 = 1 so that no t1 exponent remains.

        Each weight w maps to w - w[1]*(1,1,1,1); opposite characters merge
        or cancel accordingly.  Use for comparisons only -- Euler classes
        must be taken on the raw class.
        """
        terms = {}
        for w, m in self.terms.items():
            shift = w[1]
            v = (w[0] - shift, 0, w[2] - shift, w[3] - shift)
            s = terms.get(v, 0) + m
            if s:
                terms[v] = s
            else:
                terms.pop(v, None)
        return KClass._trusted(terms)


# -- geometry ---------------------------------------------------------------------


class EqLineBundleP1(FrozenRecord):
    """Equivariant line bundle O(a*Z0 + b*Zinf) on the line, twisted by t^twist.

    Z0 and Zinf are the two fixed points; a is the multiplicity at the t0-fixed
    point Z0, b the multiplicity at Zinf.
    """

    _fields = ("a", "b", "twist")

    def __init__(self, a: int, b: int, twist: Weight = ZERO_WEIGHT):
        self.__dict__.update(a=a, b=b, twist=_check_weight(twist))

    def twisted(self, zinf_shift, weight):
        """Tensor with O(zinf_shift * Zinf) and the character t^weight."""
        return EqLineBundleP1(self.a, self.b + zinf_shift, _add_weights(self.twist, weight))


class SplitGeometry(FrozenRecord):
    """Total space of O(l1) + O(l2) + O(l3) over the line; l1+l2+l3 = -2."""

    _fields = ("l1", "l2", "l3")

    def __init__(self, l1: int, l2: int, l3: int):
        if l1 + l2 + l3 != -2:
            raise ValueError(f"split degrees ({l1},{l2},{l3}) must sum to -2")
        self.__dict__.update(l1=l1, l2=l2, l3=l3)

    @property
    def degrees(self):
        return (self.l1, self.l2, self.l3)


# -- Euler characteristics on the line ------------------------------------------------


def chi_p1_line(a, b):
    """T-character of the cohomology of O(a*Z0 + b*Zinf) on the line.

    All weights lie on the t0 axis:
      a+b >= 0   ->  sum of t0^j for j = -b .. a          (sections)
      a+b == -1  ->  0
      a+b <= -2  ->  minus sum of t0^j for j = a+1 .. -b-1 (first cohomology)
    The rank is a + b + 1 in every case.
    """
    total = a + b
    if total >= 0:
        return KClass({(j, 0, 0, 0): 1 for j in range(-b, a + 1)})
    if total == -1:
        return KClass()
    return KClass({(j, 0, 0, 0): -1 for j in range(a + 1, -b)})


def chi_p1_pair(bundle_a, bundle_b):
    """chi of the pair (A, B) on the line: cohomology of Hom(A, B).

    Hom(A, B) = O((aB-aA)*Z0 + (bB-bA)*Zinf) with character twist(B) - twist(A),
    so this is chi_p1_line on the difference bundle, shifted by that weight.
    """
    line = chi_p1_line(bundle_b.a - bundle_a.a, bundle_b.b - bundle_a.b)
    shift = _add_weights(bundle_b.twist, _neg_weight(bundle_a.twist))
    return line.twist(shift)


_SUBSETS_123 = (
    ((), 1),
    ((1,), -1),
    ((2,), -1),
    ((3,), -1),
    ((1, 2), 1),
    ((1, 3), 1),
    ((2, 3), 1),
    ((1, 2, 3), -1),
)


def chi_x_pair(bundle_a, bundle_b, geom, raw=False):
    """chi on the total space of the pair of pushed-forward line bundles.

    Computed by the Koszul resolution of the zero section: an alternating sum
    over subsets S of the three normal directions, each twisting B by
    O((sum of l_i) * Zinf) and the character of the corresponding wedge.
    The result is rewritten via t0*t1*t2*t3 = 1 unless ``raw`` is set.
    """
    degrees = geom.degrees
    total = KClass()
    for subset, sign in _SUBSETS_123:
        zinf_shift = sum(degrees[i - 1] for i in subset)
        weight = ZERO_WEIGHT
        for i in subset:
            weight = _add_weights(weight, NORMAL_WEIGHTS[i - 1])
        piece = chi_p1_pair(bundle_a, bundle_b.twisted(zinf_shift, weight))
        total = total + piece.scale(sign)
    return total if raw else total.cy_normalized()


def chi_adjunction(bundles, geom):
    """chi(F, F) on the total space for F a sum of line bundles on the line.

    Sums chi_x_pair over all ordered pairs of summands; the result is
    rewritten via the anticanonical relation.
    """
    total = KClass()
    for bundle_a in bundles:
        for bundle_b in bundles:
            total = total + chi_x_pair(bundle_a, bundle_b, geom, raw=True)
    return total.cy_normalized()


# -- Euler classes ------------------------------------------------------------------


def euler_factored(kclass):
    """Euler class of a trivial-free KClass as a factored rational function.

    Each character t^w contributes the linear form w0*l0 + ... + w3*l3 with
    exponent equal to its multiplicity.  A nonzero trivial multiplicity is a
    hard error: the zero weight has no Euler factor.
    """
    trivial = kclass.terms.get(ZERO_WEIGHT, 0)
    if trivial:
        raise TrivialWeightError(
            f"trivial character with net multiplicity {trivial} has no Euler factor"
        )
    return FactoredRatFun.product(1, kclass.terms.items())


def euler_class(kclass):
    """Euler class as a RatFun: weight w maps to the form w0*l0 + w1*l1 +
    w2*l2 + w3*l3.  Raises TrivialWeightError when the trivial character
    survives with nonzero net multiplicity.
    """
    return euler_factored(kclass).to_ratfun(4)


def check_square_root(full, half):
    """True when full == half + conj(half), as raw classes."""
    return full == half + half.conj()


# -- text form -------------------------------------------------------------------------


def _kclass_sort_key(w):
    return (sum(abs(x) for x in w), tuple(-x for x in w))


def kclass_str(kclass):
    """Canonical text: characters ordered by total |weight|, e.g. 2 - t3 - t3^-1."""
    weights = sorted(kclass.terms, key=_kclass_sort_key)
    return _signed_sum(((w, kclass.terms[w]) for w in weights), "t")


def kclass_parse(text):
    """Parse the canonical KClass text form (inverse of kclass_str)."""
    return KClass(_parse_signed_sum(text, "t", 4, r"\d+"))
