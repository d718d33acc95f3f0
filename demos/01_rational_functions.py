"""Exact rational-function arithmetic in the equivariant parameters.

Everything downstream (Euler classes, localization sums, residue checks)
reduces to arithmetic in Q(l0, l1, l2, l3).  This walk-through builds a few
polynomials and rational functions by hand and shows the canonical forms,
the gcd reduction, and residue extraction.
"""

from fractions import Fraction

from stablepairs import (
    FactoredRatFun,
    Poly,
    RatFun,
    poly_gcd,
    poly_parse,
    ratfun_str,
    residue_at,
    specialize,
    sum_factored,
)

ARITY = 4
l0, l1, l2, l3 = (Poly.variable(i, ARITY) for i in range(ARITY))

# -- polynomials ---------------------------------------------------------------
# Sparse exact polynomials: every coefficient is a Fraction, printing follows
# graded-lex order with l0 > l1 > l2 > l3.

p = poly_parse("3/2*l0^2 - l1*l2 + 7", ARITY)
print("p                 =", p)
print("built by hand     =", p == Fraction(3, 2) * l0**2 - l1 * l2 + Poly.constant(Fraction(7), ARITY))

# gcd works over Q: the rational content moves into the cofactors
a = (l0 + l3) * (l0 - l3)
b = (l0 + l3) * l1
print("gcd(a, b)         =", poly_gcd(a, b))

# -- rational functions --------------------------------------------------------
# RatFun keeps num/den coprime, the denominator primitive with positive
# leading coefficient, so equal values compare equal structurally.

f = RatFun(l0 + l3, l3**2) * RatFun(l3, Poly.constant(Fraction(2), ARITY))
print("f                 =", ratfun_str(f))
g = RatFun((l0 + l3) * l1, 2 * l1 * l3)
print("same value        =", f == g)

# Substituting values for the variables is a ring homomorphism;
# here evaluate f at (l0, l3) = (1, 5).
print("f(l0=1, l3=5)     =", ratfun_str(specialize(f, {0: Fraction(1), 3: Fraction(5)})))

# -- residues ------------------------------------------------------------------
# The vanishing certificate for the localization sums needs residues at
# simple rational poles of the l0-slice.  Cover-up rule, exact in Fractions.

one = Poly.one(ARITY)
two = Poly.constant(Fraction(2), ARITY)
h = RatFun(l0 + one, (l0 - one) * l0 * (l0 + two))
for pole in (1, 0, -2):
    value = residue_at(h, Fraction(pole), var=0)
    print(f"residue at l0={pole:2d}   -> {ratfun_str(value)}")

# A proper rational function (denominator degree exceeding numerator degree
# by at least two) has residues summing to zero; h is an example.
total = RatFun.zero(ARITY)
for pole in (1, 0, -2):
    total = total + residue_at(h, Fraction(pole), var=0)
print("residues sum to   =", ratfun_str(total))

# -- factored products ---------------------------------------------------------
# Euler classes arrive as products of linear forms; FactoredRatFun keeps them
# unexpanded so huge intermediate polynomials never materialize.

factored = FactoredRatFun.product(
    Fraction(-1, 6),
    [((1, 0, 0, 0), 1),    # l0
     ((0, 1, 1, 0), -2)],  # (l1 + l2)^-2
)
print("factored          =", ratfun_str(factored.to_ratfun(ARITY)))

# sums of factored terms combine over the common denominator exactly
terms = [factored, factored.times_scalar(Fraction(7))]
print("sum of terms      =", ratfun_str(sum_factored(terms, ARITY)))
