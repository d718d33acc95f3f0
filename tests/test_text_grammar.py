"""The text grammar of polynomials, rational functions and K-classes.

One table of texts and what each parser makes of them: the canonical text of
the value it returns, or the exception it raises.  Rejected texts raise
ValueError (ZeroDivisionError for a zero denominator); the message is not
pinned.  The table covers spacing, signed zeros, rational coefficients,
negative and signed exponents, variable ranges, repeated numeric factors,
dangling signs, and repeated or cancelling terms.
"""

import pytest

from stablepairs.equivariant import kclass_parse, kclass_str
from stablepairs.ratfun import poly_parse, poly_str, ratfun_parse, ratfun_str

PARSERS = {
    "poly": lambda text, arity: poly_str(poly_parse(text, arity)),
    "ratfun": lambda text, arity: ratfun_str(ratfun_parse(text, arity)),
    "kclass": lambda text, arity: kclass_str(kclass_parse(text)),
}

# (parser, text, arity, canonical text of the result or the exception's name)
CASES = [
    ("poly", "0", 4, "0"),
    ("poly", "-0", 4, "0"),
    ("poly", "+0", 4, "0"),
    ("poly", " - 0 ", 4, "0"),
    ("poly", "", 4, "0"),
    ("poly", "l0+l1", 4, "l0 + l1"),
    ("poly", "  l0 +   l1  ", 4, "l0 + l1"),
    ("poly", "l0  -  2 * l1", 4, "l0 - 2*l1"),
    ("poly", "+ l0", 4, "l0"),
    ("poly", "3/2*l0^2 - l1*l2 + 7", 4, "3/2*l0^2 - l1*l2 + 7"),
    ("poly", "1/2", 4, "1/2"),
    ("poly", "-1/2*l3", 4, "-1/2*l3"),
    ("poly", "6/4*l1", 4, "3/2*l1"),
    ("poly", "l0 + l0", 4, "2*l0"),
    ("poly", "l0 - l0", 4, "0"),
    ("poly", "l0*l0", 4, "l0^2"),
    ("poly", "l0^0", 4, "1"),
    ("poly", "2*l0 - l0 + 3 - 3", 4, "l0"),
    ("poly", "l3^-1", 4, "ValueError"),
    ("poly", "l0^-1", 4, "ValueError"),
    ("poly", "l0^+1", 4, "ValueError"),
    ("poly", "l0^ -1", 4, "ValueError"),
    ("poly", "2*l0^-1*l1", 4, "ValueError"),
    ("poly", "l4", 4, "ValueError"),
    ("poly", "l3", 4, "l3"),
    ("poly", "l1", 1, "ValueError"),
    ("poly", "l0*l1", 2, "l0*l1"),
    ("poly", "l2", 2, "ValueError"),
    ("poly", "t4", 4, "ValueError"),
    ("poly", "t0", 4, "ValueError"),
    ("poly", "2*3*l0", 4, "ValueError"),
    ("poly", "l0 +", 4, "ValueError"),
    ("poly", "+", 4, "ValueError"),
    ("poly", "l0 + - l1", 4, "ValueError"),
    ("poly", "--l0", 4, "ValueError"),
    ("poly", "l0*", 4, "ValueError"),
    ("poly", "*l0", 4, "ValueError"),
    ("poly", "l0^", 4, "ValueError"),
    ("poly", "l0^2^3", 4, "ValueError"),
    ("poly", "1.5*l0", 4, "ValueError"),
    ("poly", "1/0", 4, "ZeroDivisionError"),
    ("poly", "2/l0", 4, "ValueError"),
    ("poly", "l0/2", 4, "ValueError"),
    ("poly", "l0l1", 4, "ValueError"),
    ("poly", "x", 4, "ValueError"),
    ("ratfun", "0", 4, "0"),
    ("ratfun", "(0)", 4, "0"),
    ("ratfun", "(-0)", 4, "0"),
    ("ratfun", "(l0)", 4, "(l0)"),
    ("ratfun", "l0", 4, "(l0)"),
    ("ratfun", "(l0)/(l1)", 4, "(l0)/(l1)"),
    ("ratfun", "( 1/6 ) / ( l3^3 )", 4, "(1/6)/(l3^3)"),
    ("ratfun", "(2*l0)/(4*l1)", 4, "(1/2*l0)/(l1)"),
    ("ratfun", "(l0^2 - l1^2)/(l0 - l1)", 4, "(l0 + l1)"),
    ("ratfun", "(l0 - l0)/(l1)", 4, "0"),
    ("ratfun", "(1/2*l0)/(3)", 4, "(1/6*l0)"),
    ("ratfun", "(l0)/(0)", 4, "ZeroDivisionError"),
    ("ratfun", "(l0^-1)", 4, "ValueError"),
    ("ratfun", "(l0^+1)", 4, "ValueError"),
    ("ratfun", "(l4)", 4, "ValueError"),
    ("ratfun", "(t0)", 4, "ValueError"),
    ("ratfun", "(l0 +)", 4, "ValueError"),
    ("ratfun", "(2*3*l0)", 4, "ValueError"),
    ("ratfun", "l0/l1", 4, "ValueError"),
    ("ratfun", "(l0)/l1", 4, "ValueError"),
    ("ratfun", "(l0)(l1)", 4, "ValueError"),
    ("ratfun", "(l0 + l1)/(l0 + l1)", 4, "(1)"),
    ("ratfun", "(l3^-1)/(l0)", 4, "ValueError"),
    ("kclass", "0", 4, "0"),
    ("kclass", "-0", 4, "0"),
    ("kclass", "+0", 4, "0"),
    ("kclass", " - 0 ", 4, "0"),
    ("kclass", "", 4, "0"),
    ("kclass", "t0", 4, "t0"),
    ("kclass", " t0 + t1 ", 4, "t0 + t1"),
    ("kclass", "2 - t3 - t3^-1", 4, "2 - t3 - t3^-1"),
    ("kclass", "t3^-1", 4, "t3^-1"),
    ("kclass", "t0^-2*t1^3", 4, "t0^-2*t1^3"),
    ("kclass", "t0^+1", 4, "ValueError"),
    ("kclass", "t0^ -1", 4, "t0^-1"),
    ("kclass", "t4", 4, "ValueError"),
    ("kclass", "t3", 4, "t3"),
    ("kclass", "l0", 4, "ValueError"),
    ("kclass", "1/2*t0", 4, "ValueError"),
    ("kclass", "2*3*t0", 4, "ValueError"),
    ("kclass", "t0 +", 4, "ValueError"),
    ("kclass", "+", 4, "ValueError"),
    ("kclass", "t0 + t0", 4, "2*t0"),
    ("kclass", "t0 - t0", 4, "0"),
    ("kclass", "t0*t0^-1", 4, "1"),
    ("kclass", "3*t1*t2^2", 4, "3*t1*t2^2"),
    ("kclass", "- t0", 4, "-t0"),
    ("kclass", "--t0", 4, "ValueError"),
    ("kclass", "t0*", 4, "ValueError"),
    ("kclass", "*t0", 4, "ValueError"),
    ("kclass", "t0^", 4, "ValueError"),
    ("kclass", "t0^2^3", 4, "ValueError"),
    ("kclass", "2*t0 - t0 + 1 - 1", 4, "t0"),
    ("kclass", "t0^0", 4, "1"),
    ("kclass", "1.5*t0", 4, "ValueError"),
]

ERRORS = {"ValueError": ValueError, "ZeroDivisionError": ZeroDivisionError}


@pytest.mark.parametrize("parser, text, arity, expected", CASES)
def test_parser_on_text(parser, text, arity, expected):
    parse = PARSERS[parser]
    if expected in ERRORS:
        with pytest.raises(ERRORS[expected]):
            parse(text, arity)
    else:
        assert parse(text, arity) == expected
