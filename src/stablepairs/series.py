"""Wall-crossing for stable-pair generating series over an effective-class lattice.

Inputs are tables of genus-zero and genus-one invariants indexed by effective
curve classes beta (tuples of nonnegative integers) with a positive degree
vector omega.  The pair count P^t(n, beta) in the chamber labelled by the
stability parameter t is the coefficient formula

    P^t(n, beta) = sum over beta_0 + beta_1 + ... + beta_n = beta,
                   with omega . beta_i > 1/t for i >= 1,
                   of P(0, beta_0) * prod_i n_0(beta_i)        (ordered tuples)

and the associated generating series is a degree-zero part times one
exponential:

    PT^t = (sum_beta P(0,beta) q^beta) * exp(y sum_{active beta} n_0(beta) q^beta).

The wall factor at t0 is the same exponential over the classes on the wall,
a synthesized degree-zero part is the exponential of its log series, and
MacMahon's M(q) = exp(sum_j logM_j q^j) is its rank-1 case; all four run one
recurrence (_exp) graded by the weight n + deg(beta) of y^n q^beta.  All is
truncated exactly (y-degree at most nmax, class degree at most dmax,
coefficients Fractions); the truncation is an ideal, so exp(a + b) =
exp(a) exp(b) holds coefficient by coefficient.

Every value passed in or out is a Fraction, but a series is held as its
int form alone, (scale, {(n, position of beta): int}), and the four hot
loops run on ints over common denominators, building a Fraction only for a
value that leaves them (a series coefficient is built when it is read): the
recursion over D = lcm of the n0 denominators and E = lcm of the P(0, beta)
denominators (D^n E P^t(n, beta) is an int); the products and the
exponential on int forms, adding classes through the lattice's addition
table, which holds one entry per pair of classes whose degrees sum to at
most dmax, the same pairs a full product visits; a product over the two
operands' scales; _exp over L_w, the lcm of the denominators on weight
level w (one gcd over the level's ints), times the series' scale; and a
wall check, whose series identity is the series' == (the same keys, and
the ints equal once cross-multiplied by the scales) and whose jump formula
runs over D^n E K_W, K_W the lcm of the wall series' denominators.  A
series truncated at nmax < 0 is refused.  The recursion has one
form: a table of every D^n E P^t(n, beta) of a chamber, filled level by
level in n as far as asked, which reads beta - gamma off the addition
table, as the wall check's jump formula does.  pt_coeff_from_gv keeps it
in its caller's memo, and a wall check keeps the two chambers of its wall,
series and table, on the GVTable, so a sweep over the walls builds each
chamber once; a GVTable is immutable once used.  Every multiple-cover sum
(the genus-zero and genus-one Gromov-Witten forms and the log series of a
synthesized degree-zero part) is one sum over the divisors k of a class,
weighted by 1/k^2, sigma(k)/k, 1/k or logM_k.
Wall checks, wall predicates and the Gromov-Witten conversions live here too.

A class is a tuple of rank ints >= 0 (a bool or a float is no int here), and
every builder and every read that takes one passes it through one gate,
ClassLattice._position: any other key raises ValueError.  A class above
dmax is kept by the tables and dropped by TruncatedSeries; coefficient reads
0 there (the series is truncated), pt_coeff_from_gv and a synthesized
p0_value raise ValueError (the value is not computed), and an explicit
p0_value, js_from_gv and the wall predicates compute it.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from fractions import Fraction

from ._record import FrozenRecord, Record

__all__ = [
    "Beta",
    "ClassLattice",
    "GVTable",
    "NMinTable",
    "TParam",
    "WallError",
    "TruncatedSeries",
    "macmahon",
    "log_macmahon",
    "pt_coeff_from_gv",
    "pt_series_from_gv",
    "wall_factor_series",
    "wall_classes",
    "wall_jump_check",
    "js_from_gv",
    "no_wall_predicate",
    "wall_candidates",
    "gv0_from_gw",
    "gw0_from_gv0",
    "gw1_assemble",
    "gv1_extract",
    "frac_str",
    "parse_frac",
]

Beta = tuple  # tuple of nonnegative ints

# P(0, beta) for classes without an entry, shared: a Fraction is immutable
_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


class WallError(ValueError):
    """The stability parameter sits exactly on a wall and no side was chosen."""


def _int_str(n):
    """Decimal text of an int of any size.  str() refuses ints of more than
    4,300 digits on current Pythons, so a long one is split in halves by a
    power of ten."""
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= 4096:  # at most 1,234 digits
        return str(n)
    digits = n.bit_length() * 3 // 20  # about half of its digits
    high, low = divmod(n, 10**digits)
    return _int_str(high) + _int_str(low).zfill(digits)


def frac_str(x):
    """``str(Fraction(x))`` at any size."""
    x = Fraction(x)
    return _ratio_str(x.numerator, x.denominator)


def _ratio_str(num, den):
    """frac_str(Fraction(num, den)) for ints num and den > 0, without the
    Fraction."""
    common = math.gcd(num, den)
    text = _int_str(num // common)
    return text if den == common else f"{text}/{_int_str(den // common)}"


def _decode_json(text, where):
    """The JSON value of ``text``; nesting too deep for the decoder is a
    ValueError that names ``where`` the text came from."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{where} nests JSON too deeply") from None


def parse_frac(text):
    """An exact rational from an integer, ``p/q`` or plain decimal; ValueError
    otherwise.  Exponent notation is refused: ``Fraction`` would build a
    number such as 1e999999999 digit by digit."""
    text = str(text)
    if "e" in text.lower():
        raise ValueError(f"{text!r} uses exponent notation; write an integer, p/q or a decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _beta_key(beta):
    return json.dumps(list(beta), separators=(",", ":"))


def _bad_class_key(key, rank):
    return ValueError(f"bad class key {key!r}: expected a list of {rank} nonnegative integers")


def _is_class(beta, rank):
    """Whether beta holds rank ints >= 0 (a bool or a float is no int here)."""
    return len(beta) == rank and all(type(b) is int and b >= 0 for b in beta)


def _check_class_keys(rank, *tables, meeting=None):
    """Raise _bad_class_key at a key, or meeting-key class, not of rank ints >= 0."""
    for beta in itertools.chain(*tables, *(meeting or ())):
        if not _is_class(beta, rank):
            raise _bad_class_key(beta, rank)


def _parse_beta(key, rank):
    """A class key: a JSON list of ``rank`` nonnegative integers."""
    values = _decode_json(key, "a class key")
    if not isinstance(values, list) or not _is_class(values, rank):
        raise _bad_class_key(key, rank)
    return tuple(values)


def _parse_value(name, key, text):
    try:
        return parse_frac(text)
    except ValueError as exc:
        raise ValueError(f"{name} value for key {key!r}: {exc}") from None


def _parse_class_table(name, raw, rank):
    """{class: Fraction} from the JSON table ``name``.  Only p0 may hold the
    zero class; nmin values must be integers."""
    table = {}
    for key, text in raw.items():
        beta = _parse_beta(key, rank)
        value = _parse_value(name, key, text)
        if not any(beta) and name != "p0":
            raise ValueError(f"{name} key {key!r} is the zero class")
        if name == "nmin" and value.denominator != 1:
            raise ValueError(f"nmin value {text!r} for class key {key!r} is not an integer")
        table[beta] = value
    return table


def _parse_meeting(raw, rank):
    """{(class, class): Fraction} from the JSON table of "left|right" keys."""
    meeting = {}
    for key, text in raw.items():
        left, _, right = key.partition("|")
        if not right:
            raise ValueError(f"bad meeting key {key!r}")
        pair = (_parse_beta(left, rank), _parse_beta(right, rank))
        if not all(map(any, pair)):
            raise ValueError(f"meeting key {key!r} holds the zero class")
        meeting[pair] = _parse_value("meeting", key, text)
    return meeting


def _read_class_tables(data, names):
    """rank, omega and {name: table} for the class tables ``names`` and
    ``meeting`` of a JSON object; an absent or null table reads as None.
    rank and the entries of omega must be JSON integers, not floats,
    booleans or strings."""
    rank, omega = data["rank"], data["omega"]
    if type(rank) is not int:
        raise ValueError(f"rank must be a JSON integer, got {rank!r}")
    if not isinstance(omega, list) or not all(type(w) is int for w in omega):
        raise ValueError(f"omega must be a JSON list of integers, got {omega!r}")
    omega = tuple(omega)
    tables = {}
    for name in (*names, "meeting"):
        raw = data.get(name)
        if raw is None:
            tables[name] = None
        elif not isinstance(raw, dict):
            raise ValueError(f"table {name} must be a JSON object")
        elif name == "meeting":
            tables[name] = _parse_meeting(raw, rank)
        else:
            tables[name] = _parse_class_table(name, raw, rank)
    return rank, omega, tables


def _bounded_lattice(rank, omega, dmax, classes):
    """The lattice up to degree ``dmax`` or, when that is None, up to the
    largest degree among ``classes``."""
    if dmax is None:
        dmax = max((sum(w * b for w, b in zip(omega, beta)) for beta in classes), default=0)
    return ClassLattice(rank, omega, dmax)


class ClassLattice(FrozenRecord):
    """Effective classes: tuples in Z^rank with degree omega . beta <= dmax.

    rank, dmax and the entries of omega must be ints (ValueError otherwise;
    a bool is refused).  The classes are listed once, when the lattice is
    built, sorted by degree and kept outside equality as the map _positions
    of each class to its position among them.  _position is the one gate
    of a class read: a key that is no class of the rank raises ValueError.
    The series kernels key classes by position and add them through _sums,
    the addition table built on first use by _sum_table: row i holds the
    positions of beta_i + beta_j for the j with deg beta_i + deg beta_j <=
    dmax, a prefix of the classes because positions ascend in degree.  So
    it holds one entry per pair of classes whose degrees sum to at most
    dmax, the same pairs a full product visits."""

    _fields = ("rank", "omega", "dmax")

    def __init__(self, rank: int, omega: tuple, dmax: int):
        omega = tuple(omega)
        if not all(type(x) is int for x in (rank, dmax, *omega)):
            raise ValueError(f"rank, the entries of omega and dmax must be ints, "
                             f"got {rank!r}, {omega!r} and {dmax!r}")
        if len(omega) != rank:
            raise ValueError("omega length must equal the rank")
        if any(w <= 0 for w in omega):
            raise ValueError("degree vector omega must be strictly positive")
        if dmax < 0:
            raise ValueError("dmax must be nonnegative")
        self.__dict__.update(rank=rank, omega=omega, dmax=dmax, _sums=None)
        box = itertools.product(*(range(dmax // w + 1) for w in omega))
        classes = sorted((b for b in box if self.deg(b) <= dmax), key=lambda b: (self.deg(b), b))
        self.__dict__["_positions"] = {b: i for i, b in enumerate(classes)}

    def deg(self, beta):
        return sum(map(operator.mul, self.omega, beta))

    def zero(self):
        return (0,) * self.rank

    def classes(self):
        """All effective classes of degree <= dmax (zero included), sorted by
        (degree, tuple); a new list on each call."""
        return list(self._positions)

    def _position(self, beta):
        """The position of the class beta among classes(), None above dmax;
        _not_a_class's ValueError unless beta holds rank ints >= 0."""
        beta = tuple(beta)
        if not _is_class(beta, self.rank):
            raise _not_a_class(beta, self)
        return self._positions.get(beta)

    def _sum_table(self):
        """_sums, the positions of the sums of classes (see the class)."""
        if self._sums is None:
            classes = self.classes()
            degrees = [self.deg(b) for b in classes]
            position = self._positions
            object.__setattr__(self, "_sums", [
                [position[_add(beta, gamma)]
                 for gamma in classes[:bisect.bisect_right(degrees, self.dmax - d)]]
                for beta, d in zip(classes, degrees)
            ])
        return self._sums

    def positive_classes(self):
        return [b for b in self.classes() if any(b)]

    def sub_classes(self, beta):
        """Classes 0 < beta' < beta (componentwise, both ends strict); a key
        that is no class raises ValueError, a class above dmax is taken."""
        self._position(beta)
        beta = tuple(beta)
        box = itertools.product(*(range(b + 1) for b in beta))
        return sorted(
            (b for b in box if any(b) and b != beta), key=lambda b: (self.deg(b), b)
        )


def _rest(beta, gamma):
    """beta - gamma, or None when that is not an effective class."""
    rest = tuple(map(operator.sub, beta, gamma))
    return rest if min(rest, default=0) >= 0 else None


def _not_a_class(beta, lattice):
    """The ValueError for a key that is no class of the lattice, or a class
    above its top degree where a value is not computed."""
    return ValueError(f"{beta} is not a class of the lattice of rank {lattice.rank} "
                      f"and degree at most {lattice.dmax}")


def _add(beta, gamma):
    return tuple(map(operator.add, beta, gamma))


def _common_den(values):
    """The lcm of the denominators of the Fractions ``values`` (1 for none)."""
    return math.lcm(*(v.denominator for v in values))


def _over(c, den):
    """den * c, an int, for a Fraction c whose denominator divides den."""
    return c.numerator * (den // c.denominator)


def _cover_sum(beta, table, weight):
    """sum over k >= 1 with beta/k a class of ``table`` of
    weight(k) * table[beta/k]: the multiple-cover sum of ``table`` at beta."""
    total = Fraction(0)
    g = math.gcd(*beta)
    for k in range(1, g + 1):
        if g % k == 0:
            base = tuple(b // k for b in beta)
            if base in table:
                total += weight(k) * table[base]
    return total


def _refuse_degree_zero(name, table, lattice):
    """A class of degree zero has no finite list of multiple covers."""
    if any(lattice.deg(beta) == 0 for beta in table):
        raise ValueError(f"{name} table contains the zero class")


# -- invariant tables -------------------------------------------------------------


class GVTable(Record):
    """Genus-zero/one invariant tables over a class lattice.

    n0, n1 map positive classes to rational invariants; p0 optionally fixes
    the degree-zero pair counts P(0, beta) directly (with P(0, 0) = 1 unless
    overridden).  When p0 is absent it is synthesized from n1 through the
    MacMahon product  sum_beta P(0,beta) q^beta = prod_beta M(q^beta)^{n1(beta)}.
    meeting and nmin are auxiliary tables for the genus-one assembly and the
    wall predicates.

    A table is treated as immutable once used: the scale D (the lcm of the
    n0 denominators), the degree-zero form (E, [E P(0, beta_i)] by class
    position, E the lcm of the P(0, beta) denominators, explicit or
    synthesized: level 0 of every pair-count table and the degree-zero
    factor of every chamber series) and the stored classes heaviest first
    with their degree and D n0 (a chamber admits a prefix of them, and its
    pair-count table reads beta - gamma for them off the lattice's addition
    table) are built on first use and kept.  So is the chamber store of
    wall_jump_check: the series and pair-count table of the last check's
    two chambers, keyed by nmax and the number of stored classes the
    chamber admits.  None of them takes part in equality; p0_value builds a
    Fraction from the degree-zero form when it is read.

    A class key of n0, n1, p0 or nmin, and either class of a meeting key,
    must have rank entries, each an int >= 0 (ValueError otherwise; a bool
    or a float is refused); classes above dmax are kept and the series drop
    them.  _by_degree takes each stored class's position once, through the
    lattice's gate.
    """

    _fields = ("lattice", "n0", "n1", "p0", "meeting", "nmin")

    def __init__(self, lattice: ClassLattice, n0: dict = None, n1: dict = None,
                 p0: dict = None, meeting: dict = None, nmin: dict = None):
        self.lattice = lattice
        self.n0 = {tuple(b): Fraction(v) for b, v in (n0 or {}).items() if Fraction(v)}
        self.n1 = {tuple(b): Fraction(v) for b, v in (n1 or {}).items() if Fraction(v)}
        self.p0 = None if p0 is None else {tuple(b): Fraction(v) for b, v in p0.items()}
        self.meeting = None if meeting is None else {
            (tuple(b1), tuple(b2)): Fraction(v) for (b1, b2), v in meeting.items()
        }
        self.nmin = None if nmin is None else {tuple(b): int(v) for b, v in nmin.items()}
        _check_class_keys(lattice.rank, self.n0, self.n1, self.p0 or (), self.nmin or (),
                          meeting=self.meeting)
        self._n0_scale = self._degree_zero = self._heaviest = None
        self._chambers = {}

    # -- degree-zero pair counts ----------------------------------------------

    def p0_value(self, beta):
        """P(0, beta).  A key that is no class raises ValueError, and so does
        a class above dmax when p0 is synthesized: it is not computed there.
        An explicit p0 is read at any class."""
        beta = tuple(beta)
        i = self.lattice._position(beta)
        if self.p0 is not None:
            return self.p0.get(beta, _FRACTION_ZERO if any(beta) else _FRACTION_ONE)
        if i is None:
            raise _not_a_class(beta, self.lattice)
        scale, ints = self._p0_form()
        return Fraction(ints[i], scale)

    def _p0_form(self):
        """_degree_zero, (E, [E P(0, beta_i)] over the lattice's classes by
        position), ints, E the lcm of the P(0, beta) denominators: the int
        form of the series sum_beta P(0, beta) q^beta at nmax 0.  An
        explicit p0 has P(0, 0) = 1 unless it says otherwise; a synthesized
        one is the exponential of the log series
        sum_beta n1(beta) sum_k logM_k q^(k beta)."""
        if self._degree_zero is None:
            lat = self.lattice
            if self.p0 is None:
                _refuse_degree_zero("n1", self.n1, lat)
                logm = log_macmahon(lat.dmax).__getitem__
                log_series = {(0, b): _cover_sum(b, self.n1, logm) for b in lat.positive_classes()}
                series = _exp(TruncatedSeries(lat, 0, log_series))
            else:
                p0 = {(0, lat.zero()): 1, **{(0, b): v for b, v in self.p0.items()}}
                series = TruncatedSeries(lat, 0, p0)
            scale, ints = series._ints
            self._degree_zero = scale, [ints.get((0, i), 0) for i in range(len(lat.classes()))]
        return self._degree_zero

    def _n0_den(self):
        """D, the lcm of the n0 denominators."""
        if self._n0_scale is None:
            self._n0_scale = _common_den(self.n0.values())
        return self._n0_scale

    def _by_degree(self):
        """_heaviest, [(deg gamma, D n0(gamma), gamma, i)] over the stored
        classes gamma, heaviest first, D n0(gamma) an int and i the position
        of gamma, None above dmax: the stored classes are sorted, and their
        degrees and positions computed, once per table."""
        if self._heaviest is None:
            _refuse_degree_zero("n0", self.n0, self.lattice)
            lattice, scale = self.lattice, self._n0_den()
            self._heaviest = sorted(
                ((lattice.deg(gamma), _over(mult, scale), gamma, lattice._position(gamma))
                 for gamma, mult in self.n0.items()),
                key=lambda entry: -entry[0])
        return self._heaviest

    # -- JSON ----------------------------------------------------------------------

    @classmethod
    def from_json(cls, data, dmax=None):
        """The table of a JSON object; without ``dmax`` the lattice reaches
        the largest degree among the class keys (meeting pairs not counted)."""
        names = ("n0", "n1", "p0", "nmin")
        rank, omega, tables = _read_class_tables(data, names)
        classes = [beta for name in names for beta in tables[name] or ()]
        return cls(
            _bounded_lattice(rank, omega, dmax, classes),
            n0=tables["n0"],
            n1=tables["n1"],
            p0=tables["p0"],
            meeting=tables["meeting"],
            nmin=tables["nmin"],
        )

    def to_json(self):
        data = {
            "rank": self.lattice.rank,
            "omega": list(self.lattice.omega),
            "n0": {_beta_key(b): frac_str(v) for b, v in sorted(self.n0.items())},
            "n1": {_beta_key(b): frac_str(v) for b, v in sorted(self.n1.items())},
        }
        if self.p0 is not None:
            data["p0"] = {_beta_key(b): frac_str(v) for b, v in sorted(self.p0.items())}
        if self.meeting is not None:
            data["meeting"] = {
                f"{_beta_key(b1)}|{_beta_key(b2)}": frac_str(v)
                for (b1, b2), v in sorted(self.meeting.items())
            }
        if self.nmin is not None:
            data["nmin"] = {_beta_key(b): str(v) for b, v in sorted(self.nmin.items())}
        return data


class NMinTable:
    """Minimal Euler characteristics n(beta') for the wall predicates."""

    def __init__(self, values):
        self.values = {tuple(b): int(v) for b, v in values.items()}

    def __call__(self, beta):
        beta = tuple(beta)
        if beta not in self.values:
            raise KeyError(f"nmin table has no entry for class {list(beta)}")
        return self.values[beta]


# -- stability parameter -----------------------------------------------------------


class TParam(FrozenRecord):
    """Stability parameter: a positive rational with a side, or a limit.

    kind 'finite' carries value t and side +1/0/-1 (just above t, exactly t,
    just below t); 'zero_plus' is the t -> 0+ limit (no class is active);
    'infinity' is the large-volume limit (every class is active).
    """

    _fields = ("kind", "value", "side")

    def __init__(self, kind: str, value: Fraction = None, side: int = 0):
        if kind not in ("finite", "zero_plus", "infinity"):
            raise ValueError(f"unknown stability parameter kind {kind!r}")
        if side not in (-1, 0, 1):
            raise ValueError(f"side must be -1, 0 or +1, got {side!r}")
        self.__dict__.update(kind=kind, value=value, side=side)
        if kind == "finite":  # 1/t, outside the fields; an int when it is one
            if value is None or value <= 0:
                raise ValueError(f"stability parameter must be positive, got {value}")
            threshold = 1 / value
            if threshold == int(threshold):
                threshold = int(threshold)
            object.__setattr__(self, "_threshold", threshold)

    @classmethod
    def exact(cls, t):
        return cls("finite", Fraction(t), 0)

    @classmethod
    def plus(cls, t):
        return cls("finite", Fraction(t), +1)

    @classmethod
    def minus(cls, t):
        return cls("finite", Fraction(t), -1)

    @classmethod
    def zero_plus(cls):
        return cls("zero_plus")

    @classmethod
    def infinity(cls):
        return cls("infinity")

    def admits(self, deg):
        """Whether a stored class of the given positive degree is active:
        deg > 1/t, resolved to the chosen side on the wall itself.

        Raises WallError for an exact parameter sitting on the wall of this
        degree, i.e. deg == 1/t.  The classes a chamber admits are those of
        degree above 1/t (and at 1/t on the plus side), so, over classes
        listed heaviest first, they are a prefix that ends at the first
        degree not admitted.
        """
        if deg < 1:
            raise ValueError("class degree must be positive")
        if self.kind == "zero_plus":
            return False
        if self.kind == "infinity":
            return True
        threshold = self._threshold
        if deg == threshold:
            if self.side > 0:
                return True
            if self.side < 0:
                return False
            raise WallError(
                f"t = {self.value} lies on the wall of a stored degree-{deg} class; "
                "choose a side"
            )
        return deg > threshold

    def label(self):
        if self.kind == "finite":
            side = {1: "+", 0: "", -1: "-"}[self.side]
            return f"{self.value}{side}"
        return {"zero_plus": "0+", "infinity": "inf"}[self.kind]


# -- truncated bigraded series ------------------------------------------------------


def _check_nmax(nmax):
    """A series is truncated at a y-degree nmax >= 0 (ValueError otherwise)."""
    if nmax < 0:
        raise ValueError(f"series truncation nmax must be nonnegative, got {nmax}")


class TruncatedSeries:
    """Series in y (order <= nmax) and q^beta (degree <= lattice.dmax), built
    from nonzero coefficients keyed by (n, beta).  Keys past the truncation
    are dropped, a class above dmax among them; a key that is no class of
    the lattice (ClassLattice._position), or nmax < 0, raises ValueError.

    A series is a value, not changed once built, held as its int form
    _ints alone: (scale, {(n, position of beta): int}), the nonzero
    coefficients as ints over one common scale, with which the series
    kernels work (_product, _exp_ints).  coeffs and coefficient build the
    Fractions when they are read, and == is the series identity: the same
    keys, and the ints equal once cross-multiplied by the scales."""

    __slots__ = ("lattice", "nmax", "_ints")

    def __init__(self, lattice, nmax, coeffs=None):
        _check_nmax(nmax)
        clean = {}
        for (n, beta), c in (coeffs or {}).items():
            i = lattice._position(beta)
            if (c := Fraction(c)) and 0 <= n <= nmax and i is not None:
                clean[(n, i)] = c
        scale = _common_den(clean.values())
        self.lattice, self.nmax = lattice, nmax
        self._ints = scale, {key: _over(c, scale) for key, c in clean.items()}

    @classmethod
    def _from_ints(cls, lattice, nmax, form):
        """Internal: the series of an int form with keys inside the
        truncation and nonzero ints."""
        out = cls.__new__(cls)
        out.lattice, out.nmax, out._ints = lattice, nmax, form
        return out

    @classmethod
    def one(cls, lattice, nmax):
        return cls(lattice, nmax, {(0, lattice.zero()): 1})

    @property
    def coeffs(self):
        """{(n, beta): nonzero Fraction}, a new dict on each read."""
        classes, (scale, ints) = self.lattice.classes(), self._ints
        return {(n, classes[i]): Fraction(c, scale) for (n, i), c in ints.items()}

    def coefficient(self, n, beta):
        """The coefficient of y^n q^beta, a Fraction: 0 for a key the series
        does not hold, a class above dmax among them (the series is truncated
        there); a key that is no class raises ValueError."""
        scale, ints = self._ints
        c = ints.get((n, self.lattice._position(beta)))
        return Fraction(c, scale) if c else _FRACTION_ZERO

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        (scale_a, a), (scale_b, b) = self._ints, other._ints
        return ((self.lattice, self.nmax) == (other.lattice, other.nmax) and a.keys() == b.keys()
                and all(c * scale_b == b[key] * scale_a for key, c in a.items()))

    def __add__(self, other):
        out = self.coeffs
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TruncatedSeries(self.lattice, self.nmax, out)

    def __mul__(self, other):
        """The product (see _product)."""
        form = _product(self.lattice, self.nmax, self._ints, other._ints)
        return TruncatedSeries._from_ints(self.lattice, self.nmax, form)


def _product(lattice, nmax, left, right):
    """The int form of the product of two int forms: the ints are summed
    over the product of the two scales, the sums of classes read off the
    lattice's addition table, whose row for beta_i stops at the classes
    beta_j that still fit."""
    sums = lattice._sum_table()
    (scale_a, a), (scale_b, b) = left, right
    b = sorted((i, n, c) for (n, i), c in b.items())  # ascending in degree
    out = {}
    for (n1, i1), c1 in a.items():
        row, room = sums[i1], nmax - n1
        fits = len(row)
        for i2, n2, c2 in b:
            if i2 >= fits:
                break
            if n2 <= room:
                key = (n1 + n2, row[i2])
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return scale_a * scale_b, {key: c for key, c in out.items() if c}


def _exp(series):
    """exp(series) for a series without a constant term (see _exp_ints)."""
    lattice, nmax = series.lattice, series.nmax
    return TruncatedSeries._from_ints(lattice, nmax, _exp_ints(lattice, nmax, series._ints))


def _exp_ints(lattice, nmax, form):
    """The int form of exp(S), S the series of the int form ``form``
    without a constant term.  The weight w(y^n q^beta) = n + deg(beta) is
    positive off it, and E = exp(S) satisfies
    w(m) E_m = sum_{m1 + m2 = m} w(m1) S_m1 E_m2 with m2 lighter than m; so,
    visited by increasing weight, each E_m is final before it is pushed into
    heavier levels.  Pushes past the truncation are dropped.

    The terms w(m1) S_m1 are ints over ds, the scale of ``form``.  Once
    level w is final, one gcd over its ints gives L_w, the common
    denominator of its E_m, and they are pushed as ints over L_w, so a
    heavier level holds one bucket of ints for each scale ds L_w pushed into
    it, and adds its buckets over the lcm of those scales.  The result is
    over the lcm of the L_w, the common denominator of exp(S).  nmax < 0
    raises ValueError."""
    _check_nmax(nmax)
    sums, classes = lattice._sum_table(), lattice.classes()
    ds, coeffs = form
    terms = sorted((i, n, n + lattice.deg(classes[i]), c)
                   for (n, i), c in coeffs.items() if n or i)  # position 0: the zero class
    # weight -> {scale: {m: int}}: w(m) E_m is the sum of int / scale over the buckets
    levels = {0: {1: {(0, 0): 1}}}
    found = []  # (L_w, {m: int}) by level
    while levels:
        weight = min(levels)
        buckets = levels.pop(weight)
        scale = math.lcm(*buckets)
        totals = {}
        for s, bucket in buckets.items():
            lift = scale // s
            for m, c in bucket.items():
                totals[m] = totals[m] + lift * c if m in totals else lift * c
        scale *= weight or 1
        common = math.gcd(scale, *totals.values())
        level = {m: c // common for m, c in totals.items() if c}
        if not level:
            continue
        den = scale // common
        found.append((den, level))
        pushes = [(n, sums[i], c) for (n, i), c in level.items()]
        fits = max(len(row) for _, row, _ in pushes)
        for i1, n1, w1, c1 in terms:
            if i1 >= fits:
                break
            wc = w1 * c1  # c weighted by w
            bucket = levels.setdefault(weight + w1, {}).setdefault(ds * den, {})
            for n, row, coeff in pushes:
                if n + n1 <= nmax and i1 < len(row):
                    key = (n + n1, row[i1])
                    bucket[key] = bucket[key] + wc * coeff if key in bucket else wc * coeff
    scale = math.lcm(*(den for den, _ in found))
    return scale, {m: c * (scale // den) for den, level in found for m, c in level.items()}


# -- MacMahon ---------------------------------------------------------------------


def log_macmahon(order):
    """Coefficients of log M(q) through the given order:
    log M = sum_k k * sum_m q^(km)/m, so coefficient j is sum_{k*m=j} k/m."""
    out = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        for m in range(1, order // k + 1):
            out[k * m] += Fraction(k, m)
    return out


def macmahon(order):
    """MacMahon series coefficients through the given order:
    M(q) = prod_k (1 - q^k)^(-k) = 1 + q + 3q^2 + 6q^3 + 13q^4 + ...,
    the rank-1 case of _exp: M = exp(sum_j logM_j q^j)."""
    lattice = ClassLattice(1, (1,), order)
    logm = {(0, (j,)): c for j, c in enumerate(log_macmahon(order))}
    series = _exp(TruncatedSeries(lattice, 0, logm))
    return [series.coefficient(0, (j,)) for j in range(order + 1)]


# -- pair counts --------------------------------------------------------------------


def pt_coeff_from_gv(t, n, beta, gv, memo=None):
    """P^t(n, beta) by the ordered-decomposition recursion.

    f(n, beta) = sum over stored classes gamma with n0 != 0, gamma <= beta,
    and t admitting deg(gamma), of n0(gamma) * f(n-1, beta - gamma);
    f(0, beta) = P(0, beta).  It is read from the pair-count table of t's
    chamber, which ``memo`` keeps under t beside the GVTable it was built
    from, filled only as far as the largest n asked: a sweep with one memo
    builds one table, and an entry built from another GVTable (compared
    with ``is``) is rebuilt.  An exact t reads the table of its minus side,
    and raises WallError for n >= 1 when a stored class on its wall fits in
    beta.  A key that is no class, or a class above dmax (no value is
    computed there), raises ValueError; 0 for n < 0.
    """
    beta = tuple(beta)
    i = gv.lattice._position(beta)
    if i is None:
        raise _not_a_class(beta, gv.lattice)
    if n < 0:
        return _FRACTION_ZERO
    memo = {} if memo is None else memo
    if t not in memo or memo[t][0] is not gv:
        if t.kind == "finite" and not t.side:
            memo[t] = (gv, wall_classes(t.value, gv), _pair_counts(TParam.minus(t.value), gv))
        else:
            memo[t] = (gv, (), _pair_counts(t, gv))
    _, wall, table = memo[t]
    for gamma in wall:
        if n and _rest(beta, gamma) is not None:
            t.admits(gv.lattice.deg(gamma))  # raises the WallError
    g = table[1]
    if n >= len(g) and n >= len(_fill(table, n)):  # above the top level: 0
        return _FRACTION_ZERO
    value = g[n][i]
    return Fraction(value, gv._n0_den() ** n * gv._p0_form()[0]) if value else _FRACTION_ZERO


def _pair_counts(t, gv):
    """The pair-count table of t's chamber, (prefixes, g, top), for t not
    exactly on a wall: g[n][i] = D^n E P^t(n, beta_i), ints, for beta_i the
    i-th class of the lattice.  g holds level 0, g[0][i] = E P(0, beta_i),
    and _fill appends the levels up to top = dmax // (the smallest stored
    class degree), above which every pair count of the lattice is 0.  Level
    n sums a_gamma g[n-1][j] over prefixes[i], the list [(a_gamma, j)] over
    the stored classes gamma <= beta_i that t admits, heaviest first, with
    a_gamma = D n0(gamma) and beta_j = beta_i - gamma: one _by_difference
    call reads them off the lattice's addition table."""
    lattice = gv.lattice
    prefixes = _by_difference(lattice, [(i, mult) for _, mult, _, i in _admitted(t, gv)
                                        if i is not None])
    return prefixes, [gv._p0_form()[1]], _top_n(gv, lattice.dmax)


def _fill(table, n):
    """The levels g of a _pair_counts table, grown in place through level
    min(n, top)."""
    prefixes, g, top = table
    while len(g) <= min(n, top):
        level = g[-1]
        g.append([sum([mult * level[j] for mult, j in prefix]) for prefix in prefixes])
    return g


def _top_n(gv, nmax):
    """min(nmax, dmax // the smallest stored class degree): P^t(n, beta) sums
    over n stored classes inside beta, so no class of the lattice has a
    nonzero pair count at a larger n (nor at n >= 1 when n0 is empty)."""
    heaviest = gv._by_degree()
    return min(nmax, gv.lattice.dmax // heaviest[-1][0]) if heaviest else 0


def pt_series_from_gv(t, gv, nmax):
    """The chamber generating series P0 * exp(y sum n0(beta) q^beta), the sum
    over the stored classes that t admits; it keeps its int form, over E
    times the scale of the exponential; nmax < 0 raises ValueError."""
    lattice = gv.lattice
    scale_e, p0 = gv._p0_form()
    exp = _exp_ints(lattice, nmax, _n0_form(gv, _admitted(t, gv)))
    form = _product(lattice, nmax, (scale_e, {(0, i): c for i, c in enumerate(p0) if c}), exp)
    return TruncatedSeries._from_ints(lattice, nmax, form)


def _n0_form(gv, entries):
    """The int form, over D, of y sum n0(beta) q^beta over the classes of
    the gv._by_degree() ``entries``, those above dmax dropped."""
    return gv._n0_den(), {(1, i): mult for _, mult, _, i in entries if i is not None}


def wall_factor_series(t0, gv, nmax):
    """exp(y sum n0(beta) q^beta) over the stored classes on the wall
    deg == 1/t0 (so t0 <= 0 raises ValueError, as nmax < 0 does)."""
    form = _exp_ints(gv.lattice, nmax, _n0_form(gv, _on_wall(t0, gv)))
    return TruncatedSeries._from_ints(gv.lattice, nmax, form)


def _on_wall(t0, gv):
    """The entries of gv._by_degree() of degree 1/t0; t0 <= 0 raises
    TParam's ValueError."""
    threshold = TParam.exact(t0)._threshold
    return [entry for entry in gv._by_degree() if entry[0] == threshold]


def wall_classes(t0, gv):
    """The stored classes of degree 1/t0, sorted; t0 <= 0 raises TParam's
    ValueError."""
    return sorted(gamma for _, _, gamma, _ in _on_wall(t0, gv))


def js_from_gv(n, beta, gv):
    """Equal-slope pair count: for n >= 1 the sum over ordered decompositions
    beta_1 + ... + beta_n = beta with deg(beta_i) = deg(beta)/n of the product
    of n0 values; n = 1 gives n0(beta); n = 0 gives P(0, beta) (see
    p0_value).  For n >= 1 a class above dmax is computed, and a key that is
    no class raises ValueError."""
    if n == 0:
        return gv.p0_value(beta)
    lattice = gv.lattice
    lattice._position(beta)
    slope = Fraction(lattice.deg(beta), n)
    # the ordered-decomposition recursion over the classes of that slope
    # alone, with P(0, beta) = 1 on the zero class and 0 elsewhere, on the
    # lattice up to deg(beta): it holds every class of the rank inside beta
    on_slope = {gamma: v for gamma, v in gv.n0.items() if lattice.deg(gamma) == slope}
    capped = ClassLattice(lattice.rank, lattice.omega, lattice.deg(beta))
    return pt_coeff_from_gv(TParam.infinity(), n, beta, GVTable(capped, on_slope, p0={}))


# -- wall-crossing checks --------------------------------------------------------------


def _admitted(t, gv):
    """The entries of gv._by_degree() whose classes t admits: a prefix of
    them, which ends at the first degree t does not admit (WallError for an
    exact t on the wall of a stored degree)."""
    heaviest = gv._by_degree()
    for count, (deg, *_) in enumerate(heaviest):
        if not t.admits(deg):
            return heaviest[:count]
    return heaviest


def _chambers(gv, nmax, sides):
    """[(chamber series, pair counts g)] for the parameters ``sides``, from
    the table's store, g filled through _top_n(gv, nmax).  An entry is keyed
    by nmax and the number of stored classes the chamber admits (a prefix of
    them, heaviest first, so the count names the chamber), and adjacent
    walls share the chamber between them; a missing one is built, and
    afterwards the store keeps only the entries of ``sides``."""
    store = gv._chambers
    keys = [(nmax, len(_admitted(t, gv))) for t in sides]
    for t, key in zip(sides, keys):
        if key not in store:
            store[key] = (pt_series_from_gv(t, gv, nmax), _pair_counts(t, gv))
    for key in set(store).difference(keys):
        del store[key]
    top = _top_n(gv, nmax)
    return [(store[key][0], _fill(store[key][1], top)) for key in keys]


def wall_jump_check(t0, gv, nmax):
    """Check the wall-crossing identities across t0 on every coefficient.

    Verifies (a) the series identity PT^(t0+) = wall_factor * PT^(t0-);
    (b) the finite jump formula

        P^+(n,b) - P^-(n,b) = sum_{k=1..n} n!/(n-k)! *
                              sum_{b''} W(k, b'') * P^-(n-k, b-b'')

    on every (n, beta) in bounds; and (c) at every detected simple wall the
    moduli-space form  jump = n * sum_{wall b''} P^-(n-1, b-b'') * n0(b'').
    A wall is simple at (n, beta) when exactly one k = 1 term is nonzero and
    every k >= 2 term vanishes.

    All three run on ints.  The series identity is the == of PT^+ and the
    series of the int form W M, the product of the wall factor's and
    PT^-'s int forms (no series is multiplied): the same keys, and the ints
    equal once cross-multiplied by the scales.  The rows are compared over
    D^n E K_W, with K_W the common denominator of the wall series and
    D n0(b'') read off the table's stored entries.  The two chambers, each its
    series and its table of D^n E P^t(n, beta), come from the table's
    chamber store, which keeps this call's two afterwards: a sweep over the
    walls in ascending or descending order builds each chamber once.  So
    the table must not change once used.
    """
    t0 = Fraction(t0)
    lattice = gv.lattice
    plus, minus = TParam.plus(t0), TParam.minus(t0)
    on_wall = _on_wall(t0, gv)
    scale_w, wall = _exp_ints(lattice, nmax, _n0_form(gv, on_wall))
    (series_plus, g_plus), (series_minus, g_minus) = _chambers(gv, nmax, (plus, minus))
    series_ok = series_plus == TruncatedSeries._from_ints(
        lattice, nmax, _product(lattice, nmax, (scale_w, wall), series_minus._ints))
    # over D^n E K_W, W(k, b'') P^-(n-k, .) is D^k (K_W W(k, b'')) g^-(n-k, .)
    # and n0(b'') P^-(n-1, .) is (K_W D n0(b'')) g^-(n-1, .)
    scale_d, scale_e = gv._n0_den(), gv._p0_form()[0]
    terms_at = _by_difference(lattice, [(i2, k, w * scale_d**k)
                                        for (k, i2), w in wall.items() if k])
    wall_at = _by_difference(lattice, [(i, mult * scale_w) for _, mult, _, i in on_wall
                                       if i is not None])

    rows = []
    all_ok = series_ok
    dens = [scale_d**n * scale_e * scale_w for n in range(_top_n(gv, nmax) + 1)]
    for i, beta in enumerate(lattice.classes()):
        for n, den in enumerate(dens):
            jump = scale_w * (g_plus[n][i] - g_minus[n][i])
            id_wcf = 0
            active_k1 = 0
            higher_terms_vanish = True
            for k, w, j in terms_at[i]:
                sub = k <= n and g_minus[n - k][j]
                if sub:
                    id_wcf += math.perm(n, k) * w * sub
                    if k == 1:
                        active_k1 += 1
                    else:
                        higher_terms_vanish = False
            mspace = 0
            for mult, j in wall_at[i]:
                sub = n and g_minus[n - 1][j]
                if sub:
                    mspace += n * mult * sub
            simple = active_k1 == 1 and higher_terms_vanish
            row_ok = jump == id_wcf and (not simple or jump == mspace)
            all_ok = all_ok and row_ok
            if jump or id_wcf or mspace or simple:
                text = _ratio_str(jump, den)
                rows.append(
                    {
                        "n": n,
                        "beta": list(beta),
                        "jump": text,
                        "id_wcf": text if id_wcf == jump else _ratio_str(id_wcf, den),
                        "mspace": text if mspace == jump else _ratio_str(mspace, den),
                        "simple_wall": simple,
                        "ok": row_ok,
                    }
                )
    return {
        "t0": frac_str(t0),
        "wall_classes": sorted(list(gamma) for _, _, gamma, _ in on_wall),
        "series_identity_ok": series_ok,
        "coefficients": rows,
        "ok": all_ok,
    }


def _by_difference(lattice, entries):
    """For each class beta_i, [(*entry, j)] over the ``entries``
    (p, *entry) with beta_i - beta_p the class beta_j: one call's
    differences, read off the rows p of the lattice's addition table."""
    sums = lattice._sum_table()
    out = [[] for _ in sums]
    for p, *entry in entries:
        for j, i in enumerate(sums[p]):
            out[i].append((*entry, j))
    return out


def _slope(n, beta, lattice):
    """n/deg(beta); a key that is no class, or the zero class, raises
    ValueError (a class above dmax is taken)."""
    lattice._position(beta)
    if lattice.deg(beta) <= 0:
        raise ValueError(f"wall predicates need a class of positive degree, got {beta}")
    return Fraction(n, lattice.deg(beta))


def no_wall_predicate(beta, n, nmin, lattice):
    """True when no wall can separate (n, beta): for every intermediate class
    0 < beta' < beta,  n/deg(beta) <= nmin(beta')/deg(beta').  A key that is
    no class, or the zero class, raises ValueError; a class above dmax is
    taken."""
    beta = tuple(beta)
    slope = _slope(n, beta, lattice)
    for sub in lattice.sub_classes(beta):
        if slope > Fraction(nmin(sub), lattice.deg(sub)):
            return False
    return True


def wall_candidates(beta, n, nmin, lattice):
    """All candidate wall locations above the slope of (n, beta): values
    n''/deg(beta'') in (n/deg(beta), infinity) with 0 < beta'' < beta and
    nmin(beta'') <= n'' <= n - nmin(beta - beta'').  A key that is no class,
    or the zero class, raises ValueError; a class above dmax is taken."""
    beta = tuple(beta)
    slope = _slope(n, beta, lattice)
    found = set()
    for sub in lattice.sub_classes(beta):
        low = nmin(sub)
        high = n - nmin(_rest(beta, sub))
        d = lattice.deg(sub)
        for n2 in range(low, high + 1):
            value = Fraction(n2, d)
            if value > slope:
                found.add(value)
    return sorted(found)


# -- Gromov-Witten conversions -----------------------------------------------------------


def gw0_from_gv0(n0, lattice):
    """Genus-zero multiple-cover sum: GW(0, beta) = sum_{k | beta} n0(beta/k) / k^2."""
    _check_class_keys(lattice.rank, n0)
    out = {beta: _cover_sum(beta, n0, _inverse_square) for beta in lattice.positive_classes()}
    return {beta: v for beta, v in out.items() if v}


def _inverted(target, weight, lattice):
    """The table t with target(beta) = sum_{k | beta} weight(k) t(beta/k)
    and weight(1) = 1, solved in increasing degree, zeros dropped: t(beta)
    is target(beta) less the cover sum of the t found so far, which holds
    no entry at beta yet."""
    t = {}
    for beta in lattice.positive_classes():
        value = Fraction(target.get(beta, 0)) - _cover_sum(beta, t, weight)
        if value:
            t[beta] = value
    return t


def gv0_from_gw(gw0, lattice):
    """Triangular inversion of the genus-zero multiple-cover sum."""
    _check_class_keys(lattice.rank, gw0)
    return _inverted(gw0, _inverse_square, lattice)


def _inverse(k):
    return Fraction(1, k)


def _inverse_square(k):
    return Fraction(1, k * k)


def _sigma_over_k(k):
    """sigma(k)/k, the sum of 1/j over the divisors j of k."""
    return sum(Fraction(1, j) for j in range(1, k + 1) if k % j == 0)


def gw1_assemble(n1, n0_c2, meeting, lattice):
    """Genus-one Gromov-Witten series from the genus-one invariants:

    GW1 = sum_beta n1(beta) sum_d sigma(d)/d q^(d beta)
          - 1/24 sum_beta n0_c2(beta) sum_k q^(k beta)/k
          + 1/24 sum_(b1,b2) meeting(b1,b2) sum_k q^(k(b1+b2))/k.
    """
    _check_class_keys(lattice.rank, n1, n0_c2 or (), meeting=meeting)
    met = {}
    for (b1, b2), v in (meeting or {}).items():
        beta = _add(b1, b2)
        met[beta] = met.get(beta, 0) + v
    n0_c2 = n0_c2 or {}
    for name, table in (("n1", n1), ("n0_c2", n0_c2), ("meeting", met)):
        _refuse_degree_zero(name, table, lattice)
    out = {
        beta: _cover_sum(beta, n1, _sigma_over_k)
        + (_cover_sum(beta, met, _inverse) - _cover_sum(beta, n0_c2, _inverse)) / 24
        for beta in lattice.positive_classes()
    }
    return {b: v for b, v in out.items() if v}


def gv1_extract(gw1, n0_c2, meeting, lattice):
    """Triangular inversion of gw1_assemble: recover n1 in increasing degree,
    where sigma(1)/1 = 1 multiplies the new entry."""
    _check_class_keys(lattice.rank, gw1)
    known = gw1_assemble({}, n0_c2, meeting, lattice)
    return _inverted({beta: Fraction(gw1.get(beta, 0)) - known.get(beta, 0)
                      for beta in lattice.positive_classes()}, _sigma_over_k, lattice)
