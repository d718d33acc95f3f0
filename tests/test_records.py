"""The eight value records behave as plain values: equality within one class,
hashes of frozen records, their repr text, frozen fields, keyword
construction with defaults, and pickle and deepcopy round trips.  Importing
the command loads none of the heavy modules the records could pull in."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stablepairs import (
    GEOM_STANDARD,
    ClassLattice,
    Composition,
    D1FixedPoint,
    EqLineBundleP1,
    GVTable,
    InvariantResult,
    RatFun,
    SplitGeometry,
    TParam,
    js_invariant_enumerated,
    pt_coeff_from_gv,
    wall_jump_check,
)


def invariant_result():
    return InvariantResult(2, 1, (-1, -1, 0), RatFun.one(), 3, contributions=[("(1)", RatFun.one())])


def gv_table():
    return GVTable(ClassLattice(2, (1, 2), 4), n0={(1, 0): 1, (0, 1): Fraction(1, 2)},
                   n1={(1, 0): 2}, p0={(0, 0): 1})


# each record with two equal and one different instance
FROZEN = [
    lambda: (EqLineBundleP1(1, 2), EqLineBundleP1(1, 2, (0, 0, 0, 0)), EqLineBundleP1(1, 2, (1, 0, 0, 0))),
    lambda: (SplitGeometry(-1, -1, 0), SplitGeometry(l1=-1, l2=-1, l3=0), SplitGeometry(0, -1, -1)),
    lambda: (Composition((1, 0, 2)), Composition([1, 0, 2]), Composition((1, 2))),
    lambda: (D1FixedPoint(1, 0), D1FixedPoint(a=1, b=0), D1FixedPoint(0, 1)),
    lambda: (ClassLattice(2, (1, 2), 5), ClassLattice(2, [1, 2], 5), ClassLattice(2, (1, 2), 4)),
    lambda: (TParam.plus(1), TParam("finite", Fraction(1), 1), TParam.minus(1)),
]
MUTABLE = [
    lambda: (invariant_result(), invariant_result(), InvariantResult(2, 1, (-1, -1, 0), RatFun.one(), 4)),
    lambda: (gv_table(), gv_table(), GVTable(ClassLattice(2, (1, 2), 4), n0={(1, 0): 1})),
]


@pytest.mark.parametrize("make", FROZEN + MUTABLE)
def test_equality_is_by_fields_within_one_class(make):
    first, same, other = make()
    assert first == same and not first != same
    assert first != other and not first == other
    assert first.__eq__(object()) is NotImplemented


def test_records_never_equal_other_types():
    assert SplitGeometry(-1, -1, 0) != (-1, -1, 0)
    assert GEOM_STANDARD.degrees == (-1, -1, 0)
    assert D1FixedPoint(1, 0) != EqLineBundleP1(1, 0)
    assert Composition((1, 2)) != (1, 2)
    assert ClassLattice(1, (1,), 3) != (1, (1,), 3)
    assert TParam.infinity() != "infinity"


@pytest.mark.parametrize("make", FROZEN)
def test_equal_frozen_records_hash_equal(make):
    first, same, other = make()
    assert hash(first) == hash(same)
    assert len({first, same, other}) == 2


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(gv_table())
    with pytest.raises(TypeError):
        hash(invariant_result())


def test_repr_text():
    assert repr(ClassLattice(2, (1, 2), 5)) == "ClassLattice(rank=2, omega=(1, 2), dmax=5)"
    assert repr(TParam.plus(1)) == "TParam(kind='finite', value=Fraction(1, 1), side=1)"
    assert repr(TParam.infinity()) == "TParam(kind='infinity', value=None, side=0)"
    assert repr(EqLineBundleP1(1, 2)) == "EqLineBundleP1(a=1, b=2, twist=(0, 0, 0, 0))"
    assert repr(SplitGeometry(-1, -1, 0)) == "SplitGeometry(l1=-1, l2=-1, l3=0)"
    assert repr(Composition((1, 0, 2))) == "Composition(parts=(1, 0, 2))"
    assert repr(D1FixedPoint(1, 0)) == "D1FixedPoint(a=1, b=0)"
    assert repr(GVTable(ClassLattice(1, (1,), 3), n0={(1,): 1})) == (
        "GVTable(lattice=ClassLattice(rank=1, omega=(1,), dmax=3), "
        "n0={(1,): Fraction(1, 1)}, n1={}, p0=None, meeting=None, nmin=None)")
    assert repr(InvariantResult(2, 1, (-1, -1, 0), None, 3)) == (
        "InvariantResult(n=2, d=1, geometry=(-1, -1, 0), value=None, "
        "fixed_point_count=3, elapsed_ms=0, contributions=None)")


def test_caches_stay_out_of_equality_and_repr():
    lattice, fresh = ClassLattice(2, (1, 2), 4), ClassLattice(2, (1, 2), 4)
    lattice.classes()
    lattice._sum_table()
    assert lattice == fresh and hash(lattice) == hash(fresh)
    assert repr(lattice) == repr(fresh)
    used, fresh = gv_table(), gv_table()
    pt_coeff_from_gv(TParam.infinity(), 1, (1, 1), used)
    wall_jump_check(1, used, 2)
    assert used._chambers and used._heaviest
    assert used == fresh and repr(used) == repr(fresh)
    assert TParam.plus(Fraction(1, 2))._threshold == 2
    assert repr(TParam.plus(Fraction(1, 3))) == (
        "TParam(kind='finite', value=Fraction(1, 3), side=1)")


@pytest.mark.parametrize("make", FROZEN)
def test_frozen_fields_refuse_assignment_and_deletion(make):
    record = make()[0]
    name = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unlisted = 0
    assert repr(record) == before


def test_mutable_records_take_assignment():
    result = invariant_result()
    result.elapsed_ms = 7
    assert result.elapsed_ms == 7 and result != invariant_result()
    table = gv_table()
    table.nmin = {(1, 0): 1}
    assert table != gv_table()


def test_construction_by_keyword_and_defaults():
    assert EqLineBundleP1(a=1, b=2).twist == (0, 0, 0, 0)
    assert EqLineBundleP1(a=1, b=2, twist=[0, 1, 0, 0]).twist == (0, 1, 0, 0)
    assert SplitGeometry(l1=-2, l2=0, l3=0).degrees == (-2, 0, 0)
    assert Composition(parts=[2, 0]).parts == (2, 0)
    assert D1FixedPoint(a=0, b=3).n == 4
    assert ClassLattice(rank=1, omega=[2], dmax=4).omega == (2,)
    t = TParam(kind="infinity")
    assert (t.value, t.side) == (None, 0)
    assert TParam(kind="finite", value=Fraction(1, 2), side=-1) == TParam.minus(Fraction(1, 2))
    result = InvariantResult(n=2, d=1, geometry=(-1, -1, 0), value=RatFun.one(), fixed_point_count=3)
    assert (result.elapsed_ms, result.contributions) == (0, None)
    table = GVTable(lattice=ClassLattice(1, (1,), 3))
    assert (table.n0, table.n1, table.p0, table.meeting, table.nmin) == ({}, {}, None, None, None)
    table = GVTable(ClassLattice(1, (1,), 3), {(1,): "1/2"}, {(2,): 3}, {(0,): 1},
                    {((1,), (1,)): 2}, {(1,): 1})
    assert table.n0 == {(1,): Fraction(1, 2)} and table.nmin == {(1,): 1}
    assert table.meeting == {((1,), (1,)): Fraction(2)}
    # the defaults are fresh per instance
    first, second = GVTable(ClassLattice(1, (1,), 3)), GVTable(ClassLattice(1, (1,), 3))
    assert first.n0 is not second.n0 and first._chambers is not second._chambers


def test_construction_checks_stay():
    with pytest.raises(ValueError, match="must sum to -2"):
        SplitGeometry(0, 0, 0)
    with pytest.raises(ValueError, match="nonnegative and nonempty"):
        Composition(())
    with pytest.raises(ValueError, match="nonnegative"):
        D1FixedPoint(-1, 0)
    with pytest.raises(ValueError, match="omega length"):
        ClassLattice(2, (1,), 3)
    with pytest.raises(ValueError, match="strictly positive"):
        ClassLattice(1, (0,), 3)
    with pytest.raises(ValueError, match="dmax must be nonnegative"):
        ClassLattice(1, (1,), -1)
    # rank, the entries of omega and dmax are ints, not floats, strings or bools
    for args in ((1, (1.5,), 3), (1, ("2",), 3), (1, (True,), 3), (True, (1,), 3),
                 (1.0, (1,), 3), (1, (1,), 3.5), (1, (1,), 3.0), (1, (1,), False)):
        with pytest.raises(ValueError, match="must be ints"):
            ClassLattice(*args)
    with pytest.raises(ValueError, match="unknown stability parameter kind"):
        TParam("finit")
    with pytest.raises(TypeError):
        SplitGeometry(-1, -1)
    with pytest.raises(TypeError):
        GVTable()


ROUND_TRIPS = [
    lambda: EqLineBundleP1(1, 2, (0, 1, 0, 0)),
    lambda: SplitGeometry(-1, -1, 0),
    lambda: Composition((1, 0, 2)),
    lambda: D1FixedPoint(1, 0),
    lambda: ClassLattice(2, (1, 2), 5),
    lambda: TParam.plus(Fraction(1, 2)),
    lambda: TParam.zero_plus(),
    invariant_result,
    lambda: js_invariant_enumerated(4, 2, audit=True),
    gv_table,
]


@pytest.mark.parametrize("make", ROUND_TRIPS)
def test_pickle_and_deepcopy_round_trips(make):
    record = make()
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == repr(record)


def test_round_trips_keep_working_caches():
    lattice = ClassLattice(2, (1, 2), 4)
    lattice._sum_table()
    for copied in (pickle.loads(pickle.dumps(lattice)), copy.deepcopy(lattice)):
        assert copied.classes() == lattice.classes()
        assert copied._sum_table() == lattice._sum_table()
        assert hash(copied) == hash(lattice)
    t = pickle.loads(pickle.dumps(TParam.minus(Fraction(1, 3))))
    assert t._threshold == 3 and not t.admits(3) and t.admits(4)
    table = gv_table()
    expected = pt_coeff_from_gv(TParam.infinity(), 2, (2, 1), table)
    for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert pt_coeff_from_gv(TParam.infinity(), 2, (2, 1), copied) == expected


def test_importing_the_command_loads_no_heavy_module():
    script = ("import sys, stablepairs.cli; "
              "print(sorted({'dataclasses', 'inspect', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
