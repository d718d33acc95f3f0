"""Fuzzing of the JSON class-table reader shared by ``GVTable.from_json`` and
the ``series gvinvert`` loader.

The CLI maps ValueError, KeyError and TypeError from these loaders to exit 2
(bad input); any other exception would exit 3 as an internal error.  So every
JSON document must either load or raise one of those three.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stablepairs.cli import GW_TABLES  # noqa: E402
from stablepairs.series import GVTable, _bounded_lattice, _read_class_tables  # noqa: E402

INPUT_ERRORS = (ValueError, KeyError, TypeError)

# small numbers keep every inferred lattice small
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
    st.sampled_from(["1", "-1/2", "0", "1/0", "x", "", "1e2", "nan"]), st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
class_keys = st.one_of(
    st.sampled_from(["[0]", "[1]", "[2]", "[1, 0]", "[0, 1]", "[1,1]", "[-1]", "[1.5]",
                     "[true]", "[]", "{}", "1", "[1]|[2]", "[1]|[0]", "[1,0]|[0,1]", "|"]),
    st.text(max_size=6),
)
tables = st.one_of(st.dictionaries(class_keys, scalars, max_size=4), json_values)
documents = st.fixed_dictionaries(
    {},
    optional={
        "rank": st.one_of(st.integers(-1, 3), scalars),
        "omega": st.one_of(st.lists(st.one_of(st.integers(-1, 3), scalars), max_size=3),
                           json_values),
        **{name: tables for name in ("n0", "n1", "p0", "nmin", "meeting", *GW_TABLES)},
    },
)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(documents, json_values))
def test_class_table_loaders_raise_only_input_errors(data):
    try:
        GVTable.from_json(data)
    except INPUT_ERRORS:
        pass
    try:
        rank, omega, loaded = _read_class_tables(data, GW_TABLES)
        classes = [beta for name in GW_TABLES for beta in loaded[name] or ()]
        _bounded_lattice(rank, omega, None, classes)
    except INPUT_ERRORS:
        pass


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(
    lambda rank: st.tuples(st.just(rank), st.lists(st.integers(1, 3), min_size=rank,
                                                   max_size=rank))))
def test_well_formed_shapes_load(shape):
    rank, omega = shape
    gv = GVTable.from_json({"rank": rank, "omega": omega, "n0": {}})
    assert (gv.lattice.rank, gv.lattice.omega) == (rank, tuple(omega))
