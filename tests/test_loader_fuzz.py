"""Fuzzing of the JSON class-table reader shared by ``GVTable.from_json`` and
the ``series gvinvert`` loader, and of the ``verify`` checkpoint loader.

The CLI maps ValueError, KeyError and TypeError from the class-table loaders
to exit 2 (bad input); any other exception would exit 3 as an internal error.
So every JSON document must either load or raise one of those three.  The
checkpoint loader must load or raise a ValueError that names the line.  JSON
nested past the decoder's recursion limit and numbers of 4,000-10,000
digits, around the interpreter's 4,300-digit limit for str(int), go through
the commands themselves, which must exit 0 or 2 and print every result.
"""

import io
import json
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stablepairs.cli import GW_TABLES, _load_checkpoint, main  # noqa: E402
from stablepairs.localcurve import verify_conjecture  # noqa: E402
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
# JSON text: arrays nested up to far past the decoder's recursion limit, and
# integers of 4,000-10,000 digits
nestings = st.builds(lambda depth, closed: "[" * depth + ("]" * depth if closed else ""),
                     st.integers(1, 100_000), st.booleans())
long_numbers = st.builds(
    lambda length, seed: "1" + "".join(random.Random(seed).choices("0123456789", k=length - 1)),
    st.integers(4000, 10_000), st.integers(0, 2**32),
)
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


FRESH_ROWS = verify_conjecture(3, 3)["rows"]
# small n and d keep the fixed-point count C(n/d + d - 1, d) cheap to check
row_fields = st.one_of(
    scalars, st.integers(-2, 12), st.sampled_from([[-1, -1, 0], [-1.0, -1, 0], [0, -1, -1]]),
    st.sampled_from(["(1)/(l3)", "(1/2)/(l3^2)", "(1/6)/(l3^3)", "(2)/(l3)", "0", "match",
                     "counterexample"]),
)
mutated_rows = st.tuples(
    st.sampled_from(FRESH_ROWS),
    st.dictionaries(st.sampled_from([*FRESH_ROWS[0], "extra"]), row_fields, max_size=2),
    st.sets(st.sampled_from(sorted(FRESH_ROWS[0])), max_size=1),
).map(lambda parts: {key: value for key, value in {**parts[0], **parts[1]}.items()
                     if key not in parts[2]})
lines = st.one_of(
    st.sampled_from(FRESH_ROWS).map(json.dumps),
    mutated_rows.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=12),
    st.just(""),
    nestings,
    long_numbers.map('{{"n": {0}, "d": 1, "value": "{0}"}}'.format),
)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(lines, max_size=5), st.booleans())
def test_checkpoint_loader_loads_or_names_a_line(text_lines, terminated):
    text = "\n".join(text_lines) + ("\n" if terminated else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            rows, complete = _load_checkpoint(path, 3, 3)
        except ValueError as exc:
            assert re.match(r"line \d+ is malformed", str(exc)), exc
            return
    assert complete == len(text[: text.rfind("\n") + 1].encode("utf-8"))
    fresh = {(row["n"], row["d"]): row for row in FRESH_ROWS}
    for key, row in rows.items():
        # a loaded row is a fresh row, apart from a value and status that agree
        if key in fresh:
            expected = {**fresh[key], "value": row["value"],
                        "conjecture_status": row["conjecture_status"]}
            assert json.dumps(row, sort_keys=True) == json.dumps(expected, sort_keys=True)


# a slot for a JSON value (raw or as a string) or for a class key
SLOTS = [
    "{}",
    '{{"rank": {}, "omega": [1]}}',
    '{{"rank": 1, "omega": [1], "n0": {{"[1]": {}}}, "gw1": {{"[1]": {}}}}}',
    '{{"rank": 1, "omega": [1], "n0": {{"[2]": "1"}}, "p0": {{"[0]": "1", "[1]": {}}}}}',
    '{{"rank": 1, "omega": [1], "meeting": {{"[1]|[1]": {}}}}}',
]
KEY_SLOT = '{{"rank": 1, "omega": [1], "n0": {{{0}: "1"}}, "gw0": {{{0}: "1"}}}}'
COMMANDS = [
    ["pt", "--n-max", "2", "--deg-max", "2", "--t", "inf"],
    ["wallcheck", "--t0", "1", "--n-max", "2", "--deg-max", "2"],
    ["gvinvert", "--deg-max", "2"],
]


@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(
    st.tuples(st.sampled_from(SLOTS), st.one_of(nestings, long_numbers)),
    st.tuples(st.sampled_from([*SLOTS, KEY_SLOT]),
              st.one_of(nestings, long_numbers).map(json.dumps)),
))
def test_series_commands_take_deep_nesting_and_long_numbers(slot_and_payload):
    slot, payload = slot_and_payload
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(slot.format(payload, payload), encoding="utf-8")
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["series", command[0], "--gv-file", str(path), *command[1:]])
            assert code in (0, 2), (command, err.getvalue())
            assert code == 0 or out.getvalue() == ""
            # a value within the limit is read, so everything built from it prints
            digits = payload.strip('"')
            if slot == SLOTS[2] and digits.isdigit() and (not limit or len(digits) <= limit):
                assert code == 0, (command, err.getvalue())
