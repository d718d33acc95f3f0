"""A kept mutation check for the kernels of ``stablepairs.series``.

Each entry of MUTATIONS names a function, one line of
``src/stablepairs/series.py`` as it stands, the line that replaces it, and
the tier-1 tests that must catch the change.  For each entry the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the one mutation there, and runs the named tests one
after another (``pytest -x``).  A mutation whose tests all pass survives:
some oracle is missing, and it wants a new test, not a dropped mutation.
The real tree is never edited.

Run from anywhere, with the interpreter that runs the tests::

    python3 tests/mutate_series.py             # every mutation
    python3 tests/mutate_series.py _product    # the mutations of one function

It prints one line per mutation and exits 0 when every mutation is caught,
1 when one survives or its tests cannot run, and 2 when a listed line is
not found exactly once in the source (the source moved on: update the
list).  The file name does not start with ``test_``, so tier-1 does not
collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = Path("src/stablepairs/series.py")

WALKS = "tests/test_series.py::test_recursion_and_product_match_the_former_walks"
IDENTITY = "tests/test_series.py::test_series_identity_check_sees_one_wrong_coefficient"
SUM_TABLE = "tests/test_series.py::test_lattice_sum_table_is_tuple_addition"
KEYS = "tests/test_series_keys_fuzz.py::test_class_keys_read_as_the_reference_does"
OFF_SERIES = "tests/test_series.py::test_series_coefficient_off_the_series_is_zero"
OFF_LATTICE = "tests/test_series.py::test_tuples_off_the_lattice_are_refused"
MACMAHON = "tests/test_series.py::test_macmahon_initial_coefficients"

# (function, line as it stands, mutated line, tests that must catch it)
MUTATIONS = [
    ("_exp_ints", "        scale *= weight or 1\n", "        scale *= 1\n", [MACMAHON, WALKS]),
    ("_exp_ints", "            wc = w1 * c1  # c weighted by w\n",
     "            wc = c1  # c weighted by w\n", [MACMAHON, WALKS]),
    ("_exp_ints", "                if n + n1 <= nmax and i1 < len(row):\n",
     "                if n + n1 < nmax and i1 < len(row):\n", [MACMAHON, WALKS]),
    ("_product", "            if n2 <= room:\n", "            if n2 < room:\n", [WALKS]),
    ("_product", "    return scale_a * scale_b, {key: c for key, c in out.items() if c}\n",
     "    return scale_a * scale_a, {key: c for key, c in out.items() if c}\n", [WALKS]),
    ("_pair_counts",
     "    prefixes = _by_difference(lattice, [(i, mult) for _, mult, _, i in _admitted(t, gv)\n",
     "    prefixes = _by_difference(lattice, [(i, mult) for _, mult, _, i in gv._by_degree()\n",
     [WALKS]),
    ("_pair_counts", "    return prefixes, [gv._p0_form()[1]], _top_n(gv, lattice.dmax)\n",
     "    return prefixes, [gv._p0_form()[1]], _top_n(gv, lattice.dmax - 1)\n", [WALKS]),
    ("_fill", "    while len(g) <= min(n, top):\n", "    while len(g) < min(n, top):\n",
     [WALKS]),
    ("_fill", "        level = g[-1]\n", "        level = g[0]\n", [WALKS]),
    ("_top_n",
     "    return min(nmax, gv.lattice.dmax // heaviest[-1][0]) if heaviest else 0\n",
     "    return min(nmax, gv.lattice.dmax // heaviest[0][0]) if heaviest else 0\n", [WALKS]),
    ("_by_difference", "            out[i].append((*entry, j))\n",
     "            out[j].append((*entry, i))\n", [SUM_TABLE, WALKS]),
    ("wall_jump_check", "    series_ok = series_plus == TruncatedSeries._from_ints(\n",
     "    series_ok = True or series_plus == TruncatedSeries._from_ints(\n", [IDENTITY]),
    ("wall_jump_check",
     "        lattice, nmax, _product(lattice, nmax, (scale_w, wall), series_minus._ints))\n",
     "        lattice, nmax, _product(lattice, nmax, (scale_w, wall), series_plus._ints))\n",
     [IDENTITY]),
    ("ClassLattice._position", "        if not _is_class(beta, self.rank):\n",
     "        if len(beta) != self.rank:\n", [KEYS]),
    ("ClassLattice._position", "        if not _is_class(beta, self.rank):\n",
     "        if not _is_class(beta, len(beta)):\n", [OFF_SERIES, KEYS]),
    ("ClassLattice._position", "        return self._positions.get(beta)\n",
     "        return self._positions[beta]\n", [OFF_SERIES, OFF_LATTICE, KEYS]),
]


def run_tests(tree, tests):
    """The pytest exit status of ``tests`` in the copy ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def copy_tree(target):
    shutil.copytree(ROOT / "src", target / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", target / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", target / "pyproject.toml")


def main(only):
    mutations = [m for m in MUTATIONS if not only or m[0] in only]
    text = (ROOT / SOURCE).read_text()
    stale = [(name, old) for name, old, _, _ in mutations if text.count(old) != 1]
    for name, old in stale:
        print(f"stale   {name}: {old.strip()!r} is not found exactly once")
    if stale:
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        every_test = sorted({test for *_, tests in mutations for test in tests})
        if run_tests(tree, every_test):
            print("the named tests fail on the unmutated source; nothing is checked")
            return 1
        for name, old, new, tests in mutations:
            (tree / SOURCE).write_text(text.replace(old, new))
            start = time.perf_counter()
            status = run_tests(tree, tests)
            verdict = {0: "SURVIVED", 1: "caught"}.get(status, f"error {status}")
            failed += status != 1
            print(f"{verdict:8} {name}: {old.strip()!r} -> {new.strip()!r} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
        (tree / SOURCE).write_text(text)
    print(f"{len(mutations) - failed} of {len(mutations)} mutations caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
