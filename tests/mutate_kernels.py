"""A kept mutation check for the kernels of ``stablepairs``.

Each entry of MUTATIONS names a module of ``src/stablepairs``, a function,
one line of that module as it stands, the line that replaces it, and the
tier-1 tests that must catch the change.  For each entry the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the one mutation there, and runs the named tests one after another
(``pytest -x``).  A mutation whose tests all pass survives: some oracle is
missing, and it wants a new test, not a dropped mutation.  The real tree is
never edited.

Run from anywhere, with the interpreter that runs the tests::

    python3 tests/mutate_kernels.py             # every mutation
    python3 tests/mutate_kernels.py localcurve  # the mutations of one module
    python3 tests/mutate_kernels.py _product    # the mutations of one function

It prints one line per mutation and exits 0 when every mutation is caught,
1 when one survives or its tests cannot run, and 2 when no entry matches
the arguments or a listed line is not found exactly once in its module
(the source moved on: update the list).  The file name does not start
with ``test_``, so tier-1 does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/stablepairs")

WALKS = "tests/test_series.py::test_recursion_and_product_match_the_former_walks"
IDENTITY = "tests/test_series.py::test_series_identity_check_sees_one_wrong_coefficient"
SUM_TABLE = "tests/test_series.py::test_lattice_sum_table_is_tuple_addition"
KEYS = "tests/test_series_keys_fuzz.py::test_class_keys_read_as_the_reference_does"
OFF_SERIES = "tests/test_series.py::test_series_coefficient_off_the_series_is_zero"
OFF_LATTICE = "tests/test_series.py::test_tuples_off_the_lattice_are_refused"
MACMAHON = "tests/test_series.py::test_macmahon_initial_coefficients"
KERNELS = "tests/test_acceptance.py::test_both_kernels_match_their_references"
CRITERION_2 = "tests/test_acceptance.py::test_criterion_2_closed_formula_matches_enumeration"
INT_RESIDUES = "tests/test_localcurve.py::test_int_residues_match_residue_at_on_every_summand"
NON_SIMPLE = "tests/test_localcurve.py::test_residue_certificate_refuses_a_non_simple_summand"
NAIVE_SUM = "tests/test_ratfun.py::test_sum_factored_matches_naive_sum"
RANDOM_SUM = "tests/test_ratfun.py::test_sum_factored_matches_naive_sum_randomized"
SWEEP_BOUNDS = ("tests/test_acceptance.py::"
                "test_packing_bounds_of_the_sweep_match_the_lifted_reference")
HIGHER_POLE = "tests/test_ratfun.py::test_residue_rejects_higher_order_poles"
RESIDUE_REFERENCE = "tests/test_ratfun.py::test_residue_at_matches_reference_on_random_ratfuns"
SIMPLE_POLES = "tests/test_ratfun.py::test_residues_of_simple_pole_product"
MIRROR_TERMS = "tests/test_acceptance.py::test_mirror_point_terms_are_the_l0_images"
UNFOLDED = "tests/test_acceptance.py::test_invariants_equal_the_unfolded_sum_of_every_term"
D1_BOTH_WAYS = "tests/test_localcurve.py::test_degree_one_agrees_both_ways"
D1_DOUBLES = "tests/test_localcurve.py::test_full_obstruction_doubles_the_half_d1"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_degree_one_closed_form"
GENUS_ZERO = "tests/test_series.py::test_genus_zero_round_trips"
GENUS_ONE = "tests/test_series.py::test_genus_one_round_trips"
CRITERION_8 = "tests/test_acceptance.py::test_criterion_8_gv_inversion_round_trips"
GVINVERT = "tests/test_cli.py::test_series_gvinvert_pinned_inversion"
GCD_PINNED = "tests/test_ratfun.py::test_gcd_pinned_examples"
GCD_DIVIDES = "tests/test_ratfun.py::test_gcd_divides_both_with_coprime_quotients"
GCD_SYMPY = "tests/test_ratfun.py::test_gcd_and_canonical_forms_match_sympy"

# (module, function, line as it stands, mutated line, tests that must catch it)
MUTATIONS = [
    ("series", "_exp_ints", "        scale *= weight or 1\n", "        scale *= 1\n",
     [MACMAHON, WALKS]),
    ("series", "_exp_ints", "            wc = w1 * c1  # c weighted by w\n",
     "            wc = c1  # c weighted by w\n", [MACMAHON, WALKS]),
    ("series", "_exp_ints", "                if n + n1 <= nmax and i1 < len(row):\n",
     "                if n + n1 < nmax and i1 < len(row):\n", [MACMAHON, WALKS]),
    ("series", "_product", "            if n2 <= room:\n", "            if n2 < room:\n", [WALKS]),
    ("series", "_product",
     "    return scale_a * scale_b, {key: c for key, c in out.items() if c}\n",
     "    return scale_a * scale_a, {key: c for key, c in out.items() if c}\n", [WALKS]),
    ("series", "_pair_counts",
     "    prefixes = _by_difference(lattice, [(i, mult) for _, mult, _, i in _admitted(t, gv)\n",
     "    prefixes = _by_difference(lattice, [(i, mult) for _, mult, _, i in gv._by_degree()\n",
     [WALKS]),
    ("series", "_pair_counts",
     "    return prefixes, [gv._p0_form()[1]], _top_n(gv, lattice.dmax)\n",
     "    return prefixes, [gv._p0_form()[1]], _top_n(gv, lattice.dmax - 1)\n", [WALKS]),
    ("series", "_fill", "    while len(g) <= min(n, top):\n", "    while len(g) < min(n, top):\n",
     [WALKS]),
    ("series", "_fill", "        level = g[-1]\n", "        level = g[0]\n", [WALKS]),
    ("series", "_top_n",
     "    return min(nmax, gv.lattice.dmax // heaviest[-1][0]) if heaviest else 0\n",
     "    return min(nmax, gv.lattice.dmax // heaviest[0][0]) if heaviest else 0\n", [WALKS]),
    ("series", "_by_difference", "            out[i].append((*entry, j))\n",
     "            out[j].append((*entry, i))\n", [SUM_TABLE, WALKS]),
    ("series", "wall_jump_check", "    series_ok = series_plus == TruncatedSeries._from_ints(\n",
     "    series_ok = True or series_plus == TruncatedSeries._from_ints(\n", [IDENTITY]),
    ("series", "wall_jump_check",
     "        lattice, nmax, _product(lattice, nmax, (scale_w, wall), series_minus._ints))\n",
     "        lattice, nmax, _product(lattice, nmax, (scale_w, wall), series_plus._ints))\n",
     [IDENTITY]),
    ("series", "ClassLattice._position", "        if not _is_class(beta, self.rank):\n",
     "        if len(beta) != self.rank:\n", [KEYS]),
    ("series", "ClassLattice._position", "        if not _is_class(beta, self.rank):\n",
     "        if not _is_class(beta, len(beta)):\n", [OFF_SERIES, KEYS]),
    ("series", "ClassLattice._position", "        return self._positions.get(beta)\n",
     "        return self._positions[beta]\n", [OFF_SERIES, OFF_LATTICE, KEYS]),
    ("series", "_inverted",
     "        value = Fraction(target.get(beta, 0)) - _cover_sum(beta, t, weight)\n",
     "        value = Fraction(target.get(beta, 0))\n",
     [GENUS_ZERO, GENUS_ONE, CRITERION_8, GVINVERT]),
    ("series", "gv1_extract",
     "    return _inverted({beta: Fraction(gw1.get(beta, 0)) - known.get(beta, 0)\n",
     "    return _inverted({beta: Fraction(gw1.get(beta, 0)) + known.get(beta, 0)\n",
     [GENUS_ONE, CRITERION_8]),
    ("localcurve", "half_obstruction_d1",
     "        ((tuple(int(j == i) for j in range(4)), -l - 1)\n",
     "        ((tuple(int(j == i) for j in range(4)), -l)\n",
     [D1_BOTH_WAYS, D1_DOUBLES, CRITERION_1]),
    ("localcurve", "half_obstruction_d1",
     "        (((j, 0, 0, 0), -1) for j in range(-point.b, point.a + 1) if j),\n",
     "        (((j, 0, 0, 0), -1) for j in range(-point.b, point.a) if j),\n",
     [D1_BOTH_WAYS, D1_DOUBLES, CRITERION_1]),
    ("localcurve", "_merged_term", "        num *= block_num\n",
     "        num *= block_den\n", [KERNELS]),
    ("localcurve", "_merged_term",
     "               for a, (i, di) in enumerate(nonzero) for j, dj in nonzero[a + 1:]]\n",
     "               for a, (i, di) in enumerate(nonzero) for j, dj in nonzero[a:]]\n",
     [KERNELS]),
    ("localcurve", "_merged_term", "                del forms[form]\n",
     "                forms[form] = 0\n", [KERNELS]),
    ("localcurve", "_closed_part_block",
     "    scalar = math.factorial(part) * math.prod(j - i for j in range(k + 1) if j != i)\n",
     "    scalar = math.factorial(part) * math.prod(i - j for j in range(k + 1) if j != i)\n",
     [KERNELS, CRITERION_2]),
    ("localcurve", "_closed_part_block",
     "    factors += [((j - i, 0, 0, a), -1) for a in range(1, part)"
     " for j in range(k + 1) if j != i]\n",
     "    factors += [((j - i, 0, 0, a), -1) for a in range(part)"
     " for j in range(k + 1) if j != i]\n",
     [KERNELS, CRITERION_2]),
    ("localcurve", "_closed_pair_block",
     "    factors = (((1, 0, 0, 0), 1), ((gap, 0, 0, di - dj), 1),\n",
     "    factors = (((1, 0, 0, 0), 1), ((gap, 0, 0, dj - di), 1),\n", [KERNELS, CRITERION_2]),
    ("localcurve", "_closed_pair_block",
     "    return _block_items(FactoredRatFun.product(-gap, factors))\n",
     "    return _block_items(FactoredRatFun.product(gap, factors))\n", [KERNELS, CRITERION_2]),
    ("localcurve", "_residues_at_l3_one", "            product //= k - j\n",
     "            product //= j - k\n", [INT_RESIDUES]),
    ("localcurve", "_residues_at_l3_one",
     "        residues[-j] = (num, den * (-product if (j - lo) % 2 else product))\n",
     "        residues[-j] = (num, den * (-product if (j - hi) % 2 else product))\n",
     [INT_RESIDUES]),
    ("localcurve", "_residues_at_l3_one",
     "        residues[-j] = (num, den * (-product if (j - lo) % 2 else product))\n",
     "        residues[j] = (num, den * (-product if (j - lo) % 2 else product))\n",
     [INT_RESIDUES]),
    ("localcurve", "_residues_at_l3_one",
     "    num, den = term.scalar.numerator, term.scalar.denominator\n",
     "    den, num = term.scalar.numerator, term.scalar.denominator\n", [INT_RESIDUES]),
    ("localcurve", "_residues_at_l3_one",
     "        if e != -1 or form != (1, 0, 0, form[-1]) or not -d <= form[-1] <= d:\n",
     "        if e > -1 or form != (1, 0, 0, form[-1]) or not -d <= form[-1] <= d:\n",
     [NON_SIMPLE]),
    ("localcurve", "Composition.mirror_side",
     "        return (self.parts > mirror) - (self.parts < mirror)\n",
     "        return (self.parts >= mirror) - (self.parts < mirror)\n", [MIRROR_TERMS, UNFOLDED]),
    ("localcurve", "D1FixedPoint.mirror_side",
     "        return (self.a > self.b) - (self.a < self.b)\n",
     "        return (self.a >= self.b) - (self.a < self.b)\n", [MIRROR_TERMS, UNFOLDED]),
    ("localcurve", "_localize", "        if side >= 0:\n", "        if side > 0:\n", [UNFOLDED]),
    ("localcurve", "_localize",
     "            terms.append(t if side else t.times_scalar(Fraction(1, 2)))\n",
     "            terms.append(t)\n", [UNFOLDED]),
    ("ratfun", "sum_factored",
     "                need[form] = need[image] = max(e, need.get(image, 0))\n",
     "                need[form] = max(e, need.get(image, 0))\n", [RANDOM_SUM, UNFOLDED]),
    ("ratfun", "sum_factored",
     "        sigma = (-1) ** sum(e for form, e in need.items() if form[0])\n",
     "        sigma = (-1) ** sum(e for form, e in need.items() if not form[0])\n",
     [RANDOM_SUM, UNFOLDED]),
    ("ratfun", "sum_factored", "                c *= 1 + sigma * (-1) ** mono[0]\n",
     "                c *= 1 + sigma\n", [RANDOM_SUM, UNFOLDED]),
    ("ratfun", "sum_factored",
     "    for form in sorted(need) if len(terms) > 1 or mirrored else ():\n",
     "    for form in sorted(need) if len(terms) > 1 else ():\n", [RANDOM_SUM]),
    ("ratfun", "_kronecker_sum", "        digit = int(text[end - bits:end], 2) + carry\n",
     "        digit = int(text[end - bits:end], 2)\n", [NAIVE_SUM, RANDOM_SUM]),
    ("ratfun", "_kronecker_sum", "        carry = digit >= half\n",
     "        carry = digit >= half << 1\n", [NAIVE_SUM, RANDOM_SUM]),
    ("ratfun", "_kronecker_sum", "            digit -= half << 1\n",
     "            digit -= half\n", [NAIVE_SUM, RANDOM_SUM]),
    ("ratfun", "_packing_bounds", "                size *= norms[f] ** e\n",
     "                size *= norms[f]\n", [RANDOM_SUM, SWEEP_BOUNDS]),
    ("ratfun", "_packing_bounds", "                cleared //= norms[f] ** -e\n",
     "                cleared //= norms[f]\n", [RANDOM_SUM, SWEEP_BOUNDS]),
    ("ratfun", "_packing_bounds", "    bounds = [sum(n for f, n in need.items() if f[i])\n",
     "    bounds = [sum(n for f, n in need.items() if f[i] > 0)\n",
     [RANDOM_SUM, SWEEP_BOUNDS]),
    ("ratfun", "poly_gcd", "    if pa.degree_in(var) and pb.degree_in(var):\n",
     "    if pa.degree_in(var) and pb.degree_in(var) > 1:\n",
     [GCD_PINNED, GCD_DIVIDES, GCD_SYMPY]),
    ("ratfun", "poly_gcd", "    g = poly_gcd(conta, contb)\n", "    g = conta\n",
     [GCD_PINNED, GCD_DIVIDES, GCD_SYMPY]),
    ("ratfun", "residue_at", "    if order >= 2:\n", "    if order >= 3:\n",
     [HIGHER_POLE, RESIDUE_REFERENCE]),
    ("ratfun", "residue_at", "    if order == 0:\n", "    if order <= 1:\n",
     [SIMPLE_POLES, RESIDUE_REFERENCE, INT_RESIDUES]),
    ("ratfun", "residue_at",
     "    linear = Poly.variable(var, f.arity) - Poly.constant(pole, f.arity)\n",
     "    linear = Poly.variable(var, f.arity) + Poly.constant(pole, f.arity)\n",
     [SIMPLE_POLES, RESIDUE_REFERENCE, INT_RESIDUES]),
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
    mutations = [m for m in MUTATIONS if not only or m[0] in only or m[1] in only]
    if not mutations:
        print(f"no mutation of a module or function named {' or '.join(only)}")
        return 2
    texts = {module: (ROOT / PACKAGE / f"{module}.py").read_text()
             for module in {m[0] for m in mutations}}
    stale = [(name, old) for module, name, old, _, _ in mutations
             if texts[module].count(old) != 1]
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
        for module, name, old, new, tests in mutations:
            source = tree / PACKAGE / f"{module}.py"
            source.write_text(texts[module].replace(old, new))
            start = time.perf_counter()
            status = run_tests(tree, tests)
            source.write_text(texts[module])
            verdict = {0: "SURVIVED", 1: "caught"}.get(status, f"error {status}")
            failed += status != 1
            print(f"{verdict:8} {module}.{name}: {old.strip()!r} -> {new.strip()!r} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(mutations) - failed} of {len(mutations)} mutations caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
