"""Command-line front end for the stable-pairs library.

Subcommands:

* ``js``         -- one equivariant stable-pair invariant P(n, d) on a local
                    curve geometry, as canonical text or a JSON report.
* ``verify``     -- sweep the closed formula over a (d, n/d) grid and compare
                    every value against the conjectured 1/(d! l3^d) / zero.
* ``residues``   -- certify the vanishing of the n = 2d invariant through its
                    integer-point residues.
* ``series pt``  -- expand a stable-pair generating series from a table of
                    genus-zero/one invariants, cross-checked two ways.
* ``series wallcheck`` -- verify the wall-crossing identities across one wall.
* ``series gvinvert``  -- invert genus-zero/one Gromov-Witten data back to
                    integer-type invariants, with a round-trip check.

Exit codes: 0 success, 1 mathematical mismatch (counterexample, failed
identity, golden-file disagreement), 2 usage or malformed input, 3 internal
error (any unexpected exception, e.g. a trivial weight reaching an Euler
class), reported as one ``internal error:`` line on stderr.

Output is deterministic: byte-identical across worker counts unless
``--timings`` is passed.  Only ``verify`` spreads its rows over a pool; ``js``
accepts ``--jobs`` and computes in one process.  The default worker count
comes from the ``STABLEPAIRS_JOBS`` environment variable; like ``--jobs`` it
must be a positive integer.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .equivariant import SplitGeometry
from .localcurve import (
    GEOM_STANDARD,
    conjectured_row,
    js_invariant_closed_form,
    js_invariant_enumerated,
    residue_vanishing_check,
    verify_conjecture,
    _sweep_grid,
    _verify_row,
)
from .ratfun import ratfun_str, _parse_parts
from .series import (
    GVTable,
    TParam,
    WallError,
    frac_str,
    gv0_from_gw,
    gv1_extract,
    gw0_from_gv0,
    gw1_assemble,
    parse_frac,
    pt_coeff_from_gv,
    pt_series_from_gv,
    wall_jump_check,
    _bounded_lattice,
    _decode_json,
    _read_class_tables,
    _top_n,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

ARITY = 4
GW_TABLES = ("gw0", "gw1", "n0_c2")
# what reading a class table and the parameters raises on bad input
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError)


def _fail_usage(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _fail_path(what, path, exc):
    """Usage error for a file path that cannot be opened, such as one in a
    missing directory or one that names a directory."""
    return _fail_usage(f"{what} {path} cannot be used: {exc.strerror or exc}")


def _fail_mismatch(message):
    print(f"mismatch: {message}", file=sys.stderr)
    return EXIT_MISMATCH


def _jobs(text):
    """argparse type of --jobs, also applied to the STABLEPAIRS_JOBS default."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer (from --jobs or STABLEPAIRS_JOBS), got {text!r}"
        )
    return jobs


def _dump_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


# -- js ------------------------------------------------------------------------------


def _js_report(result, timings, audit):
    report = result.to_report(timings=timings)
    if audit and result.contributions is not None:
        report["contributions"] = [
            {"fixed_point": label, "value": ratfun_str(value)}
            for label, value in result.contributions
        ]
    return report


def _golden_js(path, result):
    """Create or compare a golden file for the ``js`` value.

    The stored form is the canonical single-line text of the invariant.  The
    comparison reparses it as written and cross-multiplies, so any text of
    the same value passes and no gcd runs.
    """
    path = Path(path)
    rendered = ratfun_str(result.value)
    if not path.exists():
        # a new golden file appears whole or not at all
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
        except OSError as exc:
            return _fail_path("golden file", path, exc)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
        print(f"golden file created: {path}", file=sys.stderr)
        return EXIT_OK
    try:
        stored = path.read_text(encoding="utf-8").strip()
        num, den = _parse_parts(stored, ARITY)
    except OSError as exc:
        return _fail_path("golden file", path, exc)
    except (ValueError, ZeroDivisionError) as exc:  # not UTF-8, bad text, zero den
        return _fail_usage(f"golden file {path} does not parse: {exc}")
    if num * result.value.den != result.value.num * den:
        return _fail_mismatch(
            f"golden file {path} holds {stored}, computed {rendered}"
        )
    return EXIT_OK


def cmd_js(args):
    degrees = (args.l1, args.l2, args.l3)
    if sum(degrees) != -2:
        return _fail_usage(
            f"geometry degrees must sum to -2 (Calabi-Yau condition), got {degrees}"
        )
    geom = SplitGeometry(*degrees)
    if args.method == "closed" and geom.degrees != GEOM_STANDARD.degrees:
        return _fail_usage(
            "the closed formula is specific to the (-1, -1, 0) geometry"
        )
    try:
        if args.method == "closed":
            result = js_invariant_closed_form(args.n, args.d, audit=args.audit)
        else:
            result = js_invariant_enumerated(args.n, args.d, geom, audit=args.audit)
    except ValueError as exc:
        return _fail_usage(str(exc))

    if args.format == "json":
        _dump_json(_js_report(result, args.timings, args.audit))
    else:
        if args.audit and result.contributions is not None:
            for label, value in result.contributions:
                print(f"{label}: {ratfun_str(value)}")
        print(ratfun_str(result.value))
    if args.golden:
        return _golden_js(args.golden, result)
    return EXIT_OK


# -- verify --------------------------------------------------------------------------


def _same_row(row, expected):
    """True when row reads as expected as JSON text, where 1.0 and false do
    not pass for 1 and 0; a row unequal to the flat expected row is never
    dumped, so no nesting in it reaches the encoder."""
    return row == expected and (
        json.dumps(row, sort_keys=True) == json.dumps(expected, sort_keys=True))


def _checked_row(row, sweep):
    """The row, once it is a row of the sweep and reads as the row the sweep
    writes for its (n, d); ValueError otherwise.  The conjectured row is
    tried first, so only a row that differs from it is recomputed."""
    key = sweep.get((row["n"], row["d"]))
    if key is None:
        raise ValueError(f"n={row['n']!r}, d={row['d']!r} is not a row of this sweep")
    if not _same_row(row, conjectured_row(*key)):
        fresh = _verify_row(key)
        if not _same_row(row, fresh):
            raise ValueError(f"the row should read {json.dumps(fresh, sort_keys=True)}")
    return row


def _load_checkpoint(path, d_max, ratio_max):
    """Re-checked rows of the sweep by (n, d), and the length of the file's
    complete lines: an unterminated last line is a write torn by a crash and
    is dropped."""
    # each (n, d) maps to itself, so that a row's 1.0 or true finds the ints
    sweep = {key: key for key in _sweep_grid(d_max, ratio_max)}
    data = path.read_bytes() if path.exists() else b""
    complete = data[: data.rfind(b"\n") + 1]
    rows_done = {}
    for number, line in enumerate(complete.splitlines(), 1):
        try:
            if line.strip():
                row = _checked_row(_decode_json(line.decode("utf-8"), "the line"), sweep)
                rows_done[(row["n"], row["d"])] = row
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"line {number} is malformed: {exc!r}") from exc
    return rows_done, len(complete)


def cmd_verify(args):
    if args.d_max < 1 or args.ratio_max < 1:
        return _fail_usage("--d-max and --ratio-max must be at least 1")
    rows_done = {}
    on_row = None
    handle = None
    if args.checkpoint:
        path = Path(args.checkpoint)
        try:
            rows_done, complete = _load_checkpoint(path, args.d_max, args.ratio_max)
            handle = path.open("a", encoding="utf-8")
        except ValueError as exc:
            return _fail_usage(f"checkpoint {path}: {exc}")
        except OSError as exc:
            return _fail_path("checkpoint", path, exc)
        handle.truncate(complete)

        def on_row(row):
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            handle.flush()

    try:
        report = verify_conjecture(
            args.d_max, args.ratio_max, jobs=args.jobs,
            rows_done=rows_done, on_row=on_row,
        )
    finally:
        if handle is not None:
            handle.close()

    if args.format == "json":
        _dump_json(report)
    else:
        for row in report["rows"]:
            print(
                f"n={row['n']} d={row['d']} value={row['value']} "
                f"status={row['conjecture_status']}"
            )
        verdict = "OK" if report["ok"] else "COUNTEREXAMPLE"
        print(f"checked {len(report['rows'])} invariants: {verdict}")
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


# -- residues ------------------------------------------------------------------------


def cmd_residues(args):
    if args.d < 1:
        return _fail_usage("--d must be at least 1")
    report = residue_vanishing_check(args.d)
    if args.format == "json":
        _dump_json(report)
    else:
        for row in report["poles"]:
            status = "ok" if row["ok"] else "NONZERO"
            print(
                f"m={row['m']} residue={row['residue']} "
                f"printed={row['printed_form']} {status}"
            )
        print(f"phi identically zero: {report['phi_is_zero']}")
        print(f"residue check for n={report['n']}, d={report['d']}: "
              f"{'OK' if report['ok'] else 'FAILED'}")
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


# -- series --------------------------------------------------------------------------


def _load_gv_table(path, deg_max):
    data = _decode_json(Path(path).read_text(encoding="utf-8"), path)
    return GVTable.from_json(data, dmax=deg_max)


def _parse_t(text, side):
    if text == "inf":
        return TParam.infinity()
    if text == "0+":
        return TParam.zero_plus()
    value = parse_frac(text)
    if side == "plus":
        return TParam.plus(value)
    if side == "minus":
        return TParam.minus(value)
    return TParam.exact(value)


def cmd_series_pt(args):
    try:
        gv = _load_gv_table(args.gv_file, args.deg_max)
        t = _parse_t(args.t, args.side)
    except INPUT_ERRORS as exc:
        return _fail_usage(f"cannot read inputs: {exc}")
    if args.n_max < 0:
        return _fail_usage("--n-max must be nonnegative")

    try:
        series = pt_series_from_gv(t, gv, args.n_max)
        memo = {}
        rows = []
        consistent = True
        n_top = _top_n(gv, args.n_max)
        for beta in gv.lattice.classes():
            for n in range(n_top + 1):
                from_series = math.factorial(n) * series.coefficient(n, beta)
                from_recursion = pt_coeff_from_gv(t, n, beta, gv, memo)
                if from_series != from_recursion:
                    consistent = False
                if from_series or from_recursion:
                    rows.append(
                        {
                            "n": n,
                            "beta": list(beta),
                            "invariant": frac_str(from_recursion),
                            "series_product": frac_str(from_series),
                            "ok": from_series == from_recursion,
                        }
                    )
    except WallError as exc:
        return _fail_usage(f"{exc} (pass --side plus or --side minus)")

    _dump_json(
        {
            "t": t.label(),
            "n_max": args.n_max,
            "rank": gv.lattice.rank,
            "omega": list(gv.lattice.omega),
            "deg_max": gv.lattice.dmax,
            "coefficients": rows,
            "ok": consistent,
        }
    )
    return EXIT_OK if consistent else EXIT_MISMATCH


def cmd_series_wallcheck(args):
    try:
        gv = _load_gv_table(args.gv_file, args.deg_max)
        t0 = parse_frac(args.t0)
        if t0 <= 0:
            raise ValueError(f"wall location must be positive, got {t0}")
    except INPUT_ERRORS as exc:
        return _fail_usage(f"cannot read inputs: {exc}")
    if args.n_max < 0:
        return _fail_usage("--n-max must be nonnegative")
    report = wall_jump_check(t0, gv, args.n_max)
    _dump_json(report)
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def _load_gw_data(path, deg_max):
    """Lattice, gw0, gw1, n0_c2 and meeting tables; without ``deg_max`` the
    lattice also reaches the degree of every meeting pair."""
    data = _decode_json(Path(path).read_text(encoding="utf-8"), path)
    rank, omega, tables = _read_class_tables(data, GW_TABLES)
    tables = {name: table or {} for name, table in tables.items()}
    classes = [beta for name in GW_TABLES for beta in tables[name]]
    classes += [tuple(a + b for a, b in zip(*pair)) for pair in tables["meeting"]]
    lattice = _bounded_lattice(rank, omega, deg_max, classes)
    return (lattice, *(tables[name] for name in GW_TABLES), tables["meeting"])


def cmd_series_gvinvert(args):
    try:
        lattice, gw0, gw1, n0_c2, meeting = _load_gw_data(
            args.gv_file, args.deg_max
        )
    except INPUT_ERRORS as exc:
        return _fail_usage(f"cannot read inputs: {exc}")

    n0 = gv0_from_gw(gw0, lattice)
    n1 = gv1_extract(gw1, n0_c2, meeting, lattice)

    # the round trip covers the classes the lattice holds, up to --deg-max
    gw0, gw1 = ({b: v for b, v in table.items() if v and lattice.deg(b) <= lattice.dmax}
                for table in (gw0, gw1))
    round_trip_ok = True
    if gw0_from_gv0(n0, lattice) != gw0:
        round_trip_ok = False
        print("mismatch: genus-zero inversion does not round-trip", file=sys.stderr)
    if gw1_assemble(n1, n0_c2, meeting, lattice) != gw1:
        round_trip_ok = False
        print("mismatch: genus-one inversion does not round-trip", file=sys.stderr)

    _dump_json(
        {
            "rank": lattice.rank,
            "omega": list(lattice.omega),
            "deg_max": lattice.dmax,
            "n0": {json.dumps(list(b)): frac_str(v) for b, v in sorted(n0.items())},
            "n1": {json.dumps(list(b)): frac_str(v) for b, v in sorted(n1.items())},
            "round_trip_ok": round_trip_ok,
        }
    )
    return EXIT_OK if round_trip_ok else EXIT_MISMATCH


# -- parser --------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stablepairs",
        description="Equivariant stable-pair invariants of local curves and "
        "wall-crossing series checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through _jobs only when the subcommand runs
    jobs_default = os.environ.get("STABLEPAIRS_JOBS", "1")

    js = sub.add_parser("js", help="compute one invariant P(n, d)")
    js.add_argument("--n", type=int, required=True, help="Euler characteristic")
    js.add_argument("--d", type=int, required=True, help="curve degree")
    js.add_argument("--l1", type=int, default=-1, help="degree of L1 (default -1)")
    js.add_argument("--l2", type=int, default=-1, help="degree of L2 (default -1)")
    js.add_argument("--l3", type=int, default=0, help="degree of L3 (default 0)")
    js.add_argument(
        "--method", choices=("enum", "closed"), default="enum",
        help="fixed-point enumeration (default) or the closed product formula",
    )
    js.add_argument("--format", choices=("text", "json"), default="text")
    js.add_argument("--jobs", type=_jobs, default=jobs_default)
    js.add_argument(
        "--golden", metavar="PATH",
        help="compare against (or create) a golden value file",
    )
    js.add_argument(
        "--audit", action="store_true",
        help="also report the per-fixed-point contributions",
    )
    js.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings in JSON output (breaks byte determinism)",
    )
    js.set_defaults(func=cmd_js)

    verify = sub.add_parser(
        "verify", help="sweep P(n, d) against the conjectured values"
    )
    verify.add_argument("--d-max", type=int, required=True)
    verify.add_argument("--ratio-max", type=int, required=True)
    verify.add_argument("--jobs", type=_jobs, default=jobs_default)
    verify.add_argument(
        "--checkpoint", metavar="PATH",
        help="JSON-lines file of finished rows; appended to, read to resume",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    residues = sub.add_parser(
        "residues", help="residue certificate that P(2d, d) vanishes"
    )
    residues.add_argument("--d", type=int, required=True)
    residues.add_argument("--format", choices=("text", "json"), default="text")
    residues.set_defaults(func=cmd_residues)

    series = sub.add_parser("series", help="generating-series checks")
    series_sub = series.add_subparsers(dest="series_command", required=True)

    pt = series_sub.add_parser(
        "pt", help="stable-pair series from a table of integer-type invariants"
    )
    pt.add_argument("--gv-file", required=True, metavar="PATH")
    pt.add_argument("--n-max", type=int, required=True)
    pt.add_argument("--deg-max", type=int, default=None)
    pt.add_argument(
        "--t", required=True,
        help="stability parameter: a positive rational, 'inf', or '0+'",
    )
    pt.add_argument(
        "--side", choices=("exact", "plus", "minus"), default="exact",
        help="which side of t to take when t sits on a wall",
    )
    pt.set_defaults(func=cmd_series_pt)

    wallcheck = series_sub.add_parser(
        "wallcheck", help="verify the wall-crossing identities across one wall"
    )
    wallcheck.add_argument("--gv-file", required=True, metavar="PATH")
    wallcheck.add_argument("--t0", required=True, help="wall location (rational)")
    wallcheck.add_argument("--n-max", type=int, required=True)
    wallcheck.add_argument("--deg-max", type=int, default=None)
    wallcheck.set_defaults(func=cmd_series_wallcheck)

    gvinvert = series_sub.add_parser(
        "gvinvert",
        help="recover integer-type invariants from Gromov-Witten series data",
    )
    gvinvert.add_argument("--gv-file", required=True, metavar="PATH")
    gvinvert.add_argument("--deg-max", type=int, default=None)
    gvinvert.set_defaults(func=cmd_series_gvinvert)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # the exit-code contract: never a traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
