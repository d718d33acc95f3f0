"""The stablepairs benchmark: one workload, one seed, one JSON result.

Usage (from the repository root):

    python3 bench/run.py --workload deep --seed 1 --seconds 24 --trace 0

Runs rounds of the workload for about ``--seconds`` seconds.  Each round is a
fresh Python process (``one_round.py``) that imports the package from
``src/``, loads the seeded cases, computes every item and checks every output
exactly.  Rounds run one at a time, so at most the round's own worker pool
computes in parallel.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` (means over rounds; ``setup_s`` is the median of several
set-ups); ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (means over traced rounds) and ``trace_overhead_s``.  The last line of stdout is the result; the
line before it holds the run's metadata.  Full reports and spans go to
``bench/out/``.
"""
import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import WORKLOADS, make_cases

BENCH_DIR = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
MIN_ROUNDS = 3
# set-up is short and noisy, so untraced runs add set-up-only processes
SETUP_PROBES_PER_ROUND = 2


def commit_of(root):
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(src):
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def reap_group(pgid):
    """Kill what is left of a round's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_round(spec, deadline):
    """One round process; returns its result dict, or None when it failed."""
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "one_round.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        print(f"round timed out after {RUN_LIMIT_S} s", file=sys.stderr)
        return None
    finally:
        reap_group(proc.pid)
    if proc.returncode != 0:
        sys.stderr.write(stderr.decode())
        print(f"round exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.decode().splitlines()[-1])


def declared_metrics(root, trace):
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale cases, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "stablepairs" / "__init__.py").is_file():
        print(f"error: no stablepairs package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    metrics_declared = declared_metrics(root, args.trace)
    # the build step: rounds import from bytecode, as an installed package does,
    # whatever PYTHONDONTWRITEBYTECODE says
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(BENCH_DIR, maxlevels=0, quiet=1)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cases = make_cases(args.workload, args.seed, smoke=args.smoke)
    cases_file = out_dir / f"{name}-cases.json"
    cases_file.write_text(json.dumps(cases, indent=1))

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spec = {"workload": args.workload, "cases": str(cases_file), "src": str(src),
            "deadline": deadline}
    # trace runs alternate untraced and traced rounds: U T U T ...
    kinds = [False, True] if args.trace else [False]
    rounds, setups, attempted, failed = [], [], 0, 0
    longest = dict.fromkeys(kinds, 0.0)
    while True:
        traced = kinds[len(rounds) % len(kinds)]
        if len(rounds) >= MIN_ROUNDS * len(kinds) and len(rounds) % len(kinds) == 0:
            if time.monotonic() - start + sum(longest.values()) > args.seconds:
                break
        if time.monotonic() + longest[traced] > deadline:
            break
        began = time.monotonic()
        result = run_round(dict(spec, trace=traced, setup_only=False), deadline)
        if not args.trace:
            for _ in range(SETUP_PROBES_PER_ROUND):
                probe = run_round(dict(spec, trace=False, setup_only=True), deadline)
                if probe is not None:
                    setups.append(probe["setup_s"])
        longest[traced] = max(longest[traced], time.monotonic() - began)
        if result is None:
            attempted += len(cases)
            failed += len(cases)
            rounds.append({"traced": traced, "failed": True})
            continue
        attempted += len(result["items"])
        failed += sum(not item["ok"] for item in result["items"])
        rounds.append(result)

    done = [r for r in rounds if not r.get("failed")]
    untraced = [r for r in done if not r["traced"]]
    traced_rounds = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced_rounds):
        print("error: no round finished", file=sys.stderr)
        return 1

    # Timings are means over the rounds of the run: the rounds together are one
    # measurement of more work.  This sandbox's CPU speed switches between two
    # levels for seconds to minutes; a median over rounds jumps between them,
    # a mean moves with the share of time spent at each.
    def mean(rs, key):
        return statistics.fmean(r[key] for r in rs)

    if args.trace:
        values = {
            key: statistics.fmean(r["layers"][key] for r in traced_rounds)
            for key in traced_rounds[0]["layers"]
        }
        values["trace_overhead_s"] = mean(traced_rounds, "run_s") - mean(untraced, "run_s")
    else:
        values = {"run_s": mean(untraced, "run_s"), "cpu_s": mean(untraced, "cpu_s"),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
                  "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced])}
    missing = [m["name"] for m in metrics_declared if m["name"] not in values]
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metrics_declared}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_of(root),
        "src_lines": src_lines(src),
        "rounds": len(rounds),
        "rounds_traced": len(traced_rounds),
        "setup_probes": len(setups),
        "error_rate": failed / attempted,
        "cases": [case["id"] for case in cases],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"meta": meta, "result": result, "all_metrics": values,
              "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds]}
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=1))
    if traced_rounds:
        (out_dir / f"{name}-spans.json").write_text(
            json.dumps([r["spans"] for r in traced_rounds])
        )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
