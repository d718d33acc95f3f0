"""What one round of each workload runs, and how each output is checked.

Every item runs inside a ``bench.item`` span and fails, rather than raising,
on a wrong value, a non-zero exit, an exception or a timeout.  The program is
called through its module attributes, so a traced round sees the wrappers
that ``spans.instrument`` installed.  References: ``reference_value`` for
invariants (the conjectured 1/(d! l3^d) or 0), the binomial count of
fixed points, residues and coefficients compared exactly.
"""
import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

from stablepairs import localcurve, ratfun, series

from spans import CountingMemo


def reference_value(n, d):
    return localcurve.expected_conjecture_value(n, d)


def fixed_point_reference(n, d):
    """Weak compositions of d into n/d parts."""
    return math.comb(n // d + d - 1, d)


def digest(output):
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()[:16]


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_command(argv, env, deadline):
    """Run one command in its own process group; returns (code, stdout, wall, cpu).

    On timeout the whole group, pool workers included, is killed and reaped,
    and the code is None.
    """
    cpu0 = children_cpu()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        code = None
    wall = time.perf_counter() - start
    return code, stdout.decode(), wall, children_cpu() - cpu0


class Round:
    """One round of one workload: its inputs, tracer and item results."""

    def __init__(self, workload, cases, tracer, deadline):
        self.workload = workload
        self.cases = cases
        self.tracer = tracer
        self.deadline = deadline
        self.items = []
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(localcurve.__file__)))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.tables = []
        if workload == "wallcross":
            # loading the class tables is part of set-up
            self.tables = [
                series.GVTable.from_json(case["table"], dmax=case["dmax"]) for case in cases
            ]

    def item(self, item_id, check):
        """Run ``check()`` as one item; it returns (problems, output)."""
        tracer = self.tracer
        tracer.item = item_id
        problems, output = [], None
        with tracer.span("bench.item"):
            try:
                if time.monotonic() > self.deadline:
                    problems = ["timeout"]
                else:
                    problems, output = check()
            except Exception as exc:  # an item fails, the round goes on
                problems = [f"{type(exc).__name__}: {exc}"]
        tracer.item = None
        self.items.append(
            {"id": item_id, "ok": not problems, "problems": problems,
             "output": digest(output)}
        )

    def run(self):
        getattr(self, f"run_{self.workload}")()
        return self.items

    # -- deep: in-process enumeration at high degree ----------------------------

    def run_deep(self):
        for case in self.cases:
            self.item(case["id"], lambda case=case: self.check_invariant(case["n"], case["d"]))

    def check_invariant(self, n, d):
        result = localcurve.js_invariant_enumerated(n, d, jobs=1)
        problems = []
        if result.value != reference_value(n, d):
            problems.append(f"value {ratfun.ratfun_str(result.value)}")
        if result.fixed_point_count != fixed_point_reference(n, d):
            problems.append(f"fixed_point_count {result.fixed_point_count}")
        output = {"value": ratfun.ratfun_str(result.value),
                  "fixed_point_count": result.fixed_point_count}
        return problems, output

    # -- wide: the command, as a user runs it ---------------------------------------

    def startup_probe(self):
        """Wall time of the smallest command: interpreter, import, parser."""
        argv = [sys.executable, "-m", "stablepairs.cli", "js", "--n", "1", "--d", "1"]
        code, stdout, wall, _ = run_command(argv, self.env, self.deadline)
        if code != 0 or stdout.strip() != ratfun.ratfun_str(reference_value(1, 1)):
            raise RuntimeError(f"startup probe failed with exit code {code}")
        self.tracer.startup_s = wall

    def run_wide(self):
        for case in self.cases:
            self.item(case["id"], lambda case=case: self.check_command(case))

    def check_command(self, case):
        tracer = self.tracer
        argv = [sys.executable, "-m", "stablepairs.cli"] + case["argv"]
        with tracer.span(f"cli.{case['command']}"):
            code, stdout, wall, cpu = run_command(argv, self.env, self.deadline)
        if code != 0:
            return [f"exit code {code}"], None
        report = json.loads(stdout)
        if case["command"] == "js":
            n, d = case["n"], case["d"]
            problems = []
            if ratfun.ratfun_parse(report["value"], 4) != reference_value(n, d):
                problems.append(f"value {report['value']}")
            if report["fixed_point_count"] != fixed_point_reference(n, d):
                problems.append(f"fixed_point_count {report['fixed_point_count']}")
            output = {"value": report["value"],
                      "fixed_point_count": report["fixed_point_count"]}
        else:
            rows = case["d_max"] * case["ratio_max"]
            problems = [] if report["ok"] is True and len(report["rows"]) == rows else ["verify"]
            output = report
        if tracer.enabled:
            problems += self.replay(case, output, wall, cpu)
        return problems, output

    def replay(self, case, output, wall, cpu):
        """Re-run the command's library call in process, stage by stage
        under the tracer; it must give the command's value."""
        start = time.perf_counter()
        if case["command"] == "js":
            result = localcurve.js_invariant_enumerated(case["n"], case["d"], jobs=1)
            replayed = {"value": ratfun.ratfun_str(result.value),
                        "fixed_point_count": result.fixed_point_count}
        else:
            replayed = localcurve.verify_conjecture(case["d_max"], case["ratio_max"], jobs=1)
        replay_wall = time.perf_counter() - start
        self.tracer.commands.append((case["command"], wall, cpu, case["jobs"], replay_wall))
        return [] if replayed == output else ["replay differs from the command"]

    # -- certificate: the n = 2d residue certificate ------------------------------

    def run_certificate(self):
        for case in self.cases:
            self.item(case["id"], lambda case=case: self.check_residues(case["d"]))

    def check_residues(self, d):
        report = localcurve.residue_vanishing_check(d)
        problems = []
        if not (report["ok"] and report["phi_is_zero"]):
            problems.append("certificate not ok")
        if len(report["poles"]) != 2 * d + 1 or any(r["residue"] != "0" for r in report["poles"]):
            problems.append("non-zero residue")
        return problems, report

    # -- wallcross: chamber series and wall jumps ---------------------------------

    def run_wallcross(self):
        for case, gv in zip(self.cases, self.tables):
            nmax = case["nmax"]
            for label, t in (("inf", series.TParam.infinity()),
                             ("0+", series.TParam.zero_plus())):
                self.item(f"{case['id']} series@{label}",
                          lambda t=t, gv=gv: self.check_series(t, gv, nmax))
            for deg in sorted({gv.lattice.deg(b) for b in gv.n0}, reverse=True):
                t0 = Fraction(1, deg)
                self.item(f"{case['id']} wall@{t0}",
                          lambda t0=t0, gv=gv: self.check_wall(t0, gv, nmax))

    def check_series(self, t, gv, nmax):
        """The chamber series against the ordered-decomposition recursion."""
        tracer = self.tracer
        chamber = series.pt_series_from_gv(t, gv, nmax)
        memo = CountingMemo(tracer) if tracer.enabled else {}
        problems, coefficients = [], []
        for beta in gv.lattice.classes():
            for n in range(nmax + 1):
                # pt_coeff_from_gv recurses through its module binding, so
                # it is traced here, at the harness's own calls
                with tracer.span("series.pt_coeff"):
                    value = series.pt_coeff_from_gv(t, n, beta, gv, memo)
                if math.factorial(n) * chamber.coefficient(n, beta) != value:
                    problems.append(f"coefficient n={n} beta={list(beta)}")
                if value:
                    coefficients.append([n, list(beta), str(value)])
        return problems, coefficients

    def check_wall(self, t0, gv, nmax):
        report = series.wall_jump_check(t0, gv, nmax)
        return ([] if report["ok"] else ["wall jump"]), report
