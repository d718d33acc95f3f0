"""The benchmark's traced mode against the package: ``bench/spans.py`` wraps
package functions by name and sees only calls made through module bindings.

A subprocess (instrumenting rebinds module attributes for good) imports
``bench/spans.py``, instruments an enabled tracer, makes one small call per
layer and reports each span with its parent.  A renamed or deleted function,
or a call that no longer goes through its module binding, shows up here
rather than as a silently empty metric.  ``bench/`` is only read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, time
from fractions import Fraction
import spans
from stablepairs import localcurve, series

tracer = spans.Tracer(True)
spans.instrument(tracer)
start = time.perf_counter()
localcurve.js_invariant_enumerated(4, 2)
localcurve.js_invariant_enumerated(3, 1)
localcurve.verify_conjecture(1, 2)
localcurve.residue_vanishing_check(1)
lattice = series.ClassLattice(1, (1,), 3)
gv = series.GVTable(lattice, n0={(1,): 1, (2,): 2})
series.wall_jump_check(Fraction(1, 2), gv, 2)
metrics = spans.layer_metrics(tracer, time.perf_counter() - start)
names = [span[1] for span in tracer.spans]

def ancestors(parent):
    while parent is not None:
        yield names[parent]
        parent = tracer.spans[parent][4]

print(json.dumps({
    "spans": [[name, None if parent is None else names[parent]]
              for _, name, _, _, parent, _ in tracer.spans],
    "ancestors": [[name, list(ancestors(parent))]
                  for _, name, _, _, parent, _ in tracer.spans],
    "metrics": metrics,
}))
"""


def traced_run():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_calls_reach_every_wrapped_function():
    report = traced_run()
    pairs = {tuple(pair) for pair in report["spans"]}
    for child, parent in [
        ("localcurve.enumerate", "localcurve.enumerated"),
        ("localcurve.half_obstruction", "localcurve.enumerated"),
        ("equivariant.euler_factored", "localcurve.enumerated"),
        ("ratfun.sum_factored", "localcurve.enumerated"),
        ("localcurve.verify_conjecture", None),
        ("localcurve.closed_form", "localcurve.verify_conjecture"),
        ("ratfun.sum_factored", "localcurve.closed_form"),
        ("localcurve.residue_check", None),
        ("ratfun.sum_factored", "localcurve.residue_check"),
        ("series.wall_jump", None),
        ("series.pt_series", "series.wall_jump"),
    ]:
        assert (child, parent) in pairs, (child, parent)
    # the certificate's residues are int products: no generic RatFun step
    # runs anywhere beneath it
    under_residue_check = {name for name, above in report["ancestors"]
                           if "localcurve.residue_check" in above}
    assert not under_residue_check & {"ratfun.residue_at", "ratfun.ratfun_add"}
    metrics = report["metrics"]
    # (4,2) and degree one at n = 3 have 3 fixed points each; the sweep's
    # (1,1) and (2,1) have 1 and 2
    assert metrics["localcurve.fixed_points"] == 3 + 3 + 1 + 2
    assert metrics["localcurve.invariants"] == 2 + 2
    assert metrics["series.walls"] == 1
