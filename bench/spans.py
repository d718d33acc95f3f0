"""Spans and counters recorded from outside the program.

A traced round wraps public functions of the ``stablepairs`` modules (every
module binding of each function is replaced, so calls between modules are
seen too) and records one span per call: its name ``layer.function``, start,
end, parent span and the item it served.  Spans stay in memory and leave the
process with the round's result.  An untraced round installs nothing.

The layers are the package's modules: ratfun, equivariant, localcurve,
series, cli.  ``bench.item`` spans belong to the harness itself.
"""
import sys
import time
from contextlib import contextmanager, nullcontext

LAYERS = ("ratfun", "equivariant", "localcurve", "series", "cli")

# span name -> per-layer metric summing the inclusive time of those spans
TIME_METRICS = {
    "ratfun.sum_factored": "ratfun.sum_factored_s",
    "ratfun.residue_at": "ratfun.residue_at_s",
    "ratfun.ratfun_add": "ratfun.ratfun_add_s",
    "equivariant.euler_factored": "equivariant.euler_factored_s",
    "localcurve.enumerate": "localcurve.enumerate_s",
    "localcurve.half_obstruction": "localcurve.half_obstruction_s",
    "localcurve.closed_form": "localcurve.closed_form_s",
    "localcurve.residue_check": "localcurve.residue_check_s",
    "series.pt_series": "series.pt_series_s",
    "series.pt_coeff": "series.pt_coeff_s",
    "series.wall_jump": "series.wall_jump_s",
}

COUNT_METRICS = (
    "ratfun.den_degree",
    "ratfun.poles",
    "equivariant.kclass_terms",
    "localcurve.fixed_points",
    "localcurve.invariants",
    "series.series_terms",
    "series.walls",
)


class Tracer:
    """Span and counter store of one round; a disabled tracer records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [id, name, start, end, parent, item]
        self.stack = []
        self.item = None
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.cancelled_degree = 0
        self.forms = set()  # (item, linear form) pairs seen by euler_factored
        self.memo_hits = 0
        self.memo_misses = 0
        self.commands = []  # (subcommand, wall, cpu, jobs, replay wall)
        self.startup_s = 0.0

    def span(self, name):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        record = [len(self.spans), name, 0.0, 0.0,
                  self.stack[-1][0] if self.stack else None, self.item]
        self.spans.append(record)
        self.stack.append(record)
        record[2] = time.perf_counter()
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap(self, name, fn, after=None):
        """``fn`` with a span around each call; ``after(args, result)``
        updates counters outside the span."""

        def traced(*args, **kwargs):
            with self._span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced


class CountingMemo(dict):
    """Memo dict for ``pt_coeff_from_gv`` that counts lookups that hit."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def __contains__(self, key):
        found = dict.__contains__(self, key)
        if found:
            self.tracer.memo_hits += 1
        else:
            self.tracer.memo_misses += 1
        return found


def _rebind(original, replacement):
    """Point every ``stablepairs`` module binding of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "stablepairs":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer):
    """Wrap the program's layer functions for one traced round."""
    from stablepairs import equivariant, localcurve, ratfun, series

    def den_degree(args, result):
        """Common-denominator degree before reduction, and how much of it
        the reduction cancelled."""
        need = {}
        for term in args[0]:
            if term.is_zero():
                continue
            for form, e in term.forms.items():
                if e < 0:
                    need[form] = max(need.get(form, 0), -e)
        degree = sum(need.values())
        tracer.count("ratfun.den_degree", degree)
        tracer.cancelled_degree += degree - max(result.den.total_degree(), 0)

    def kclass_terms(args, result):
        tracer.count("equivariant.kclass_terms", len(args[0].terms))
        tracer.forms.update((tracer.item, form) for form in result.forms)

    def fixed_points(args, result):
        tracer.count("localcurve.fixed_points", len(result))

    def invariant(args, result):
        tracer.count("localcurve.invariants")

    def pole(args, result):
        tracer.count("ratfun.poles")

    def series_terms(args, result):
        tracer.count("series.series_terms", len(result.coeffs))

    def wall(args, result):
        tracer.count("series.walls")

    targets = [
        (ratfun.sum_factored, "ratfun.sum_factored", den_degree),
        (ratfun.residue_at, "ratfun.residue_at", pole),
        (equivariant.euler_factored, "equivariant.euler_factored", kclass_terms),
        (localcurve.enumerate_fixed_points, "localcurve.enumerate", fixed_points),
        (localcurve.d1_fixed_points, "localcurve.enumerate", fixed_points),
        (localcurve.half_obstruction_general, "localcurve.half_obstruction", None),
        (localcurve.half_obstruction_d1, "localcurve.half_obstruction", None),
        (localcurve.js_invariant_enumerated, "localcurve.enumerated", invariant),
        (localcurve.js_invariant_closed_form, "localcurve.closed_form", invariant),
        (localcurve.verify_conjecture, "localcurve.verify_conjecture", None),
        (localcurve.residue_vanishing_check, "localcurve.residue_check", None),
        (series.pt_series_from_gv, "series.pt_series", series_terms),
        (series.wall_jump_check, "series.wall_jump", wall),
    ]
    for fn, name, after in targets:
        _rebind(fn, tracer.wrap(name, fn, after))
    ratfun.RatFun.__add__ = tracer.wrap("ratfun.ratfun_add", ratfun.RatFun.__add__)


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    selfs = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            selfs[parent] -= end - start
    return selfs


def layer_metrics(tracer, run_s):
    """The per-layer metrics of one traced round."""
    spans = tracer.spans
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        layer = span[1].split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += own
    out["bench.unattributed_s"] = run_s - sum(out[f"{layer}.self_s"] for layer in LAYERS)

    for metric in TIME_METRICS.values():
        out[metric] = 0.0
    for _, name, start, end, _, _ in spans:
        if name in TIME_METRICS:
            out[TIME_METRICS[name]] += end - start

    out.update(tracer.counts)
    den = tracer.counts["ratfun.den_degree"]
    out["ratfun.cancelled_degree_ratio"] = tracer.cancelled_degree / den if den else 0.0
    out["equivariant.distinct_forms"] = len(tracer.forms)
    lookups = tracer.memo_hits + tracer.memo_misses
    out["series.memo_hit_ratio"] = tracer.memo_hits / lookups if lookups else 0.0

    out["cli.command_s.js"] = sum(c[1] for c in tracer.commands if c[0] == "js")
    out["cli.command_s.verify"] = sum(c[1] for c in tracer.commands if c[0] == "verify")
    out["cli.startup_s"] = tracer.startup_s
    out["cli.overhead_s"] = sum(c[1] - c[4] for c in tracer.commands)
    capacity = sum(c[1] * c[3] for c in tracer.commands)
    out["cli.parallel_efficiency"] = (
        sum(c[2] for c in tracer.commands) / capacity if capacity else 0.0
    )
    return out
