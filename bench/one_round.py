"""One round of one workload, in a fresh process; started by ``run.py``.

Usage: python3 bench/one_round.py '<spec json>'

The spec names the workload, the case file, the ``src`` directory, whether to
trace, whether to stop after set-up, the monotonic time at which the parent
started this process, and the run's deadline.  Prints one JSON object:
set-up and run timings, CPU, peak memory, one record per item and, when
traced, the per-layer metrics and spans.
"""
import json
import os
import resource
import sys
import time


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import stablepairs

    package_dir = os.path.join(spec["src"], "stablepairs")
    if os.path.dirname(os.path.abspath(stablepairs.__file__)) != package_dir:
        raise SystemExit(f"stablepairs imported from {stablepairs.__file__}, not {package_dir}")

    import spans
    from workloads import Round

    with open(spec["cases"], encoding="utf-8") as handle:
        cases = json.load(handle)
    tracer = spans.Tracer(spec["trace"])
    if tracer.enabled:
        spans.instrument(tracer)
    round_ = Round(spec["workload"], cases, tracer, spec["deadline"])
    setup_s = time.monotonic() - spec["spawned"]
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return

    if tracer.enabled and spec["workload"] == "wide":
        round_.startup_probe()

    cpu0 = cpu_seconds()
    start = time.perf_counter()
    items = round_.run()
    run_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu0

    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "traced": tracer.enabled,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "items": items,
    }
    if tracer.enabled:
        result["layers"] = spans.layer_metrics(tracer, run_s)
        result["spans"] = [
            {"id": i, "name": name, "start": s - start, "end": e - start,
             "parent": parent, "item": item}
            for i, name, s, e, parent, item in tracer.spans
        ]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
