"""Smoke tests of the benchmark itself, at a seconds-scale size of each workload.

Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stablepairs.ratfun import RatFun  # noqa: E402

SEED = 7


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeRuns(unittest.TestCase):
    """One untraced and one traced smoke run of every workload."""

    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.results, cls.reports, cls.spans = {}, {}, {}
        for workload in cases.WORKLOADS:
            for trace in (0, 1):
                proc = run_bench(workload, trace)
                assert proc.returncode == 0, proc.stderr
                cls.results[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
                name = f"{workload}-seed{SEED}-trace{trace}"
                cls.reports[workload, trace] = json.loads(
                    (BENCH / "out" / f"{name}.json").read_text())
                if trace:
                    cls.spans[workload] = json.loads(
                        (BENCH / "out" / f"{name}-spans.json").read_text())

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                declared = self.declared["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                for metric in declared:
                    printed = result["metrics"][metric["name"]]
                    self.assertEqual(printed["unit"], metric["unit"])
                    self.assertIsInstance(printed["value"], (int, float))
                if not trace:
                    for name, printed in result["metrics"].items():
                        self.assertGreater(printed["value"], 0, name)

    def test_traced_and_untraced_rounds_give_identical_outputs(self):
        for workload in cases.WORKLOADS:
            with self.subTest(workload=workload):
                rounds = self.reports[workload, 1]["rounds"] + self.reports[workload, 0]["rounds"]
                outputs = {r["traced"]: [(i["id"], i["output"]) for i in r["items"]]
                           for r in rounds}
                self.assertEqual(set(outputs), {False, True})
                for r in rounds:
                    self.assertEqual([(i["id"], i["output"]) for i in r["items"]],
                                     outputs[False])

    def test_layers_stay_idle_where_the_workload_does_not_use_them(self):
        idle = {"deep": {"series", "cli"},
                "wide": {"series"},
                "certificate": {"equivariant", "series", "cli"},
                "wallcross": {"ratfun", "equivariant", "localcurve", "cli"}}
        for workload, layers in idle.items():
            with self.subTest(workload=workload):
                seen = {s["name"].split(".")[0] for rnd in self.spans[workload] for s in rnd}
                self.assertFalse(seen & layers, seen)
                self.assertIn("bench", seen)

    def test_layer_self_times_account_for_the_traced_run(self):
        for workload in cases.WORKLOADS:
            for rnd in self.reports[workload, 1]["rounds"]:
                if not rnd["traced"]:
                    continue
                layers = rnd["layers"]
                attributed = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
                with self.subTest(workload=workload):
                    self.assertAlmostEqual(attributed + layers["bench.unattributed_s"],
                                           rnd["run_s"], places=9)
                    self.assertGreaterEqual(layers["bench.unattributed_s"], 0.0)
                    self.assertLess(layers["bench.unattributed_s"], 0.5 * rnd["run_s"])


class Failures(unittest.TestCase):
    def round_of(self, workload):
        return workloads.Round(workload, cases.make_cases(workload, SEED, smoke=True),
                               spans.Tracer(False), time.monotonic() + 120)

    def test_wrong_reference_value_is_counted_not_raised(self):
        original = workloads.reference_value
        workloads.reference_value = lambda n, d: RatFun.one()
        try:
            for workload in ("deep", "wide"):
                items = self.round_of(workload).run()
                js_items = [i for i in items if "js(" in i["id"]]
                self.assertTrue(js_items)
                self.assertTrue(all(not i["ok"] and i["problems"] for i in js_items))
        finally:
            workloads.reference_value = original

    def test_exception_in_an_item_is_counted_not_raised(self):
        rnd = self.round_of("certificate")
        rnd.cases = [{"id": "residues(None)", "d": None}, {"id": "residues(2)", "d": 2}]
        items = rnd.run()
        self.assertFalse(items[0]["ok"])
        self.assertTrue(items[1]["ok"])

    def test_refuses_to_run_without_the_program(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("deep", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class Inputs(unittest.TestCase):
    def test_same_seed_same_cases(self):
        for workload in cases.WORKLOADS:
            self.assertEqual(cases.make_cases(workload, 3), cases.make_cases(workload, 3))
        self.assertNotEqual(cases.make_cases("wallcross", 3), cases.make_cases("wallcross", 4))


if __name__ == "__main__":
    unittest.main()
