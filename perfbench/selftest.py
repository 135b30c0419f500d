"""Self-tests of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

They smoke-run each workload at a tiny size, check that a wrong reference or a
time cap is counted as a failure rather than a crash, and check that every
per-layer metric is nonzero on the workload that exercises it, which catches a
missed namespace rebinding.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

import run as bench

workloads = bench.load_freediv()
import layers  # noqa: E402  (needs freediv on the path)

SEED = 7

# Metrics that must be nonzero on each workload, from the layer table in README.md.
EXERCISED = {
    "binomial_grid": [
        "poly.squarefree_gcd.calls", "poly.squarefree_gcd.self_s",
        "poly.squarefree_gcd.in_terms_max", "poly.squarefree_gcd.per_cert",
        "poly.poly_gcd.calls", "poly.parse_poly.self_s", "matrices.det.calls",
        "matrices.det.crosschecked_calls", "families.calls", "families.self_s",
    ],
    "jet_tower": [
        "poly.squarefree_gcd.calls", "poly.squarefree_gcd.self_s", "poly.mul.calls",
        "poly.mul.busy_s", "poly.divide_exact.calls", "poly.divide_exact.busy_s",
        "poly.poly_gcd.self_s", "matrices.det.self_s", "matrices.det.n_max",
        "saito.verify_saito.calls", "saito.verify_saito.self_s", "saito.frame_divisor.self_s",
        "saito.euler_frame.self_s", "saito.hilbert_burch_from_framed.self_s",
        "families.calls", "families.self_s",
    ],
    "refute_syzygy": [
        "poly.mul.calls", "poly.mul.busy_s", "poly.substitute.self_s", "linalg.rref.calls",
        "linalg.rref.self_s", "linalg.rref.cells", "linalg.bounded_syzygy_solve.self_s",
        "saito.free_multiple_via_xifi.self_s", "obstruction.smooth_times_nc_verdict.calls",
        "obstruction.smooth_times_nc_verdict.self_s",
    ],
    "cli_oneshot": [
        "cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "cli.corpus_run_ms",
        "poly.poly_to_str.self_s", "linalg.euler_annihilators.self_s",
    ],
}
# Zero on every workload of a correct program; README.md says why.
ZERO_AT_SEED = {"linalg.graded_membership.self_s", "saito.verify_saito.reject_share"}


def setUpModule():
    signal.signal(signal.SIGALRM, bench._on_alarm)


def _run_items(items) -> bench.Run:
    run = bench.Run(SEED, workloads.out_terms)
    for item in items:
        run.one(item)
    return run


class SmokeTest(unittest.TestCase):
    def test_each_workload_passes_its_references(self):
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                wl = workloads.build(name, SEED, bench.ROOT)
                run = _run_items(wl.rounds[0][:5])
                self.assertEqual(run.failures, [])
                self.assertEqual(len(run.samples), 5)
                self.assertTrue(all(r["nvars"] >= 0 for r in run.records.values()))

    def test_seed_fixes_the_inputs(self):
        a = workloads.build("binomial_grid", SEED, bench.ROOT)
        b = workloads.build("binomial_grid", SEED, bench.ROOT)
        c = workloads.build("binomial_grid", SEED + 1, bench.ROOT)
        record = lambda wl: [it.record() for rnd in wl.rounds for it in rnd]  # noqa: E731
        self.assertEqual(record(a), record(b))
        self.assertNotEqual(record(a), record(c))
        self.assertEqual(len(record(a)), len(record(c)))

    def test_end_to_end_reports_the_benchmark_metrics(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        wl = workloads.build("binomial_grid", SEED, bench.ROOT)
        run, metrics, wall = bench.end_to_end(workloads, wl, SEED, 0.0, 0.5, bench.SpeedClock())
        self.assertEqual(run.failures, [])
        self.assertGreaterEqual(len(run.samples), bench.MIN_ITEMS)
        self.assertEqual(len(run.scaled), len(run.samples))
        self.assertEqual(set(wall), {"items_per_s", "latency_ms.p50", "latency_ms.p90"})
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(metrics))
        for m in spec["end_to_end"]:
            self.assertEqual(metrics[m["name"]][1], m["unit"])
            self.assertGreater(metrics[m["name"]][0], 0)
        self.assertEqual([m["name"] for m in spec["per_layer"]], [n for n, _ in layers.METRICS])
        self.assertEqual([m["unit"] for m in spec["per_layer"]], [u for _, u in layers.METRICS])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))


class FailureCountingTest(unittest.TestCase):
    def test_wrong_reference_is_a_failure_not_a_crash(self):
        original = workloads._chain_value
        workloads._chain_value = lambda t, p: original(t, p) + 1
        try:
            item = workloads._chain_item("chain", (2, 3, 2), ("x1", "x2", "x3"))
            run = _run_items([item, item])
        finally:
            workloads._chain_value = original
        self.assertEqual(len(run.samples), 2)
        self.assertEqual(len(run.failures), 2)
        self.assertIn("closed form", run.failures[0][1])

    def test_unreadable_result_is_a_failure(self):
        wl = workloads.build("refute_syzygy", SEED, bench.ROOT)
        item = wl.rounds[0][0]
        item.run = lambda: "not a report"
        run = _run_items([item])
        self.assertEqual(len(run.failures), 1)

    def test_in_process_time_cap(self):
        wl = workloads.build("jet_tower", SEED, bench.ROOT)
        item = wl.rounds[0][0]
        item.run = lambda: time.sleep(5)
        cap, bench.ITEM_CAP_S = bench.ITEM_CAP_S, 0.05
        try:
            run = _run_items([item])
        finally:
            bench.ITEM_CAP_S = cap
        self.assertEqual(len(run.failures), 1)
        self.assertIn("time cap", run.failures[0][1])
        self.assertLess(run.samples[0][1], 1.0)

    def test_cli_time_cap(self):
        item = workloads._cli_item("corpus-run", ["corpus", "run"], None, bench.ROOT, {})
        cap, workloads.CLI_TIMEOUT_S = workloads.CLI_TIMEOUT_S, 0.001
        try:
            run = _run_items([item])
        finally:
            workloads.CLI_TIMEOUT_S = cap
        self.assertEqual(len(run.failures), 1)
        self.assertIn("time cap", run.failures[0][1])

    def test_changed_stdout_is_a_failure(self):
        seen = {"parse": "{}"}
        msg = workloads.check_cli_output("parse", 0, '{"num_terms": 2}', lambda d: True, seen)
        self.assertIn("differs", msg)

    def test_missing_sources_exit_nonzero_without_a_result(self):
        bare = os.path.join(bench.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jet_tower",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class LayerMetricsTest(unittest.TestCase):
    def test_every_layer_metric_is_nonzero_where_exercised(self):
        nonzero = set()
        for name in bench.WORKLOADS:
            wl = workloads.build(name, SEED, bench.ROOT)
            run, metrics, notes, _ = bench.traced(workloads, wl, SEED, bench.SpeedClock())
            with self.subTest(workload=name):
                self.assertEqual(run.failures, [])
                self.assertEqual(list(metrics), [n for n, _ in layers.METRICS])
                self.assertEqual(len(notes), 1)
                for metric in EXERCISED[name]:
                    self.assertNotEqual(metrics[metric][0], 0, metric)
            nonzero |= {m for m, (v, _) in metrics.items() if v}
        self.assertEqual({n for n, _ in layers.METRICS} - nonzero, ZERO_AT_SEED)

    def test_uninstall_restores_freediv(self):
        import freediv
        from freediv.poly import Poly

        before = (freediv.parse_poly, freediv.poly.parse_poly, Poly.__mul__)
        tracer = layers.Tracer()
        tracer.install()
        self.assertIsNot(freediv.poly.parse_poly, before[1])
        tracer.uninstall()
        self.assertEqual((freediv.parse_poly, freediv.poly.parse_poly, Poly.__mul__), before)


if __name__ == "__main__":
    unittest.main()
