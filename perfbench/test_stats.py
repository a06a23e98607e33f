"""Tests of the benchmark's own statistics and metric bookkeeping.

    python3 -m unittest discover -s perfbench
"""

import json
import math
import os
import unittest

import run
import stats


class TailTest(unittest.TestCase):
    def test_p99_when_enough_samples_lie_beyond(self):
        values = list(range(1, 2001))  # 1..2000
        value, pct = stats.tail(values)
        self.assertEqual(value, 1980)  # nearest rank 0.99 * 2000
        self.assertEqual(pct, 99.0)
        self.assertEqual(sum(v > value for v in values), 20)

    def test_lowered_to_keep_ten_samples_beyond(self):
        values = list(range(1, 101))  # p99 would leave only one beyond
        value, pct = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(v > value for v in values), stats.MIN_BEYOND)

    def test_smallest_sample_with_a_tail(self):
        value, pct = stats.tail(list(range(1, 22)))  # 21 samples
        self.assertEqual(value, 11)
        self.assertAlmostEqual(pct, 100.0 * 11 / 21)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (2.0, 50.0))
        self.assertEqual(stats.tail([7.5]), (7.5, 50.0))
        self.assertEqual(stats.tail(list(range(20))), (9.5, 50.0))

    def test_order_does_not_matter(self):
        values = [float(v % 97) for v in range(500)]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class GeomeanTest(unittest.TestCase):
    def test_known_values(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10)
        self.assertAlmostEqual(stats.geomean([2, 8]), 4)
        self.assertAlmostEqual(stats.geomean([5]), 5)

    def test_scale_invariance(self):
        base = [0.3, 1.7, 42.0, 0.01]
        self.assertAlmostEqual(stats.geomean([3 * v for v in base]),
                               3 * stats.geomean(base))

    def test_rejects_empty_and_non_positive(self):
        for bad in ([], [1.0, 0.0], [2.0, -1.0]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)


class FailedFracTest(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(stats.failed_frac(100, 0), 0.0)
        self.assertEqual(stats.failed_frac(100, 3), 0.03)
        self.assertEqual(stats.failed_frac(4, 4), 1.0)

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(stats.failed_frac(0, 0), 1.0)

    def test_more_failures_than_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failed_frac(2, 3)


def fake_raw(workload):
    """A raw perfbench result in the shape the binary prints."""
    family = run.OP_FAMILY[workload]
    raw = {"workload": workload, "seed": 1, "threads": 4, "trace": True,
           "peak_rss_mb": 50.0, "setup_s": [1.0, 1.2, 1.1],
           "compile_s": [2.0],
           "attempted": 200, "failed": 1, "failures": ["x"],
           "cells": {family: {"fs_csr": [1.0, 2.0, 3.0],
                              "lchol_csc": [4.0] * 30}},
           "samples": {}, "values": {"driver.visits": 7}}
    if workload == "solve":
        for fam in ("plan", "inspect", "schedule", "serial", "parallelism"):
            raw["cells"][fam] = {"fs_csc/m": [2.0, 3.0]}
        raw["cells"]["exec"] = {"fs_csc/m": [1.0, 1.5]}
    if workload == "serve":
        samples = [0.1 * i for i in range(1, 40)]
        raw["cells"]["request"] = {"serve": samples}
        for name in ("queue_ms", "service_ms", "warm_service_ms",
                     "cold_service_ms"):
            raw["samples"]["serve." + name] = samples
    return raw


class MetricBookkeepingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
        with open(path) as f:
            cls.bench = json.load(f)

    def test_end_to_end_names_match_the_declaration(self):
        declared = {m["name"] for m in self.bench["end_to_end"]}
        for workload in run.OP_FAMILY:
            self.assertEqual(set(run.end_to_end(fake_raw(workload))), declared)

    def test_end_to_end_values(self):
        m = run.end_to_end(fake_raw("compile"))
        self.assertAlmostEqual(m["op_ms"], math.sqrt(2.0 * 4.0))
        self.assertAlmostEqual(m["op_p90_ms"], math.sqrt(2.0 * 4.0))
        self.assertAlmostEqual(m["ok_frac"], 0.995)
        self.assertEqual(m["setup_s"], 1.1)

    def test_per_layer_names_are_declared(self):
        declared = {m["name"] for m in self.bench["per_layer"]}
        for workload in run.OP_FAMILY:
            self.assertLessEqual(set(run.per_layer(fake_raw(workload))),
                                 declared)
        for m in self.bench["end_to_end"]:
            self.assertIn("trace_overhead." + m["name"], declared)

    def test_serve_tail_uses_the_beyond_rule(self):
        m = run.per_layer(fake_raw("serve"))
        self.assertEqual(m["serve.samples"], 39)
        self.assertAlmostEqual(m["serve.queue_ms_p99"], 2.9)  # 10 beyond
        self.assertAlmostEqual(m["serve.latency_ms_p99"], 2.9)

    def test_solve_ratios(self):
        m = run.per_layer(fake_raw("solve"))
        self.assertAlmostEqual(m["runtime.exec_vs_serial"], 2.5 / 1.25)
        self.assertAlmostEqual(m["runtime.exec_ms.fs_csc"], 1.25)


if __name__ == "__main__":
    unittest.main()
