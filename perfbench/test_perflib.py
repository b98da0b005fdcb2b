#!/usr/bin/env python3
"""Tests for the benchmark's own logic (perflib.py).

    python3 perfbench/test_perflib.py
"""

import copy
import unittest

import perflib


def record(generated=100, delivered=100, **checks):
    """A minimal run record in wlm_perfbench's output shape."""
    base_checks = {"generated": generated, "delivered": delivered, "ledger_violations": 0,
                   "consumed": delivered, "delivered_final": delivered, "read_errors": 0,
                   "reseal_mismatches": 0}
    base_checks.update(checks)
    return {
        "error": "",
        "checks": base_checks,
        "signature": {"reports": "0000000a", "prometheus": "0000000b",
                      "renders": {"table3": "0000000c"}},
        "wall_s": 10.0,
        "setup_s": 2.0,
        "resume_s": None,
        "peak_rss_mib": 100.0,
    }


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(perflib.self_times([("a", 1.0, 4.0, -1)]), [3.0])

    def test_nested_children_are_subtracted_once(self):
        spans = [("root", 0.0, 10.0, -1),
                 ("child", 1.0, 5.0, 0),
                 ("grandchild", 2.0, 3.0, 1)]
        self.assertEqual(perflib.self_times(spans), [6.0, 3.0, 1.0])

    def test_overlapping_children_count_their_union(self):
        # Two children overlapping on [3, 4]: together they cover [2, 6].
        spans = [("root", 0.0, 10.0, -1), ("a", 2.0, 4.0, 0), ("b", 3.0, 6.0, 0)]
        self.assertEqual(perflib.self_times(spans)[0], 6.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [("root", 0.0, 4.0, -1), ("late", 3.0, 9.0, 0)]
        self.assertEqual(perflib.self_times(spans)[0], 3.0)

    def test_totals_group_by_name(self):
        spans = [("root", 0.0, 10.0, -1), ("x", 0.0, 2.0, 0), ("x", 5.0, 6.0, 0)]
        totals = perflib.span_totals(spans)
        self.assertEqual(totals["x"], {"total_s": 3.0, "self_s": 3.0, "count": 2})
        self.assertEqual(totals["root"]["self_s"], 7.0)

    def test_coverage_counts_only_layer_spans(self):
        spans = [("workload", 0.0, 10.0, -1), ("a", 0.0, 4.0, 0), ("b", 3.0, 9.5, 0),
                 ("inner", 1.0, 2.0, 1)]
        fraction, other = perflib.coverage(spans, 10.0)
        self.assertAlmostEqual(fraction, 0.95)
        self.assertAlmostEqual(other, 0.5)


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_has_no_percentile(self):
        self.assertIsNone(perflib.tail_percentile(list(range(10))))

    def test_twenty_samples_reach_only_the_median(self):
        # p50 of 20 samples is rank 10, leaving 10 beyond it; p90 leaves 2.
        samples = [float(i) for i in range(1, 21)]
        self.assertEqual(perflib.tail_percentile(samples), (50.0, 10.0))

    def test_hundred_samples_reach_p90(self):
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(perflib.tail_percentile(samples), (90.0, 90.0))

    def test_thousand_samples_reach_p99(self):
        samples = [float(i) for i in range(1000, 0, -1)]
        self.assertEqual(perflib.tail_percentile(samples), (99.0, 990.0))


class FailureArithmeticTest(unittest.TestCase):
    def test_failed_frac(self):
        self.assertEqual(perflib.failed_frac(200, 0), 0.0)
        self.assertEqual(perflib.failed_frac(200, 50), 0.25)
        with self.assertRaises(ValueError):
            perflib.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            perflib.failed_frac(10, 11)

    def test_undelivered_reports_fail(self):
        self.assertEqual(perflib.run_outcome(record(100, 97), []), (100, 3))

    def test_failed_check_fails_every_report(self):
        self.assertEqual(perflib.run_outcome(record(100, 97), ["mismatch"]), (100, 100))


class ChecksTest(unittest.TestCase):
    def test_clean_record_passes(self):
        r = record()
        self.assertEqual(perflib.run_failures(r, r["signature"], r["signature"]), [])

    def test_render_mismatch_is_named(self):
        r = record()
        pinned = copy.deepcopy(r["signature"])
        pinned["renders"]["table3"] = "ffffffff"
        self.assertEqual(perflib.run_failures(r, pinned=pinned),
                         ["render table3 mismatch vs pinned signature"])

    def test_report_stream_mismatch_against_other_run(self):
        r = record()
        other = dict(r["signature"], reports="12345678")
        self.assertEqual(perflib.run_failures(r, reference=other),
                         ["reports mismatch vs run signature"])

    def test_missing_render_is_a_mismatch(self):
        r = record()
        expected = copy.deepcopy(r["signature"])
        expected["renders"]["fig2"] = "00000001"
        self.assertEqual(perflib.signature_diff(r["signature"], expected), ["render fig2"])

    def test_read_side_identity_and_ledger(self):
        r = record(consumed=99, ledger_violations=1)
        failures = perflib.run_failures(r)
        self.assertEqual(len(failures), 2)
        self.assertIn("analyses read 99 reports, ledger delivered 100", failures)


class FleetSeedTest(unittest.TestCase):
    def test_runs_cycle_through_distinct_fleets_starting_at_the_seed(self):
        seeds = [perflib.fleet_seed(2015, i) for i in range(2 * perflib.FLEETS)]
        self.assertEqual(seeds[0], 2015)
        self.assertEqual(len(set(seeds)), perflib.FLEETS)
        self.assertEqual(seeds[:perflib.FLEETS], seeds[perflib.FLEETS:])

    def test_neighbouring_seeds_share_no_fleet(self):
        fleets = [{perflib.fleet_seed(s, i) for i in range(perflib.FLEETS)} for s in range(1, 11)]
        self.assertEqual(len(set().union(*fleets)), 10 * perflib.FLEETS)


class EndToEndTest(unittest.TestCase):
    def test_medians_and_rate(self):
        records = [record() for _ in range(3)]
        for r, wall, setup in zip(records, (10.0, 12.0, 30.0), (2.0, 1.0, 1.5)):
            r["wall_s"] = wall
            r["setup_s"] = setup
        metrics = perflib.end_to_end(records)
        self.assertEqual(metrics["wall_s"], 12.0)
        self.assertEqual(metrics["setup_s"], 1.5)
        # Each run's rate subtracts that run's own set-up: 100 / (12 - 1).
        self.assertEqual(metrics["reports_per_s"], 100 / (12.0 - 1.0))
        self.assertNotIn("resume_s", metrics)


class AnalysisTimesTest(unittest.TestCase):
    def totals(self, spans):
        return perflib.span_totals(spans)

    def test_read_comes_out_of_consume_when_consume_read(self):
        spans = [("workload", 0.0, 10.0, -1),
                 ("analysis.run_usage_study", 0.0, 9.0, 0),
                 ("sim.FleetRunner", 0.0, 1.0, 1),
                 ("backend.consume", 5.0, 8.0, 1)]
        # Study self time: 9 - 1 - 3 = 5; consume 3 of which the read is 1.
        self.assertEqual(perflib.analysis_times(self.totals(spans), 1.0), (2.0, 5.0, 0.0))

    def test_read_comes_out_of_the_scans_without_consume(self):
        spans = [("workload", 0.0, 10.0, -1),
                 ("analysis.run_neighbor_study", 0.0, 4.0, 0),
                 ("sim.harvest", 1.0, 2.0, 1),
                 ("analysis.run_link_study", 4.0, 9.0, 0),
                 ("sim.FleetRunner", 4.0, 5.0, 3)]
        # Neighbor study self 3, less a 0.5 s read; link-study loop 4.
        self.assertEqual(perflib.analysis_times(self.totals(spans), 0.5), (0.0, 2.5, 4.0))


if __name__ == "__main__":
    unittest.main()
