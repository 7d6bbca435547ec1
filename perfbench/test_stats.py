"""Tests of the benchmark's own statistics.

    python3 perfbench/test_stats.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def span(id, name, parent, start, end, **counters):
    full = {key: 0 for key in stats.COUNTER_FIELDS}
    full.update(counters)
    return stats.Span(id=id, name=name, parent=parent, cause=0,
                      start_ns=start, end_ns=end, counters=full)


class PercentileRuleTest(unittest.TestCase):
    def test_median_needs_twenty_samples(self):
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)
        with self.assertRaises(stats.SampleError):
            stats.percentile(list(range(19)), 0.5)

    def test_p90_needs_a_hundred_samples(self):
        values = list(range(100, 0, -1))  # order does not matter
        self.assertEqual(stats.percentile(values, 0.9), 90)
        with self.assertRaises(stats.SampleError):
            stats.percentile(values[:99], 0.9)

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.percentile(list(range(1000)), 0.99), 989)
        with self.assertRaises(stats.SampleError):
            stats.percentile(list(range(999)), 0.99)

    def test_rejects_quantiles_outside_the_open_interval(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(100)), 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_children(self):
        spans = [span(0, "query", -1, 0, 100),
                 span(1, "solver.solve", 0, 10, 40),
                 span(2, "spill.get", 0, 50, 60)]
        own = stats.self_times(spans)
        self.assertEqual(own, {0: 60, 1: 30, 2: 10})

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [span(0, "ingest", -1, 0, 100),
                 span(1, "spill.put", 0, 10, 40),
                 span(2, "spill.put", 0, 30, 50),
                 span(3, "spill.get", 0, 90, 120)]
        self.assertEqual(stats.self_times(spans)[0], 100 - 40 - 10)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, "scan", -1, 0, 100),
                 span(1, "spill.get", 0, 0, 50),
                 span(2, "solver.solve", 1, 10, 20)]
        own = stats.self_times(spans)
        self.assertEqual(own, {0: 50, 1: 40, 2: 10})
        self.assertEqual(sum(own.values()), 100)


class CountAttributionTest(unittest.TestCase):
    def test_counts_land_on_the_innermost_span(self):
        # Inclusive counts: the query saw 150 SoA pairs and 900 scalar
        # calls, 900 of which happened inside the solver.
        spans = [span(0, "query", -1, 0, 100, soa_pairs=150,
                      scalar_calls=900),
                 span(1, "solver.solve", 0, 10, 90, scalar_calls=900)]
        own = stats.self_counts(spans)
        self.assertEqual(own[0]["soa_pairs"], 150)
        self.assertEqual(own[0]["scalar_calls"], 0)
        self.assertEqual(own[1]["scalar_calls"], 900)

    def test_nested_spill_bytes(self):
        spans = [span(0, "ingest", -1, 0, 100, spill_puts=2, put_bytes=30),
                 span(1, "spill.put", 0, 0, 10, spill_puts=1, put_bytes=10),
                 span(2, "spill.put", 0, 20, 30, spill_puts=1, put_bytes=20)]
        own = stats.self_counts(spans)
        self.assertEqual(own[0]["put_bytes"], 0)
        self.assertEqual([own[i]["put_bytes"] for i in (1, 2)], [10, 20])


class ReferenceSpeedTest(unittest.TestCase):
    @staticmethod
    def raw(reference_ms):
        steps = 200
        return {
            "setup_s": [2.0, 1.0, 3.0],
            "setup_reference_ms": [stats.REFERENCE_SORT_MS * 4] * 5,
            "untraced": {
                "arrivals": steps, "steps": steps,
                "samples": {"update": [2.0] * steps,
                            "query": [10.0] * (steps // 2)},
                "causes": {"update": list(range(steps)),
                           "query": list(range(0, steps, 2))},
                "reference_ms": reference_ms,
                "memory": {"total": 123},
                "ratios": [1.0, 1.5],
            },
        }

    def test_host_factor_is_the_median_reference_over_its_nominal(self):
        passed = self.raw([2.0, 9.0, 1.5])["untraced"]
        self.assertEqual(stats.host_factor(passed),
                         2.0 / stats.REFERENCE_SORT_MS)

    def test_timings_scale_and_the_rest_does_not(self):
        slow = stats.REFERENCE_SORT_MS * 2
        measured = stats.wall_clock(self.raw([slow])["untraced"])
        metrics = stats.end_to_end(self.raw([slow] * 3))
        # Every step costs 2 ms of update and every other step 10 ms of
        # query: 7 ms per arrival, on a host twice as slow as the reference.
        self.assertAlmostEqual(measured["arrivals_per_s"][0], 1e3 / 7)
        self.assertAlmostEqual(metrics["arrivals_per_s"][0], 2e3 / 7)
        self.assertEqual(metrics["ingest_ms_p50"], (1.0, "ms"))
        self.assertEqual(metrics["query_ms_p50"], (5.0, "ms"))
        self.assertEqual(metrics["setup_s"], (0.5, "s"))
        self.assertEqual(metrics["memory_points"], (123, "points"))
        self.assertEqual(metrics["ratio"], (1.25, "x"))


class SpanFileTest(unittest.TestCase):
    def test_reads_the_binary_tsv(self):
        header = ("id\tname\tparent\tcause\tstart_ns\tend_ns\t" +
                  "\t".join(stats.COUNTER_FIELDS) + "\tattrs\n")
        rows = ["0\tquery\t-1\t7\t100\t200\t5\t0\t40\t0\t0\t0\t0\t"
                "coreset=12;inspected=3;\n",
                "1\tsolver.solve\t0\t7\t120\t180\t5\t0\t0\t0\t0\t0\t0\t\n"]
        with tempfile.NamedTemporaryFile("w", suffix=".tsv",
                                         delete=False) as f:
            f.write(header + "".join(rows))
        try:
            spans = stats.read_spans(f.name)
        finally:
            os.remove(f.name)
        self.assertEqual(spans[0].attrs, {"coreset": 12, "inspected": 3})
        self.assertEqual(spans[1].parent, 0)
        self.assertEqual(stats.self_times(spans)[0], 40)
        self.assertEqual(stats.self_counts(spans)[0]["scalar_calls"], 0)


if __name__ == "__main__":
    unittest.main()
