#!/usr/bin/env python3
"""Tests for tools/compare_bench.py's handling of bench entries that one
side of a comparison lacks.

Run directly (python3 tests/tools/test_compare_bench.py) or through ctest
(compare_bench_test). Each case writes small base/head JSON files in both
formats the tool reads (google-benchmark and shard_scaling) and runs the
tool as the CI walltime steps do:

  * an entry dropped from the head run fails without a declaration, and
    also when the head's committed BENCH file still lists it;
  * an entry dropped from the head run and from its committed BENCH file
    (--declared-baseline) passes as [removed];
  * entries new in the head run pass.

It also checks the perf job's exact counter gate: `allocs_per_*`,
`rows_per_solve`, the pivot index's `candidates_per_*` and
`exact_pairs_per_*` counters and the float32 shadow's `shadow_rows_per_*`
and `resolved_pairs_per_*` counters are stable counters, so
--exact-prefixes holds them to zero tolerance, and a prefix of no stable
counter is an error rather than a gate that compares nothing; and that a
run with --benchmark_repetitions compares on each entry's median
real_time, while a single-run file compares as before.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TESTS_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TESTS_TOOLS_DIR))
COMPARE = os.path.join(REPO_ROOT, "tools", "compare_bench.py")


def micro(*names):
    """A google-benchmark JSON run holding `names`, each with a real_time
    and a stable counter."""
    return {"benchmarks": [
        {"name": name, "run_type": "iteration", "real_time": 100.0,
         "distance_calls_total": 42.0}
        for name in names]}


def shard(*modes):
    """A shard_scaling JSON run whose contention scenario holds `modes`."""
    return {"bench": "shard_scaling", "contention": {
        mode: {"updates": 1000, "updates_per_s": 5.0e5} for mode in modes}}


class CompareBenchRemovalTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, data):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def compare(self, base, head, declared=None):
        """Runs the tool like the CI walltime steps; returns (code, out)."""
        args = [sys.executable, COMPARE, self.write("base.json", base),
                self.write("head.json", head),
                "--max-walltime-regression", "0.25", "--walltime-only"]
        if declared is not None:
            args += ["--declared-baseline",
                     self.write("declared.json", declared)]
        done = subprocess.run(args, capture_output=True, text=True,
                              check=False)
        return done.returncode, done.stdout + done.stderr

    def cases(self):
        """(format, make, kept entry, dropped entry, entry name)."""
        return [("micro", micro, "BM_Kept", "BM_Dropped", "BM_Dropped"),
                ("shard", shard, "per_shard", "single_stripe",
                 "contention/single_stripe")]

    def test_dropped_entry_fails_without_declaration(self):
        for fmt, make, kept, dropped, name in self.cases():
            with self.subTest(fmt):
                code, out = self.compare(make(kept, dropped), make(kept))
                self.assertEqual(code, 1, out)
                self.assertIn(f"{name}: present in baseline but missing", out)
                # The committed results still list it: lost coverage.
                code, out = self.compare(make(kept, dropped), make(kept),
                                         declared=make(kept, dropped))
                self.assertEqual(code, 1, out)
                self.assertIn(f"{name}: present in baseline but missing", out)

    def test_declared_removal_passes(self):
        for fmt, make, kept, dropped, name in self.cases():
            with self.subTest(fmt):
                code, out = self.compare(make(kept, dropped), make(kept),
                                         declared=make(kept))
                self.assertEqual(code, 0, out)
                self.assertIn(f"[removed] {name}", out)

    def test_new_entries_pass(self):
        for fmt, make, kept, dropped, name in self.cases():
            with self.subTest(fmt):
                code, out = self.compare(make(kept), make(kept, dropped))
                self.assertEqual(code, 0, out)
                code, out = self.compare(make(kept), make(kept, dropped),
                                         declared=make(kept, dropped))
                self.assertEqual(code, 0, out)


class CompareBenchExactCounterTest(unittest.TestCase):
    def run_tool(self, counter, base_value, head_value,
                 prefixes="allocs_per_,rows_per_solve"):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, value in (("base", base_value), ("head", head_value)):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as f:
                    json.dump({"benchmarks": [
                        {"name": "BM_Update", "run_type": "iteration",
                         "real_time": 100.0, counter: value}]}, f)
                paths.append(path)
            done = subprocess.run(
                [sys.executable, COMPARE, *paths,
                 "--exact-prefixes", prefixes],
                capture_output=True, text=True, check=False)
            return done.returncode, done.stdout + done.stderr

    def test_allocation_counters_compare_exactly(self):
        code, out = self.run_tool("allocs_per_arrival", 0.25, 0.25)
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Update/allocs_per_arrival", out)
        code, out = self.run_tool("allocs_per_arrival", 0.25, 0.26)
        self.assertEqual(code, 1, out)

    def test_rows_per_solve_compares_exactly(self):
        code, out = self.run_tool("rows_per_solve", 8.0, 8.0)
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Update/rows_per_solve", out)
        code, out = self.run_tool("rows_per_solve", 8.0, 9.0)
        self.assertEqual(code, 1, out)

    def test_pivot_index_counters_compare_exactly(self):
        code, out = self.run_tool("exact_pairs_per_arrival", 64.0, 64.0,
                                  "candidates_per_,exact_pairs_per_")
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Update/exact_pairs_per_arrival", out)
        code, out = self.run_tool("candidates_per_arrival", 56.0, 57.0,
                                  "candidates_per_,exact_pairs_per_")
        self.assertEqual(code, 1, out)

    def test_shadow_counters_compare_exactly(self):
        code, out = self.run_tool("resolved_pairs_per_solve", 91.0, 91.0,
                                  "shadow_rows_per_,resolved_pairs_per_")
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Update/resolved_pairs_per_solve", out)
        code, out = self.run_tool("shadow_rows_per_solve", 7.0, 8.0,
                                  "shadow_rows_per_,resolved_pairs_per_")
        self.assertEqual(code, 1, out)

    def test_unstable_exact_prefix_is_an_error(self):
        # A counter outside STABLE_PREFIXES is never compared, so an exact
        # gate on it would pass whatever the run did.
        code, out = self.run_tool("in_range_per_scan", 0.15, 0.99,
                                  "in_range_per_scan")
        self.assertEqual(code, 1, out)
        self.assertIn("not a stable counter prefix", out)
        code, out = self.run_tool("allocs_per_arrival", 0.25, 0.25,
                                  "allocs")
        self.assertEqual(code, 1, out)


def repeated(real_times, counter=42.0):
    """A google-benchmark --benchmark_repetitions run of BM_Update: one
    iteration entry per real time (only the first carries `counter`; later
    repetitions carry a different value), plus the aggregate entries the
    library appends."""
    entries = [
        {"name": "BM_Update", "run_type": "iteration", "real_time": t,
         "distance_calls_total": counter if i == 0 else counter + 1.0}
        for i, t in enumerate(real_times)]
    entries += [
        {"name": "BM_Update_" + stat, "run_type": "aggregate",
         "aggregate_name": stat, "real_time": 1.0e9}
        for stat in ("mean", "median", "stddev")]
    return {"benchmarks": entries}


class CompareBenchRepetitionTest(unittest.TestCase):
    def run_tool(self, base, head, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, data in (("base", base), ("head", head)):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as f:
                    json.dump(data, f)
                paths.append(path)
            done = subprocess.run(
                [sys.executable, COMPARE, *paths, *flags],
                capture_output=True, text=True, check=False)
            return done.returncode, done.stdout + done.stderr

    def walltime(self, base, head):
        return self.run_tool(base, head, "--max-walltime-regression", "0.25",
                             "--walltime-only")

    def test_repetitions_compare_on_the_median(self):
        base = repeated([100.0, 100.0, 100.0, 100.0, 100.0])
        # The last repetition (300) and the mean (163) are both >25% slower;
        # the median (110) is not.
        code, out = self.walltime(base, repeated([100.0, 200.0, 110.0, 105.0,
                                                  300.0]))
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Update/real_time: 100 -> 110", out)
        # A median 30% slower fails even though two repetitions are fast.
        code, out = self.walltime(base, repeated([100.0, 130.0, 130.0, 90.0,
                                                  140.0]))
        self.assertEqual(code, 1, out)
        self.assertIn("BM_Update/real_time: slowed 30.0%", out)

    def test_repetitions_keep_the_first_counters(self):
        code, out = self.run_tool(repeated([100.0, 100.0]),
                                  repeated([100.0, 100.0]),
                                  "--exact-prefixes", "distance_calls")
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Update/distance_calls_total: 42 -> 42", out)

    def test_single_run_compares_as_before(self):
        code, out = self.walltime(repeated([100.0]), repeated([120.0]))
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Update/real_time: 100 -> 120", out)
        code, out = self.walltime(repeated([100.0]), repeated([130.0]))
        self.assertEqual(code, 1, out)
        self.assertIn("BM_Update/real_time: slowed 30.0%", out)


if __name__ == "__main__":
    unittest.main()
