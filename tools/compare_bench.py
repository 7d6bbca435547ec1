#!/usr/bin/env python3
"""Compares two bench runs: counters against a committed baseline, and —
for paired before/after runs on the same machine — wall-time throughput.

Two input formats are auto-detected:

* google-benchmark JSON (bench/micro_kernels): by default only
  wall-time-STABLE metrics are compared — the deterministic counters the
  engine benches emit (distance calls per arrival, expiry sweeps per
  arrival, query selection diagnostics). Nanosecond timings are
  machine-dependent and ignored against the committed baseline (recorded
  on a different box than CI), but a PAIRED base-vs-head run on the same
  runner may gate real_time with --max-walltime-regression. A run with
  --benchmark_repetitions=N is compared on each entry's median real_time
  over its N repetitions, with the first repetition's counters.

* shard_scaling JSON (bench/shard_scaling, a top-level "bench" key):
  deterministic counters (updates, queries, memory points, evictions,
  rehydrations, checkpoint sizes) are compared like stable counters, and
  the throughput fields (updates_per_s, queries_per_s) can additionally
  be compared with --max-walltime-regression. Every dict child of the
  contention scenario becomes an entry (contention/global_mutex,
  contention/per_shard, contention/zipf, contention/create_heavy, ...);
  `updates` and `shards` are deterministic counters, updates_per_s rides
  the wall-time axis, and the volatile fields — query_rounds /
  maintenance_ticks (background threads complete as many rounds as the
  clock allows), speedup (a ratio of two wall times), pool_steals (a
  scheduling-order gauge) — are excluded from comparison entirely. The cross_objective scenario's dict children
  (cross_objective/fair_center, cross_objective/k_median,
  cross_objective/mixed) flatten the same way: objective_value_sum,
  memory_points, checkpoint_bytes, bursts, updates, and shards are
  deterministic counters (bit-identical engine state contract),
  updates_per_s rides the wall-time axis, and the VOLATILE_FIELDS filter
  applies so any future timing-dependent field is excluded by name. Wall-time comparison is only meaningful when both
  files were produced in the same run environment — the CI walltime job
  builds the PR's base commit and head in the same runner and runs both,
  so the pair IS comparable.

Usage:
  python3 tools/compare_bench.py BENCH_micro_kernels.json new.json \
      [--max-regression 0.20] [--exact-prefixes distance_calls,...]
  python3 tools/compare_bench.py base_shard.json head_shard.json \
      --max-walltime-regression 0.25 --walltime-only
  python3 tools/compare_bench.py base_micro.json head_micro.json \
      --max-walltime-regression 0.25 --walltime-only \
      --declared-baseline BENCH_micro_kernels.json

Exit code 1 when any compared counter moved by more than --max-regression
relative to the baseline, any throughput fell by more than
--max-walltime-regression, or a baseline benchmark with stable counters
disappeared from the new run (dropped coverage hides regressions).
New benchmarks absent from the baseline are reported but pass: they become
baseline on the next regeneration.

--declared-baseline PATH names the new commit's committed BENCH_*.json. A
baseline entry missing from the new run then passes as [removed] when PATH
lacks it too: the commit deleted the entry and regenerated its committed
results without it, which declares the deletion. An entry still in PATH
but missing from the run fails as before (lost coverage).

--exact-prefixes names counter prefixes held to ZERO tolerance regardless of
--max-regression. The CI perf job uses it to assert that a run on the
SoA/SIMD distance path performs exactly the same distance evaluations as a
scalar run (FKC_SIMD=scalar): kernel width must change wall time only, never
any algorithmic counter. Only stable counters are compared at all, so each
prefix must extend one of STABLE_PREFIXES; any other prefix is an error, not
a gate that silently checks nothing.

--walltime-only skips the counter comparison entirely: the paired
before/after job compares commits whose counters may differ by design (the
PR changed the algorithm), so only the wall-time axis is gated there; the
perf job keeps gating counters at its existing 0%/20% tolerances.
"""

import argparse
import json
import statistics
import sys

# Counter-name prefixes considered machine-independent (google-benchmark
# entries). The allocs_per_* counters count heap allocations over a fixed
# run of operations, so they depend on the stream only; rows_per_solve
# counts the pool passes of one solve on fixed data, and the pivot index's
# candidates_per_arrival and exact_pairs_per_arrival the columns and pairs
# of fixed range queries; shadow_rows_per_* and resolved_pairs_per_* count
# the float32 shadow rows of one traversal on fixed data and the exact
# distances that resolve them, the same at every kernel width.
STABLE_PREFIXES = (
    "distance_calls",
    "expiry_sweeps",
    "guesses_inspected",
    "coreset_size",
    "kmedian",
    "allocs_per",
    "rows_per_solve",
    "candidates_per",
    "exact_pairs_per",
    "shadow_rows_per",
    "resolved_pairs_per",
)

# shard_scaling fields: higher-is-better throughputs (wall time axis) vs
# deterministic counters.
THROUGHPUT_FIELDS = ("updates_per_s", "queries_per_s")

# Contention-scenario fields that are neither deterministic counters nor
# gateable throughputs: background threads complete as many rounds/ticks as
# the wall clock lets them, the speedup is a ratio of two wall times, and
# pool_steals depends on scheduling order.
# Replication fields ride the same axis: how many frames a leader sends
# (heartbeats included), how often a follower has to resync, and how many
# entries a recovery adopts all depend on connection timing and where the
# kill landed. They stay in the JSON for humans but are never compared.
VOLATILE_FIELDS = (
    "query_rounds",
    "maintenance_ticks",
    "speedup",
    "pool_steals",
    "frames_sent",
    "resyncs",
    "recovered_entries",
)


def stable_counters(entry):
    """The wall-time-stable counters of one google-benchmark JSON entry."""
    out = {}
    for key, value in entry.items():
        if isinstance(value, (int, float)) and key.startswith(STABLE_PREFIXES):
            out[key] = float(value)
    return out


def load_google_benchmark(data):
    """google-benchmark JSON -> {name: entry} over the iteration entries.
    A run with --benchmark_repetitions=N holds N iteration entries per name;
    they fold into one: the first repetition's entry (its counters) with
    real_time set to the median over the repetitions, so one slow
    repetition cannot trip the walltime gate. A single-run entry loads
    unchanged."""
    repetitions = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type", "iteration") == "iteration":
            repetitions.setdefault(entry["name"], []).append(entry)
    entries = {}
    for name, runs in repetitions.items():
        entry = runs[0]
        if len(runs) > 1 and "real_time" in entry:
            entry = dict(entry, real_time=statistics.median(
                float(run["real_time"]) for run in runs))
        entries[name] = entry
    return entries


def flatten_shard_scaling(data):
    """shard_scaling JSON -> {entry_name: {field: value}} with throughput
    fields kept apart from the deterministic counters."""
    entries = {}
    for run in data.get("runs", []):
        name = f"shards/{run.get('shards')}"
        entries[name] = {
            k: float(v) for k, v in run.items()
            if isinstance(v, (int, float)) and k != "shards"
        }
    churn = data.get("churn", {})
    for backend in ("memory", "file"):
        sub = churn.get(backend)
        if isinstance(sub, dict):
            entries[f"churn/{backend}"] = {
                k: float(v) for k, v in sub.items()
                if isinstance(v, (int, float))
            }
    contention = data.get("contention", {})
    # Every dict child is a contention run (global_mutex, per_shard, zipf,
    # create_heavy, and whatever future modes appear);
    # scalar children (speedups, host facts) are header fields, not runs.
    for mode in sorted(contention):
        sub = contention[mode]
        if isinstance(sub, dict):
            entries[f"contention/{mode}"] = {
                k: float(v) for k, v in sub.items()
                if isinstance(v, (int, float)) and k not in VOLATILE_FIELDS
            }
    cross = data.get("cross_objective", {})
    # Dict children are per-objective runs (fair_center, k_median, mixed);
    # scalar children (tenants, burst flags) are header fields.
    for mode in sorted(cross):
        sub = cross[mode]
        if isinstance(sub, dict):
            entries[f"cross_objective/{mode}"] = {
                k: float(v) for k, v in sub.items()
                if isinstance(v, (int, float)) and k not in VOLATILE_FIELDS
            }
    return entries


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("bench") == "shard_scaling":
        return "shard_scaling", flatten_shard_scaling(data)
    return "google_benchmark", load_google_benchmark(data)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="max allowed relative change of a stable counter")
    parser.add_argument("--exact-prefixes", default="",
                        help="comma-separated counter-name prefixes that must "
                             "match the baseline exactly (0%% tolerance)")
    parser.add_argument("--max-walltime-regression", type=float, default=None,
                        help="max allowed relative DROP of a throughput "
                             "field (shard_scaling format); only meaningful "
                             "for paired same-machine runs")
    parser.add_argument("--walltime-only", action="store_true",
                        help="compare only throughput fields (for paired "
                             "base-vs-head runs whose counters may differ "
                             "by design)")
    parser.add_argument("--declared-baseline", default=None,
                        help="the new commit's committed BENCH_*.json: a "
                             "baseline entry missing from the new run passes "
                             "as removed when this file lacks it too")
    args = parser.parse_args()
    exact_prefixes = tuple(p for p in args.exact_prefixes.split(",") if p)
    unstable = [p for p in exact_prefixes if not p.startswith(STABLE_PREFIXES)]
    if unstable:
        print(f"error: --exact-prefixes {', '.join(unstable)}: not a stable "
              f"counter prefix (one of {', '.join(STABLE_PREFIXES)}), so "
              "nothing would be compared", file=sys.stderr)
        return 1

    base_format, baseline = load(args.baseline)
    new_format, fresh = load(args.new)
    if base_format != new_format:
        print(f"error: format mismatch ({base_format} vs {new_format})",
              file=sys.stderr)
        return 1
    declared = None
    if args.declared_baseline is not None:
        declared_format, declared = load(args.declared_baseline)
        if declared_format != base_format:
            print(f"error: format mismatch ({base_format} vs declared "
                  f"{declared_format})", file=sys.stderr)
            return 1
    if args.walltime_only and args.max_walltime_regression is None:
        print("error: --walltime-only requires --max-walltime-regression",
              file=sys.stderr)
        return 1

    failures = []
    compared = 0

    def compare_counter(name, counter, base_value, new_value, exact):
        nonlocal compared
        compared += 1
        if base_value == 0.0:
            rel = 0.0 if new_value == 0.0 else float("inf")
        else:
            rel = abs(new_value - base_value) / abs(base_value)
        limit = 0.0 if exact else args.max_regression
        marker = "FAIL" if rel > limit else "ok"
        suffix = " [exact]" if exact else ""
        print(f"[{marker}] {name}/{counter}: "
              f"{base_value:.4g} -> {new_value:.4g} ({rel:+.1%}){suffix}")
        if rel > limit:
            failures.append(
                f"{name}/{counter}: {base_value:.4g} -> {new_value:.4g} "
                f"moved {rel:.1%} (limit "
                f"{'exact match' if exact else f'{limit:.0%}'})")

    def compare_walltime(name, field, base_value, new_value,
                         lower_is_better=False):
        nonlocal compared
        compared += 1
        # Only a move in the WRONG direction is a regression: a throughput
        # drop, or (for raw timings) a real_time increase. Faster always
        # passes.
        if base_value <= 0.0:
            loss = 0.0
        elif lower_is_better:
            loss = max(0.0, (new_value - base_value) / base_value)
        else:
            loss = max(0.0, (base_value - new_value) / base_value)
        limit = args.max_walltime_regression
        marker = "FAIL" if loss > limit else "ok"
        print(f"[{marker}] {name}/{field}: "
              f"{base_value:.4g} -> {new_value:.4g} "
              f"(-{loss:.1%} vs limit {limit:.0%}) [walltime]")
        if loss > limit:
            failures.append(
                f"{name}/{field}: "
                f"{'slowed' if lower_is_better else 'throughput fell'} "
                f"{loss:.1%} ({base_value:.4g} -> {new_value:.4g}, "
                f"limit {limit:.0%})")

    for name, base_entry in sorted(baseline.items()):
        if base_format == "google_benchmark":
            base_counters = stable_counters(base_entry)
        else:
            base_counters = {
                k: v for k, v in base_entry.items()
                if k not in THROUGHPUT_FIELDS
            }
        if base_format == "shard_scaling":
            base_walltimes = {
                k: v for k, v in base_entry.items() if k in THROUGHPUT_FIELDS
            }
        elif (args.max_walltime_regression is not None
              and "real_time" in base_entry):
            # Paired same-runner google-benchmark runs gate on real_time.
            base_walltimes = {"real_time": float(base_entry["real_time"])}
        else:
            base_walltimes = {}
        if not base_counters and not base_walltimes:
            continue  # timing-only entry: nothing stable to compare
        if name not in fresh:
            if declared is not None and name not in declared:
                print(f"[removed] {name}: deleted, and absent from "
                      f"{args.declared_baseline}")
                continue
            failures.append(f"{name}: present in baseline but missing from "
                            "the new run (dropped bench coverage)")
            continue
        fresh_entry = fresh[name]
        if not args.walltime_only:
            new_counters = stable_counters(fresh_entry) \
                if base_format == "google_benchmark" else fresh_entry
            for counter, base_value in sorted(base_counters.items()):
                if counter not in new_counters:
                    failures.append(f"{name}/{counter}: counter disappeared")
                    continue
                exact = counter.startswith(exact_prefixes) \
                    if exact_prefixes else False
                compare_counter(name, counter, base_value,
                                float(new_counters[counter]), exact)
        if args.max_walltime_regression is not None:
            for field, base_value in sorted(base_walltimes.items()):
                if field not in fresh_entry:
                    failures.append(f"{name}/{field}: throughput disappeared")
                    continue
                compare_walltime(name, field, base_value,
                                 float(fresh_entry[field]),
                                 lower_is_better=field == "real_time")

    for name in sorted(set(fresh) - set(baseline)):
        has_stable = stable_counters(fresh[name]) \
            if base_format == "google_benchmark" else fresh[name]
        if has_stable:
            print(f"[new ] {name}: not in baseline yet (will be on next "
                  "regeneration)")

    if compared == 0:
        print("error: nothing compared — regenerate the baseline with the "
              "current bench binary", file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {compared} compared metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
