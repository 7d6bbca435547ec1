"""Statistics of the perfbench benchmark.

Turns the raw JSON and span TSV written by the perfbench binary into the
reported metrics:

* percentiles follow one rule: a reported percentile needs at least ten
  samples beyond it (p50 needs 20 samples, p90 100, p99 1000);
* a span's self time is its duration minus the part of it its child spans
  cover, and its self counts are its inclusive counter changes minus those
  of its children, so decorator counts land on the innermost enclosing span;
* end-to-end timings are stated at a reference host speed: each is divided
  by the host factor, the median time of the reference sort the binary ran
  between calls (or after each set-up) over its time on an unloaded host.
"""

import math
import statistics
from dataclasses import dataclass, field

MIN_BEYOND = 10
COUNTER_FIELDS = ("scalar_calls", "many_pairs", "soa_pairs", "spill_puts",
                  "spill_gets", "put_bytes", "get_bytes")


class SampleError(ValueError):
    """Too few samples for the requested percentile."""


def percentile(values, q):
    """Nearest-rank q-quantile of `values`, 0 < q < 1.

    Raises SampleError unless at least MIN_BEYOND samples lie beyond the
    reported rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))  # q * n may carry float noise
    if n - rank < MIN_BEYOND:
        raise SampleError(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"needs {MIN_BEYOND}")
    return sorted(values)[rank - 1]


@dataclass
class Span:
    id: int
    name: str
    parent: int
    cause: int
    start_ns: int
    end_ns: int
    counters: dict = field(default_factory=dict)  # inclusive changes
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


def read_spans(path):
    """Parses the perfbench span TSV (one header row)."""
    spans = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            attrs = {}
            for item in row.get("attrs", "").split(";"):
                if item:
                    key, value = item.split("=")
                    attrs[key] = int(value)
            spans.append(Span(
                id=int(row["id"]), name=row["name"],
                parent=int(row["parent"]), cause=int(row["cause"]),
                start_ns=int(row["start_ns"]), end_ns=int(row["end_ns"]),
                counters={k: int(row[k]) for k in COUNTER_FIELDS},
                attrs=attrs))
    return spans


def children_of(spans):
    children = {span.id: [] for span in spans}
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    return children


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span."""
    children = children_of(spans)
    out = {}
    for span in spans:
        intervals = sorted(
            (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
            for c in children[span.id])
        covered, reach = 0, span.start_ns
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = span.duration_ns - covered
    return out


def self_counts(spans):
    """Span id -> counters minus the counters of its children: every
    decorator count is attributed to the innermost span open at the time."""
    children = children_of(spans)
    out = {}
    for span in spans:
        own = dict(span.counters)
        for child in children[span.id]:
            for key in COUNTER_FIELDS:
                own[key] -= child.counters[key]
        out[span.id] = own
    return out


# --- End-to-end metrics (untraced pass). ---

# The reference sort's median time (std::sort of 16384 random 64-bit keys,
# perfbench.cc) on an unloaded 4-vCPU Xeon VM. On a shared host, ordinary
# code runs 10-50% slower or faster from one run to the next with the load
# other tenants put on the core and its caches, and every wall-clock timing
# moves with it. The sort is timed beside the calls all through the pass, on
# the same core, and it is code of the benchmark's own, so dividing by it
# removes most of that drift and none of a change to the library.
REFERENCE_SORT_MS = 1.0


def host_factor(passed):
    """How much slower than the reference host the pass ran (1 = as fast)."""
    return statistics.median(passed["reference_ms"]) / REFERENCE_SORT_MS


def setup_factor(raw):
    """The host factor of the set-ups, from the sorts timed after each."""
    return statistics.median(raw["setup_reference_ms"]) / REFERENCE_SORT_MS


# The fleet's DeltaLog::Replay models a follower rebuilding the fleet, not
# the serving path, so it is timed (per layer) but not charged to
# arrivals_per_s.
REPLAY_OP = "replay"


# arrivals_per_s is the median throughput over this many equal segments of
# the run's steps, so a burst of host interference moves it less than a
# run-wide total would.
SEGMENTS = 20


def segment_throughputs(passed):
    """Arrivals per second of call time in each of SEGMENTS equal runs of
    steps, charging every call (except replays) to its causing step."""
    steps = passed["steps"]
    per_step = passed["arrivals"] / steps
    call_ms = [0.0] * SEGMENTS
    for op, values in passed["samples"].items():
        if op == REPLAY_OP:
            continue
        for ms, cause in zip(values, passed["causes"][op]):
            call_ms[cause * SEGMENTS // steps] += ms
    arrivals = [0.0] * SEGMENTS
    for step in range(steps):
        arrivals[step * SEGMENTS // steps] += per_step
    return [a / (ms / 1e3) for a, ms in zip(arrivals, call_ms)]


def wall_clock(passed):
    """The pass's timings as measured: {name: (value, unit)}."""
    samples = passed["samples"]
    write = samples["update" if "update" in samples else "ingest"]
    return {
        "arrivals_per_s": (percentile(segment_throughputs(passed), 0.5),
                           "1/s"),
        "ingest_ms_p50": (percentile(write, 0.5), "ms"),
        "ingest_ms_p90": (percentile(write, 0.9), "ms"),
        "query_ms_p50": (percentile(samples["query"], 0.5), "ms"),
        "query_ms_p90": (percentile(samples["query"], 0.9), "ms"),
    }


def at_reference_speed(value, unit, factor):
    """A wall-clock timing as it would read on the reference host."""
    return value * factor if unit == "1/s" else value / factor


def end_to_end(raw):
    """The end-to-end metrics, as {name: (value, unit)}."""
    passed = raw["untraced"]
    factor = host_factor(passed)
    measured = wall_clock(passed)
    metrics = {"setup_s": (
        statistics.median(raw["setup_s"]) / setup_factor(raw), "s")}
    for name in ("arrivals_per_s", "ingest_ms_p50", "query_ms_p50"):
        value, unit = measured[name]
        metrics[name] = (at_reference_speed(value, unit, factor), unit)
    metrics["memory_points"] = (passed["memory"]["total"], "points")
    metrics["ratio"] = (statistics.fmean(passed["ratios"]), "x")
    return metrics


# --- Per-layer metrics (traced pass). ---

# Per-layer metrics whose value is a count (or a quantile of counts): they
# must repeat exactly across two runs at one seed.
COUNT_METRICS = (
    "core.update.soa_pairs_per_arrival",
    "core.update.expiry_sweeps_per_arrival",
    "core.memory.v_points",
    "core.memory.c_points",
    "core.memory.guesses",
    "core.query.coreset_size_p50",
    "core.query.guesses_inspected_p50",
    "core.query.soa_pairs_per_query",
    "sequential.solve.scalar_calls_per_solve",
    "sequential.solve.many_pairs_per_solve",
    "sequential.solve.soa_pairs_per_solve",
    "core.checkpoint.bytes_per_point",
    "serving.spill.put_per_1k",
    "serving.spill.get_per_1k",
    "serving.spill.bytes_per_put",
    "serving.evictions_per_1k",
    "serving.rehydrations_per_1k",
    "serving.scan.spilled_shards_p50",
    "serving.capture.bytes_per_tick_p50",
    "serving.capture.dirty_shards_p50",
    "serving.capture.rebases",
    "serving.replay.chain_length_p50",
    "serving.live_shards_p50",
)

# Span names the benchmark opens around library calls, by layer role.
TOP_OPS = ("update", "query", "ingest", "scan", "tick", "replay")
SERVING_SHARES = (("ingest", "ingest"), ("query", "query"), ("scan", "scan"),
                  ("capture", "tick"), ("replay", "replay"))


def _p(values, q):
    """Percentile, or 0 when the workload has no such samples at all."""
    return percentile(values, q) if values else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(raw, spans):
    """The per-layer metrics, as {name: (value, unit)}."""
    untraced, traced = raw["untraced"], raw["traced"]
    arrivals = traced["arrivals"]
    phase_ns = (traced["wall_s"] - traced["check_s"]) * 1e9
    own_time = self_times(spans)
    own_counts = self_counts(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations_ms(name, keep=lambda s: True):
        return [s.duration_ns / 1e6 for s in by_name.get(name, ()) if keep(s)]

    def self_ms(name):
        return [own_time[s.id] / 1e6 for s in by_name.get(name, ())]

    def self_share(name):
        return _ratio(sum(own_time[s.id] for s in by_name.get(name, ())),
                      phase_ns)

    def self_count(name, key):
        return sum(own_counts[s.id][key] for s in by_name.get(name, ()))

    def attrs(name, key):
        return [s.attrs[key] for s in by_name.get(name, ()) if key in s.attrs]

    updates = by_name.get("update", [])
    writes = "update" if updates else "ingest"
    queries = len(by_name.get("query", []))
    solves = len(by_name.get("solver.solve", []))
    top = [s for s in spans if s.name in TOP_OPS]
    gauges = traced["gauges"]
    checkpoint = raw["checkpoint"]
    calib = raw["calib_ms"]
    half = len(calib) // 2

    metrics = {
        "core.update.us_p99": (
            _p([d * 1e3 for d in durations_ms("update")], 0.99), "us"),
        "core.update.us_max": (
            max(durations_ms("update"), default=0.0) * 1e3, "us"),
        "core.update.busy_share": (self_share("update"), "share"),
        "core.update.soa_pairs_per_arrival": (
            _ratio(self_count(writes, "soa_pairs"), arrivals), "count"),
        "core.update.expiry_sweeps_per_arrival": (
            _ratio(gauges.get("expiry_sweeps", 0), arrivals), "count"),
        "core.memory.v_points": (traced["memory"]["v_points"], "points"),
        "core.memory.c_points": (traced["memory"]["c_points"], "points"),
        "core.memory.guesses": (traced["memory"]["guesses"], "count"),
        "core.query.self_ms_p50": (_p(self_ms("query"), 0.5), "ms"),
        "core.query.busy_share": (self_share("query"), "share"),
        "core.query.coreset_size_p50": (
            _p(attrs("query", "coreset"), 0.5), "points"),
        "core.query.guesses_inspected_p50": (
            _p(attrs("query", "inspected"), 0.5), "count"),
        "core.query.soa_pairs_per_query": (
            _ratio(self_count("query", "soa_pairs"), queries), "count"),
        "sequential.solve.ms_p50": (
            _p(durations_ms("solver.solve"), 0.5), "ms"),
        "sequential.solve.busy_share": (self_share("solver.solve"), "share"),
        "sequential.solve.scalar_calls_per_solve": (
            _ratio(self_count("solver.solve", "scalar_calls"), solves),
            "count"),
        "sequential.solve.many_pairs_per_solve": (
            _ratio(self_count("solver.solve", "many_pairs"), solves),
            "count"),
        "sequential.solve.soa_pairs_per_solve": (
            _ratio(self_count("solver.solve", "soa_pairs"), solves),
            "count"),
        "core.checkpoint.serialize_ms_p50": (
            _p(checkpoint["serialize_ms"], 0.5), "ms"),
        "core.checkpoint.deserialize_ms_p50": (
            _p(checkpoint["deserialize_ms"], 0.5), "ms"),
        "core.checkpoint.bytes_per_point": (
            _ratio(checkpoint["bytes"], checkpoint["points"]), "B"),
        "serving.ingest.plain_ms_p50": (_p(durations_ms(
            "ingest", lambda s: s.attrs.get("rehydrated", 0) == 0), 0.5),
            "ms"),
        "serving.ingest.rehydrating_ms_p50": (_p(durations_ms(
            "ingest", lambda s: s.attrs.get("rehydrated", 0) > 0), 0.5),
            "ms"),
        "serving.ingest.self_ms_p50": (_p(self_ms("ingest"), 0.5), "ms"),
        "serving.spill.put_per_1k": (
            _ratio(1e3 * len(by_name.get("spill.put", [])), arrivals),
            "count"),
        "serving.spill.get_per_1k": (
            _ratio(1e3 * len(by_name.get("spill.get", [])), arrivals),
            "count"),
        "serving.spill.bytes_per_put": (_ratio(
            sum(s.counters["put_bytes"] for s in by_name.get("spill.put", [])),
            len(by_name.get("spill.put", []))), "B"),
        "serving.evictions_per_1k": (
            _ratio(1e3 * gauges.get("evictions", 0), arrivals), "count"),
        "serving.rehydrations_per_1k": (
            _ratio(1e3 * gauges.get("rehydrations", 0), arrivals), "count"),
        "serving.scan.ms_p50": (_p(durations_ms("scan"), 0.5), "ms"),
        "serving.scan.spilled_shards_p50": (
            _p(attrs("scan", "spilled"), 0.5), "count"),
        "serving.capture.ms_p50": (_p(durations_ms("tick"), 0.5), "ms"),
        "serving.capture.bytes_per_tick_p50": (
            _p(attrs("tick", "bytes"), 0.5), "B"),
        "serving.capture.dirty_shards_p50": (
            _p(attrs("tick", "dirty"), 0.5), "count"),
        "serving.capture.rebases": (gauges.get("rebases", 0), "count"),
        "serving.replay.ms_p50": (_p(durations_ms("replay"), 0.5), "ms"),
        "serving.replay.chain_length_p50": (
            _p(attrs("replay", "chain"), 0.5), "count"),
        "serving.live_shards_p50": (_p(attrs("ingest", "live"), 0.5),
                                    "count"),
        "host.calib_ms": (statistics.median(calib), "ms"),
        "host.factor": (host_factor(untraced), "x"),
        "wall.ingest_ms_p90": wall_clock(untraced)["ingest_ms_p90"],
        "wall.query_ms_p90": wall_clock(untraced)["query_ms_p90"],
        "host.calib_drift_share": (
            _ratio(statistics.median(calib[half:]) -
                   statistics.median(calib[:half]),
                   statistics.median(calib[:half])), "share"),
        "trace.overhead_share": (
            _ratio(traced["call_s"] - untraced["call_s"], untraced["call_s"]),
            "share"),
        "trace.span_coverage_share": (
            _ratio(sum(s.duration_ns for s in top), phase_ns), "share"),
    }
    fleet = "ingest" in by_name
    for share, op in SERVING_SHARES:
        busy = sum(s.duration_ns for s in by_name.get(op, [])) if fleet else 0
        metrics[f"serving.busy_share.{share}"] = (_ratio(busy, phase_ns),
                                                  "share")
    return metrics
