// The repository benchmark's binary: replays one seeded workload through the
// library as a closed loop (one client thread, every call synchronous) and
// writes the raw measurements as JSON for perfbench/run.py, which turns them
// into the reported metrics.
//
//   perfbench --workload=covtype-ingest --seed=1 --seconds=30 --trace=0
//             --out=result.json [--spans=spans.tsv]
//
// Untraced (--trace=0): several timed set-ups, each followed by a few
// reference sorts (the median set-up is reported), then
// one measured pass with the plain metric, solver and spill store; every
// library call is timed on its own, stream generation and correctness checks
// run outside the timed calls. Between calls, on a fixed cadence, the pass
// also times a reference kernel of the benchmark's own (ReferenceSort), which
// tells how fast the host ran while the calls ran; perfbench/stats.py states
// the end-to-end timings at a reference host speed with it.
//
// Traced (--trace=1): one untraced pass and one traced pass from identical
// warm states. The traced pass runs through forwarding decorators
// (decorators.h) and records a span around every call into the library and
// every decorator call (trace.h); both passes must end in byte-identical
// checkpoints. A checkpoint phase then times SerializeState and
// DeserializeState on the final window (the fleet: its live shards).
//
// Work per run is fixed — the workload's `work` scaled by
// seconds / kReferenceSeconds (a traced run by at most kReferenceSeconds),
// raised to the minimum the reported percentiles need — so every count the
// traced pass reports repeats exactly at a given seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/fair_center_sliding_window.h"
#include "decorators.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"
#include "serving/delta_log.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"
#include "trace.h"

namespace perfbench {
namespace {

using fkc::ColorConstraint;
using fkc::FairCenterSlidingWindow;
using fkc::FairCenterSolver;
using fkc::Metric;
using fkc::Point;
using fkc::QueryStats;
using fkc::serving::DeltaLog;
using fkc::serving::KeyedPoint;
using fkc::serving::ShardManager;

constexpr int kTotalK = 14;  // the paper's sum of color caps
/// The simulators' parameters (covtype's mixture and embedding, phones'
/// walk) come from their generator seed. Holding it fixed keeps the data
/// distribution — and with it the window sizes and coreset sizes — a
/// property of the workload; --seed picks the sample: the arrival order on
/// covtype, the tenant schedule on the fleet.
constexpr uint64_t kDatasetSeed = 42;
constexpr int kSetupReps = 5;
/// Reference sorts timed after each set-up, to state it at reference speed.
constexpr int kSetupReferenceSorts = 5;
/// A median needs ten samples beyond it, so at least 20; 21 keeps it odd.
constexpr int kCheckpointReps = 21;
/// p90 needs ten samples beyond it.
constexpr int64_t kMinQueries = 100;
/// --seconds scales a run's work linearly; at this value a run replays the
/// workload's `work`, about that many seconds of library time on a 4-vCPU
/// x86 host. A traced run makes two passes and a checkpoint phase, so its
/// work stops growing here.
constexpr double kReferenceSeconds = 15.0;

/// One sliding window fed one Update per arrival and queried on a cadence.
struct WindowWorkload {
  const char* dataset;
  bool adaptive_range;
  double delta;
  int64_t window;
  int64_t query_every;  ///< arrivals per Query
  /// Queries per ratio evaluation: the ratio runs Jones on the full window,
  /// which costs about as much as the query itself.
  int64_t ratio_every;
  int64_t reference_every;  ///< arrivals per timed reference sort
  int64_t work;             ///< measured arrivals at kReferenceSeconds
};

/// Tenants on one ShardManager, arrivals routed through IngestBatch.
struct FleetWorkload {
  int tenants = 32;
  int64_t window = 2000;
  double delta = 1.0;
  int64_t max_live_shards = 24;
  double zipf_s = 1.1;
  int64_t group = 16;  ///< arrivals a tenant flushes at once
  int64_t batch = 64;  ///< arrivals per IngestBatch
  int64_t query_every = 4;     ///< batches per per-key Query
  int64_t tick_every = 64;     ///< batches per maintenance tick
  int64_t scan_every = 128;    ///< batches per QueryAll
  /// Batches per DeltaLog::Replay in a traced run, which times Replay.
  /// Replay leaves the live fleet alone, so an untraced run, which only
  /// checks it, replays four times less often.
  int64_t replay_every = 128;
  int64_t untraced_replay_every = 512;
  int64_t reference_every = 32;  ///< batches per timed reference sort
  int64_t idle_ttl = 4096;
  /// Deltas per re-base. Replay cost grows with the chain, and a traced run
  /// replays 20 times; a short chain keeps it to a few hundred
  /// milliseconds.
  int64_t max_chain_length = 4;
  int64_t warm_batches = 512;
  int64_t work = 2048;  ///< measured batches at kReferenceSeconds
};

// Fields: dataset, adaptive_range, delta, window, query_every, ratio_every,
// reference_every, work.
const WindowWorkload kCovtypeIngest = {"covtype", false, 0.5, 10000,
                                       50,        2,     50,  5000};
const FleetWorkload kTenantFleet;

/// `work` scaled to `seconds`, rounded up to whole `cadence` periods and
/// raised to at least `minimum`.
int64_t ScaledWork(int64_t work, double seconds, int64_t cadence,
                   int64_t minimum) {
  int64_t n = std::max<int64_t>(
      minimum, static_cast<int64_t>(std::ceil(work * seconds /
                                              kReferenceSeconds)));
  return (n + cadence - 1) / cadence * cadence;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

volatile double calibration_sink = 0.0;

/// A fixed arithmetic loop whose time tracks the host's speed, not the code
/// under test: compared across runs, it tells VM drift from a change.
double CalibrationMillis() {
  const int64_t start = NowNanos();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < 20000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  calibration_sink = acc;
  return Seconds(NowNanos() - start) * 1e3;
}

/// The host reference kernel: std::sort of a fixed array of 16384 random
/// 64-bit keys. On a shared host the speed of ordinary code — branches,
/// loads, a private-cache working set — drifts by 10-50% between runs, with
/// the load that other tenants put on the core and its caches. A sort is
/// such code, and it slows with it far more closely than a register-only
/// loop does. Its input and cache state are the same every time, whatever
/// the library did before: the array is copied and sorted once untimed,
/// then copied again and sorted timed.
class ReferenceSort {
 public:
  ReferenceSort() : pristine_(16384), work_(pristine_.size()) {
    uint64_t x = 0x2545f4914f6cdd1dULL;
    for (uint64_t& key : pristine_) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      key = x >> 7;
    }
  }

  double Millis() {
    work_ = pristine_;
    std::sort(work_.begin(), work_.end());
    work_ = pristine_;
    const int64_t start = NowNanos();
    std::sort(work_.begin(), work_.end());
    const double ms = Seconds(NowNanos() - start) * 1e3;
    calibration_sink = static_cast<double>(work_[work_.size() / 2]);
    return ms;
  }

 private:
  std::vector<uint64_t> pristine_;
  std::vector<uint64_t> work_;
};

/// Operations attempted and failed (non-OK status or a failed check).
class Checks {
 public:
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Times calls into the library. With a tracer it also opens a span around
/// each call and activates the decorators only for the call's duration, so
/// benchmark-side checks never show up in the trace.
class Probe {
 public:
  explicit Probe(Tracer* tracer) : tracer_(tracer) {}

  template <typename Fn>
  void Call(const char* op, int64_t cause, Fn&& fn) {
    if (tracer_ != nullptr) {
      tracer_->set_active(true);
      last_span_ = tracer_->Begin(op, cause);
    }
    const int64_t start = NowNanos();
    fn();
    const int64_t end = NowNanos();
    if (tracer_ != nullptr) {
      tracer_->End(last_span_);
      tracer_->set_active(false);
    }
    samples_[op].push_back(static_cast<double>(end - start) * 1e-6);
    causes_[op].push_back(cause);
    call_ns_ += end - start;
  }

  /// Attaches a gauge to the span of the last Call (traced pass only).
  void Attr(const char* key, int64_t value) {
    if (tracer_ != nullptr) tracer_->Attr(last_span_, key, value);
  }

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }
  const std::map<std::string, std::vector<int64_t>>& causes() const {
    return causes_;
  }
  int64_t call_ns() const { return call_ns_; }

 private:
  Tracer* tracer_;
  int64_t last_span_ = -1;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<int64_t>> causes_;
  int64_t call_ns_ = 0;
};

/// What one measured pass produced.
struct PassResult {
  int64_t arrivals = 0;
  /// The loop's steps (arrivals on the windows, batches on the fleet);
  /// every call records the step that caused it.
  int64_t steps = 0;
  std::map<std::string, std::vector<double>> samples;  ///< ms per call
  std::map<std::string, std::vector<int64_t>> causes;  ///< step per call
  double call_s = 0.0;   ///< time inside timed library calls
  double wall_s = 0.0;   ///< wall time of the pass
  /// Wall time of benchmark-side work: checks and reference sorts.
  double check_s = 0.0;
  std::vector<double> reference_ms;  ///< timed reference sorts
  std::vector<double> ratios;
  fkc::MemoryStats memory;
  std::map<std::string, int64_t> gauges;
  std::string final_state;  ///< checkpoint at the end (traced runs only)
};

/// Checks a fair-center answer for one window whose arrivals are
/// 1..now and whose point with arrival a is `at(a)`: the caps hold, every
/// center is a current window point, and (when `ratio` is non-null) the
/// radius over the window relative to Jones on the full window.
std::string CheckAnswer(const std::vector<Point>& centers,
                        const std::function<const Point&(int64_t)>& at,
                        int64_t now, int64_t window,
                        const ColorConstraint& constraint,
                        const Metric& metric, const FairCenterSolver& jones,
                        double* ratio) {
  if (centers.empty() && now > 0) return "empty center set";
  if (!constraint.IsFeasible(centers)) return "color caps violated";
  const int64_t first = std::max<int64_t>(1, now - window + 1);
  for (const Point& c : centers) {
    if (c.arrival < first || c.arrival > now) {
      return fkc::StrFormat("center arrival %lld outside window [%lld, %lld]",
                            static_cast<long long>(c.arrival),
                            static_cast<long long>(first),
                            static_cast<long long>(now));
    }
    const Point& p = at(c.arrival);
    if (p.coords != c.coords || p.color != c.color) {
      return "center is not the window point of its arrival";
    }
  }
  if (ratio == nullptr) return "";
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(now - first + 1));
  for (int64_t a = first; a <= now; ++a) points.push_back(at(a));
  auto baseline = jones.Solve(metric, points, constraint);
  if (!baseline.ok()) return "baseline Jones failed";
  const double ours = fkc::ClusteringRadius(metric, points, centers);
  const double best =
      fkc::ClusteringRadius(metric, points, baseline.value().centers);
  *ratio = best > 0.0 ? ours / best : 1.0;
  return "";
}

// --- Sliding-window workloads. ---

struct WindowInstance {
  fkc::bench::PreparedDataset prepared;
  std::unique_ptr<FairCenterSlidingWindow> window;
};

/// Feeds point `index` of `points` to `window` with one Update. The
/// payload is copied before `call` runs the timed feed.
template <typename Call>
void Feed(FairCenterSlidingWindow* window, const std::vector<Point>& points,
          int64_t index, Call&& call) {
  const Point& p = points[static_cast<size_t>(index)];
  fkc::Coordinates coords = p.coords;
  call([&] { window->Update(std::move(coords), p.color); });
}

/// Generates the stream — the fixed covtype sample in the seed's order — and
/// fills the window with its first `window` arrivals, the way the load
/// feeds it.
WindowInstance SetUpWindow(const WindowWorkload& w, uint64_t seed,
                           int64_t arrivals, const Metric& plain_metric,
                           const Metric* metric,
                           const FairCenterSolver* solver) {
  WindowInstance out;
  out.prepared = fkc::bench::Prepare(w.dataset, w.window + arrivals,
                                     plain_metric, kTotalK, kDatasetSeed);
  fkc::Rng rng(seed);
  rng.Shuffle(&out.prepared.dataset.points);
  fkc::SlidingWindowOptions options;
  options.window_size = w.window;
  options.beta = 2.0;
  options.delta = w.delta;
  options.adaptive_range = w.adaptive_range;
  if (!w.adaptive_range) {
    options.d_min = out.prepared.d_min;
    options.d_max = out.prepared.d_max;
  }
  options.num_threads = 1;
  out.window = std::make_unique<FairCenterSlidingWindow>(
      options, out.prepared.constraint, metric, solver);
  const std::vector<Point>& points = out.prepared.dataset.points;
  for (int64_t i = 0; i < w.window; ++i) {
    Feed(out.window.get(), points, i, [](auto&& fn) { fn(); });
  }
  return out;
}

/// `metric` and `jones` serve the benchmark-side checks; the window runs
/// with whatever it was set up with.
PassResult RunWindowPass(const WindowWorkload& w, WindowInstance* inst,
                         int64_t arrivals, Probe* probe, bool keep_state,
                         const Metric& metric, const FairCenterSolver& jones,
                         Checks* checks) {
  PassResult result;
  ReferenceSort reference;
  FairCenterSlidingWindow& window = *inst->window;
  const std::vector<Point>& points = inst->prepared.dataset.points;
  const ColorConstraint& constraint = inst->prepared.constraint;
  const auto at = [&points](int64_t arrival) -> const Point& {
    return points[static_cast<size_t>(arrival - 1)];
  };
  const int64_t sweeps_before = window.ExpirySweeps();
  int64_t check_ns = 0;
  const int64_t start = NowNanos();
  for (int64_t i = 0; i < arrivals; ++i) {
    Feed(&window, points, w.window + i,
         [&](auto&& fn) { probe->Call("update", i, fn); });
    checks->Op(true, "update");
    if ((i + 1) % w.reference_every == 0) {
      const int64_t reference_start = NowNanos();
      result.reference_ms.push_back(reference.Millis());
      check_ns += NowNanos() - reference_start;
    }
    if ((i + 1) % w.query_every != 0) continue;

    QueryStats stats;
    std::optional<fkc::Result<fkc::FairCenterSolution>> answer;
    probe->Call("query", i, [&] { answer.emplace(window.Query(&stats)); });
    probe->Attr("coreset", stats.coreset_size);
    probe->Attr("inspected", stats.guesses_inspected);

    const int64_t check_start = NowNanos();
    const bool with_ratio = ((i + 1) / w.query_every) % w.ratio_every == 0;
    std::string error = answer->ok() ? "" : answer->status().ToString();
    double ratio = 0.0;
    if (error.empty()) {
      error = CheckAnswer(answer->value().centers, at, window.now(), w.window,
                          constraint, metric, jones,
                          with_ratio ? &ratio : nullptr);
    }
    if (error.empty() && with_ratio) result.ratios.push_back(ratio);
    checks->Op(error.empty(), fkc::StrFormat("query at arrival %lld: %s",
                                             static_cast<long long>(i),
                                             error.c_str()));
    check_ns += NowNanos() - check_start;
  }
  result.wall_s = Seconds(NowNanos() - start);
  result.check_s = Seconds(check_ns);
  result.arrivals = arrivals;
  result.steps = arrivals;
  result.samples = probe->samples();
  result.causes = probe->causes();
  result.call_s = Seconds(probe->call_ns());
  result.memory = window.Memory();
  result.gauges["expiry_sweeps"] = window.ExpirySweeps() - sweeps_before;
  if (keep_state) result.final_state = window.SerializeState();
  return result;
}

// --- The tenant fleet. ---

/// The pre-generated stream: point i goes to tenant group_tenant[i / group]
/// (Zipf-popular tenants); per-key query slot q asks query_tenant[q], drawn
/// uniformly, so about a quarter of the queries find their tenant spilled.
struct FleetSchedule {
  fkc::bench::PreparedDataset prepared;
  std::vector<int> group_tenant;
  std::vector<int> query_tenant;
};

std::string TenantKey(int tenant) {
  return fkc::StrFormat("tenant-%02d", tenant);
}

FleetSchedule MakeFleetSchedule(const FleetWorkload& f, uint64_t seed,
                                int64_t total_batches,
                                const Metric& plain_metric) {
  FleetSchedule out;
  const int64_t points = total_batches * f.batch;
  out.prepared = fkc::bench::Prepare("phones", points, plain_metric, kTotalK,
                                     kDatasetSeed);
  fkc::Rng rng(seed);
  const fkc::ZipfDistribution zipf(static_cast<size_t>(f.tenants), f.zipf_s);
  for (int64_t g = 0; g < points / f.group; ++g) {
    out.group_tenant.push_back(static_cast<int>(zipf.Next(&rng)));
  }
  for (int64_t q = 0; q < total_batches / f.query_every; ++q) {
    out.query_tenant.push_back(static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(f.tenants))));
  }
  return out;
}

struct FleetInstance {
  FleetSchedule schedule;
  std::unique_ptr<ShardManager> manager;
  std::unique_ptr<DeltaLog> log;
  /// Per tenant, the stream indices of its arrivals so far.
  std::vector<std::vector<int64_t>> history;
  int64_t next_batch = 0;  ///< global index of the next batch to ingest
};

/// Copies batch `b` of the schedule and records its arrivals per tenant.
std::vector<KeyedPoint> NextBatch(const FleetWorkload& f,
                                  FleetInstance* inst) {
  std::vector<KeyedPoint> batch;
  batch.reserve(static_cast<size_t>(f.batch));
  const std::vector<Point>& points = inst->schedule.prepared.dataset.points;
  const int64_t first = inst->next_batch * f.batch;
  for (int64_t i = first; i < first + f.batch; ++i) {
    const int tenant = inst->schedule.group_tenant[i / f.group];
    batch.push_back({TenantKey(tenant), points[static_cast<size_t>(i)]});
    inst->history[tenant].push_back(i);
  }
  ++inst->next_batch;
  return batch;
}

fkc::serving::MaintenanceOptions TickOptions(const FleetWorkload& f,
                                             DeltaLog* log) {
  fkc::serving::MaintenanceOptions options;
  options.idle_ttl = f.idle_ttl;
  options.delta_log = log;
  return options;
}

/// Generates the stream, builds the fleet and runs the warm-up batches
/// (ingest plus maintenance ticks, no queries).
FleetInstance SetUpFleet(const FleetWorkload& f, uint64_t seed,
                         int64_t measured_batches, const Metric& plain_metric,
                         const Metric* metric, const FairCenterSolver* solver,
                         std::shared_ptr<fkc::serving::SpillStore> store,
                         Checks* checks) {
  FleetInstance inst;
  inst.schedule = MakeFleetSchedule(f, seed, f.warm_batches + measured_batches,
                                    plain_metric);
  fkc::serving::ShardManagerOptions options;
  options.window.window_size = f.window;
  options.window.beta = 2.0;
  options.window.delta = f.delta;
  options.window.adaptive_range = true;
  options.num_threads = 1;
  options.max_live_shards = f.max_live_shards;
  options.spill_store = std::move(store);
  inst.manager = std::make_unique<ShardManager>(
      options, inst.schedule.prepared.constraint, metric, solver);
  DeltaLog::Options log_options;
  log_options.max_chain_length = f.max_chain_length;
  inst.log = std::make_unique<DeltaLog>(log_options);
  inst.history.resize(static_cast<size_t>(f.tenants));
  const auto tick = TickOptions(f, inst.log.get());
  for (int64_t b = 0; b < f.warm_batches; ++b) {
    fkc::Status status = inst.manager->IngestBatch(NextBatch(f, &inst));
    checks->Op(status.ok(), "warm-up ingest: " + status.ToString());
    if (inst.next_batch % f.tick_every == 0) {
      fkc::Status tick_status = inst.manager->RunMaintenanceTick(tick).status;
      checks->Op(tick_status.ok(), "warm-up tick: " + tick_status.ToString());
    }
  }
  return inst;
}

/// `lib_metric` and `lib_solver` are what the fleet itself runs with (the
/// decorators in a traced pass) and what Replay receives; `metric` and
/// `jones` serve the benchmark-side checks.
PassResult RunFleetPass(const FleetWorkload& f, FleetInstance* inst,
                        int64_t batches, int64_t replay_every, Probe* probe,
                        bool keep_state, const Metric* lib_metric,
                        const FairCenterSolver* lib_solver,
                        const Metric& metric, const FairCenterSolver& jones,
                        Checks* checks) {
  PassResult result;
  ReferenceSort reference;
  ShardManager& manager = *inst->manager;
  const std::vector<Point>& points = inst->schedule.prepared.dataset.points;
  const ColorConstraint& constraint = inst->schedule.prepared.constraint;
  const auto tick = TickOptions(f, inst->log.get());
  const int64_t evictions_before = manager.evictions();
  const int64_t rehydrations_before = manager.rehydrations();
  const int64_t rebases_before = inst->log->rebases();
  int64_t check_ns = 0;
  const int64_t start = NowNanos();
  for (int64_t b = 0; b < batches; ++b) {
    std::vector<KeyedPoint> batch = NextBatch(f, inst);
    const int64_t global = inst->next_batch;  // batches ingested so far
    const int64_t rehydrations = manager.rehydrations();
    fkc::Status status;
    probe->Call("ingest", b,
                [&] { status = manager.IngestBatch(std::move(batch)); });
    probe->Attr("rehydrated", manager.rehydrations() - rehydrations);
    probe->Attr("live", static_cast<int64_t>(manager.live_shard_count()));
    checks->Op(status.ok(), "ingest: " + status.ToString());
    if (global % f.reference_every == 0) {
      const int64_t reference_start = NowNanos();
      result.reference_ms.push_back(reference.Millis());
      check_ns += NowNanos() - reference_start;
    }

    if (global % f.query_every == 0) {
      const int tenant =
          inst->schedule.query_tenant[static_cast<size_t>(global /
                                                          f.query_every) - 1];
      QueryStats stats;
      std::optional<fkc::Result<fkc::ObjectiveSolution>> answer;
      probe->Call("query", b, [&] {
        answer.emplace(manager.Query(TenantKey(tenant), &stats));
      });
      probe->Attr("coreset", stats.coreset_size);
      probe->Attr("inspected", stats.guesses_inspected);

      const int64_t check_start = NowNanos();
      const std::vector<int64_t>& history = inst->history[tenant];
      const auto at = [&](int64_t arrival) -> const Point& {
        return points[static_cast<size_t>(
            history[static_cast<size_t>(arrival - 1)])];
      };
      std::string error = answer->ok() ? "" : answer->status().ToString();
      double ratio = 0.0;
      if (error.empty()) {
        error = CheckAnswer(answer->value().centers, at,
                            static_cast<int64_t>(history.size()), f.window,
                            constraint, metric, jones, &ratio);
      }
      if (error.empty()) result.ratios.push_back(ratio);
      checks->Op(error.empty(), "query " + TenantKey(tenant) + ": " + error);
      check_ns += NowNanos() - check_start;
    }

    if (global % f.scan_every == 0) {
      std::vector<fkc::serving::ShardAnswer> answers;
      const int64_t spilled =
          static_cast<int64_t>(manager.spilled_shard_count());
      probe->Call("scan", b, [&] { answers = manager.QueryAll(); });
      probe->Attr("spilled", spilled);
      const int64_t check_start = NowNanos();
      std::string error;
      for (const auto& answer : answers) {
        if (!answer.solution.ok()) {
          error = answer.key + ": " + answer.solution.status().ToString();
        } else if (!constraint.IsFeasible(answer.solution.value().centers)) {
          error = answer.key + ": color caps violated";
        }
      }
      if (answers.size() != manager.shard_count()) error = "missing answers";
      checks->Op(error.empty(), "scan: " + error);
      check_ns += NowNanos() - check_start;
    }

    if (global % f.tick_every == 0) {
      const int64_t dirty = static_cast<int64_t>(manager.dirty_shard_count());
      fkc::serving::MaintenanceTickReport report;
      probe->Call("tick", b, [&] { report = manager.RunMaintenanceTick(tick); });
      probe->Attr("dirty", dirty);
      probe->Attr("bytes", static_cast<int64_t>(report.capture_bytes));
      probe->Attr("rebased", report.rebased ? 1 : 0);
      checks->Op(report.status.ok(), "tick: " + report.status.ToString());
    }

    if (global % replay_every == 0) {
      std::optional<fkc::Result<ShardManager>> replayed;
      probe->Call("replay", b, [&] {
        replayed.emplace(inst->log->Replay(lib_metric, lib_solver));
      });
      probe->Attr("chain", static_cast<int64_t>(inst->log->chain_length()));
      // Replays follow a tick's capture, which left every shard clean, so
      // this full checkpoint of the live fleet consumes no dirty bit the log
      // still needs.
      const int64_t check_start = NowNanos();
      std::string error;
      if (!replayed->ok()) {
        error = replayed->status().ToString();
      } else {
        auto live = manager.CheckpointAll();
        auto copy = replayed->value().CheckpointAll();
        if (!live.ok() || !copy.ok() || live.value() != copy.value()) {
          error = "replayed fleet differs from the live fleet";
        }
      }
      checks->Op(error.empty(), "replay: " + error);
      check_ns += NowNanos() - check_start;
    }
  }
  result.wall_s = Seconds(NowNanos() - start);
  result.check_s = Seconds(check_ns);
  result.arrivals = batches * f.batch;
  result.steps = batches;
  result.samples = probe->samples();
  result.causes = probe->causes();
  result.call_s = Seconds(probe->call_ns());
  result.memory = manager.TotalMemory();
  result.gauges["evictions"] = manager.evictions() - evictions_before;
  result.gauges["rehydrations"] = manager.rehydrations() - rehydrations_before;
  result.gauges["rebases"] = inst->log->rebases() - rebases_before;
  if (keep_state) {
    auto blob = manager.CheckpointAll();
    checks->Op(blob.ok(), "final checkpoint: " + blob.status().ToString());
    if (blob.ok()) result.final_state = std::move(blob).value();
  }
  return result;
}

// --- Output. ---

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteDoubles(std::FILE* f, const std::vector<double>& values) {
  std::fprintf(f, "[");
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::fprintf(f, "]");
}

void WritePass(std::FILE* f, const char* name, const PassResult& pass) {
  std::fprintf(f, "  \"%s\": {\n", name);
  std::fprintf(f, "    \"arrivals\": %lld,\n    \"steps\": %lld,\n",
               static_cast<long long>(pass.arrivals),
               static_cast<long long>(pass.steps));
  std::fprintf(f, "    \"call_s\": %.17g,\n", pass.call_s);
  std::fprintf(f, "    \"wall_s\": %.17g,\n", pass.wall_s);
  std::fprintf(f, "    \"check_s\": %.17g,\n", pass.check_s);
  std::fprintf(f, "    \"reference_ms\": ");
  WriteDoubles(f, pass.reference_ms);
  std::fprintf(f, ",\n    \"ratios\": ");
  WriteDoubles(f, pass.ratios);
  std::fprintf(f, ",\n    \"memory\": {\"v_points\": %lld, \"c_points\": %lld,"
                  " \"guesses\": %lld, \"total\": %lld},\n",
               static_cast<long long>(pass.memory.v_attractors +
                                      pass.memory.v_representatives),
               static_cast<long long>(pass.memory.c_attractors +
                                      pass.memory.c_representatives),
               static_cast<long long>(pass.memory.guesses),
               static_cast<long long>(pass.memory.TotalPoints()));
  std::fprintf(f, "    \"gauges\": {");
  bool first = true;
  for (const auto& [key, value] : pass.gauges) {
    std::fprintf(f, "%s\"%s\": %lld", first ? "" : ", ", key.c_str(),
                 static_cast<long long>(value));
    first = false;
  }
  std::fprintf(f, "},\n    \"samples\": {");
  first = true;
  for (const auto& [op, values] : pass.samples) {
    std::fprintf(f, "%s\n      \"%s\": ", first ? "" : ",", op.c_str());
    WriteDoubles(f, values);
    first = false;
  }
  std::fprintf(f, "},\n    \"causes\": {");
  first = true;
  for (const auto& [op, causes] : pass.causes) {
    std::fprintf(f, "%s\n      \"%s\": [", first ? "" : ",", op.c_str());
    for (size_t i = 0; i < causes.size(); ++i) {
      std::fprintf(f, "%s%lld", i == 0 ? "" : ", ",
                   static_cast<long long>(causes[i]));
    }
    std::fprintf(f, "]");
    first = false;
  }
  std::fprintf(f, "}\n  },\n");
}

struct CheckpointTimes {
  std::vector<double> serialize_ms;
  std::vector<double> deserialize_ms;
  int64_t bytes = 0;
  int64_t points = 0;
};

/// Times one SerializeState + DeserializeState round trip of `engine`.
void TimeCheckpoint(const fkc::ObjectiveEngine& engine, const Metric* metric,
                    const FairCenterSolver* solver, CheckpointTimes* out,
                    Checks* checks) {
  int64_t start = NowNanos();
  const std::string blob = engine.SerializeState();
  out->serialize_ms.push_back(Seconds(NowNanos() - start) * 1e3);
  start = NowNanos();
  auto restored = FairCenterSlidingWindow::DeserializeState(blob, metric, solver);
  out->deserialize_ms.push_back(Seconds(NowNanos() - start) * 1e3);
  checks->Op(restored.ok() && restored.value().SerializeState() == blob,
             "checkpoint round trip");
  out->bytes += static_cast<int64_t>(blob.size());
  out->points += engine.Memory().TotalPoints();
}

int Main(int argc, char** argv) {
  fkc::FlagParser flags;
  std::string workload;
  int64_t seed = 1;
  double seconds = 10;
  int64_t trace = 0;
  std::string out_path;
  std::string spans_path;
  flags.AddString("workload", &workload, "covtype-ingest | tenant-fleet");
  flags.AddInt64("seed", &seed, "stream seed");
  flags.AddDouble("seconds", &seconds, "nominal measured seconds");
  flags.AddInt64("trace", &trace, "0: untraced run, 1: traced run");
  flags.AddString("out", &out_path, "raw result JSON path");
  flags.AddString("spans", &spans_path, "span TSV path (traced runs)");
  fkc::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested() || out_path.empty() ||
      seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      (trace == 1 && spans_path.empty())) {
    std::fprintf(stderr, "%s%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  const bool window_workload = workload == "covtype-ingest";
  if (!window_workload && workload != "tenant-fleet") {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  const uint64_t useed = static_cast<uint64_t>(seed);
  if (trace == 1) seconds = std::min(seconds, kReferenceSeconds);

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  Tracer tracer;
  const TracingMetric traced_metric(&metric, &tracer);
  const TracingSolver traced_solver(&jones, &tracer);
  Checks checks;
  std::vector<double> calib_ms;
  for (int i = 0; i < 3; ++i) calib_ms.push_back(CalibrationMillis());

  std::vector<double> setup_s;
  std::vector<double> setup_reference_ms;
  ReferenceSort reference;
  const auto time_setup = [&](const std::function<void()>& set_up) {
    const int64_t start = NowNanos();
    set_up();
    setup_s.push_back(Seconds(NowNanos() - start));
    for (int i = 0; i < kSetupReferenceSorts; ++i) {
      setup_reference_ms.push_back(reference.Millis());
    }
  };
  std::optional<PassResult> untraced;
  std::optional<PassResult> traced;
  CheckpointTimes checkpoint;

  if (window_workload) {
    const WindowWorkload& w = kCovtypeIngest;
    // p90 of queries and p99 of writes (traced) need 100 and 1000 samples.
    const int64_t arrivals =
        ScaledWork(w.work, seconds, w.query_every,
                   std::max<int64_t>(kMinQueries * w.query_every, 1000));

    std::optional<WindowInstance> plain;
    for (int rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
      plain.reset();
      time_setup([&] {
        plain.emplace(SetUpWindow(w, useed, arrivals, metric, &metric, &jones));
      });
    }
    Probe probe(nullptr);
    untraced = RunWindowPass(w, &*plain, arrivals, &probe, trace == 1, metric,
                             jones, &checks);
    if (trace == 1) {
      WindowInstance instance = SetUpWindow(w, useed, arrivals, metric,
                                            &traced_metric, &traced_solver);
      Probe traced_probe(&tracer);
      traced = RunWindowPass(w, &instance, arrivals, &traced_probe, true,
                             metric, jones, &checks);
      for (int rep = 0; rep < kCheckpointReps; ++rep) {
        TimeCheckpoint(*plain->window, &metric, &jones, &checkpoint, &checks);
      }
    }
  } else {
    const FleetWorkload& f = kTenantFleet;
    // Scans need 20 samples for their median.
    const int64_t batches =
        ScaledWork(f.work, seconds, f.scan_every, 20 * f.scan_every);

    std::optional<FleetInstance> plain;
    for (int rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
      plain.reset();
      time_setup([&] {
        plain.emplace(SetUpFleet(
            f, useed, batches, metric, &metric, &jones,
            std::make_shared<fkc::serving::InMemorySpillStore>(), &checks));
      });
    }
    Probe probe(nullptr);
    untraced = RunFleetPass(
        f, &*plain, batches,
        trace == 1 ? f.replay_every : f.untraced_replay_every, &probe,
        trace == 1, &metric, &jones, metric, jones, &checks);
    if (trace == 1) {
      FleetInstance instance = SetUpFleet(
          f, useed, batches, metric, &traced_metric, &traced_solver,
          std::make_shared<TracingSpillStore>(
              std::make_shared<fkc::serving::InMemorySpillStore>(), &tracer),
          &checks);
      Probe traced_probe(&tracer);
      traced = RunFleetPass(f, &instance, batches, f.replay_every,
                            &traced_probe, true, &traced_metric,
                            &traced_solver, metric, jones, &checks);
      const ShardManager& manager = *plain->manager;
      const std::vector<std::string> keys = manager.Keys();
      while (static_cast<int>(checkpoint.serialize_ms.size()) <
                 kCheckpointReps &&
             manager.live_shard_count() > 0) {
        for (const std::string& key : keys) {
          const fkc::ObjectiveEngine* shard = manager.shard(key);
          if (shard != nullptr) {
            TimeCheckpoint(*shard, &metric, &jones, &checkpoint, &checks);
          }
        }
      }
    }
  }
  if (traced.has_value()) {
    checks.Op(traced->final_state == untraced->final_state,
              "traced and untraced passes ended in different states");
    if (!tracer.WriteTsv(spans_path) || tracer.open_spans() != 0) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
      return 1;
    }
  }
  for (int i = 0; i < 3; ++i) calib_ms.push_back(CalibrationMillis());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %lld,\n",
               workload.c_str(), static_cast<long long>(seed));
  std::fprintf(f, "  \"setup_s\": ");
  WriteDoubles(f, setup_s);
  std::fprintf(f, ",\n  \"setup_reference_ms\": ");
  WriteDoubles(f, setup_reference_ms);
  std::fprintf(f, ",\n  \"calib_ms\": ");
  WriteDoubles(f, calib_ms);
  std::fprintf(f, ",\n");
  WritePass(f, "untraced", *untraced);
  if (traced.has_value()) {
    WritePass(f, "traced", *traced);
    std::fprintf(f, "  \"checkpoint\": {\"serialize_ms\": ");
    WriteDoubles(f, checkpoint.serialize_ms);
    std::fprintf(f, ", \"deserialize_ms\": ");
    WriteDoubles(f, checkpoint.deserialize_ms);
    std::fprintf(f, ", \"bytes\": %lld, \"points\": %lld},\n",
                 static_cast<long long>(checkpoint.bytes),
                 static_cast<long long>(checkpoint.points));
  }
  std::fprintf(f, "  \"checks\": {\"attempted\": %lld, \"failed\": %lld, "
                  "\"messages\": [",
               static_cast<long long>(checks.attempted()),
               static_cast<long long>(checks.failed()));
  for (size_t i = 0; i < checks.messages().size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                 JsonString(checks.messages()[i]).c_str());
  }
  std::fprintf(f, "]}\n}\n");
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
