// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// figure experiments: distance evaluation (scalar vs batched), Gonzalez,
// matching, the sequential solvers, and the streaming update/query paths
// (sequential vs batched vs parallel ladder).
//
//   micro_kernels [--threads=N] [google-benchmark flags]
//
// --threads (default: hardware concurrency) sets the thread count of the
// *_Parallel benchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fair_center_sliding_window.h"
#include "core/guess_structure.h"
#include "datasets/blobs.h"
#include "datasets/registry.h"
#include "matching/capacitated_matching.h"
#include "matching/hopcroft_karp.h"
#include "metric/coordinate_pool.h"
#include "metric/counting_metric.h"
#include "metric/metric.h"
#include "metric/simd_kernels.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

std::vector<Point> MakePoints(int n, int dim, int ell = 4) {
  datasets::BlobsOptions options;
  options.num_points = n;
  options.dimension = dim;
  options.ell = ell;
  return datasets::GenerateBlobs(options);
}

void BM_EuclideanDistance(benchmark::State& state) {
  const EuclideanMetric metric;
  const auto points = MakePoints(2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric.Distance(points[0], points[1]));
  }
}
BENCHMARK(BM_EuclideanDistance)->Arg(3)->Arg(7)->Arg(54);

// The update hot loop in its two guises: one arriving point scanned against
// a stored attractor set, distance by distance through the virtual Distance
// (scalar), versus one DistanceMany call (batched). Args: {dim, set size}.
void BM_AttractorScanScalar(benchmark::State& state) {
  const EuclideanMetric concrete;
  const Metric& metric = concrete;  // force the virtual call, as Update does
  const int n = static_cast<int>(state.range(1));
  const auto points = MakePoints(n + 1, static_cast<int>(state.range(0)));
  std::vector<double> out(n);
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      out[i] = metric.Distance(points[0], points[i + 1]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AttractorScanScalar)
    ->Args({3, 16})->Args({3, 128})->Args({7, 64})->Args({54, 64})
    ->Args({16, 64})->Args({16, 512})->Args({64, 64})->Args({64, 512});

void BM_AttractorScanBatched(benchmark::State& state) {
  const EuclideanMetric concrete;
  const Metric& metric = concrete;
  const int n = static_cast<int>(state.range(1));
  const auto points = MakePoints(n + 1, static_cast<int>(state.range(0)));
  std::vector<const Point*> ptrs(n);
  for (int i = 0; i < n; ++i) ptrs[i] = &points[i + 1];
  std::vector<double> out(n);
  for (auto _ : state) {
    metric.DistanceMany(points[0], ptrs.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AttractorScanBatched)
    ->Args({3, 16})->Args({3, 128})->Args({7, 64})->Args({54, 64})
    ->Args({16, 64})->Args({16, 512})->Args({64, 64})->Args({64, 512});

// The same scan through the SoA coordinate pool, by kernel tier: the scalar
// reference kernels (dim-major layout alone) versus whatever SIMD set
// runtime dispatch picked (AVX-512 > AVX2 > scalar; cap with FKC_SIMD).
// The d=16/d=64 ladders are the headline speedup comparison against
// BM_AttractorScanBatched at identical args. Args: {dim, set size}.
void RunSoAScan(benchmark::State& state, const simd::KernelSet& kernels) {
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto points = MakePoints(n + 1, dim);
  CoordinatePool pool(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) pool.Append(points[i + 1]);
  std::vector<double> out(n);
  for (auto _ : state) {
    kernels.euclidean(points[0].coords.data(), pool.Row(0), pool.stride(),
                      pool.dim(), pool.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels.name);
}

void BM_AttractorScanSoAScalar(benchmark::State& state) {
  RunSoAScan(state, simd::ScalarKernels());
}
BENCHMARK(BM_AttractorScanSoAScalar)
    ->Args({3, 16})->Args({3, 128})->Args({7, 64})->Args({54, 64})
    ->Args({16, 64})->Args({16, 512})->Args({64, 64})->Args({64, 512});

void BM_AttractorScanSoASimd(benchmark::State& state) {
  RunSoAScan(state, simd::ActiveKernels());
}
BENCHMARK(BM_AttractorScanSoASimd)
    ->Args({3, 16})->Args({3, 128})->Args({7, 64})->Args({54, 64})
    ->Args({16, 64})->Args({16, 512})->Args({64, 64})->Args({64, 512});

// The expiry path of an attractor pool in steady state: each iteration
// appends the newest point, drops the oldest, and scans the survivors once,
// as one GuessStructure update with one expiry does. Args: {dim, pool size}.
void BM_PoolExpiryChurn(benchmark::State& state) {
  const EuclideanMetric metric;
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto points = MakePoints(n + 1, dim);
  CoordinatePool pool(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) pool.Append(points[i + 1]);
  std::vector<double> out(n + 1);
  size_t next = 1;
  for (auto _ : state) {
    pool.Append(points[next]);
    pool.DropFront(1);
    metric.DistanceSoA(points[0], pool, out.data());
    benchmark::DoNotOptimize(out.data());
    next = next == static_cast<size_t>(n) ? 1 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolExpiryChurn)->Args({54, 2048});

// End-to-end variant through the virtual entry point, exactly as
// GuessStructure::Update calls it (dispatch + pool bookkeeping included).
void BM_AttractorScanSoAMetric(benchmark::State& state) {
  const EuclideanMetric concrete;
  const Metric& metric = concrete;
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto points = MakePoints(n + 1, dim);
  CoordinatePool pool(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) pool.Append(points[i + 1]);
  std::vector<double> out(n);
  for (auto _ : state) {
    metric.DistanceSoA(points[0], pool, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_AttractorScanSoAMetric)
    ->Args({16, 64})->Args({16, 512})->Args({64, 64})->Args({64, 512});

// The covtype simulator stream (d = 54) behind the dense-guess benches,
// generated once per process.
const datasets::Dataset& CovtypeStream() {
  static const datasets::Dataset* dataset = [] {
    auto made = datasets::MakeDataset("covtype", 30000);
    FKC_CHECK(made.ok()) << made.status().ToString();
    return new datasets::Dataset(std::move(made).value());
  }();
  return *dataset;
}

// covtype-ingest's densest guess: delta = 0.5 and gamma = 27, so the c-phase
// asks for the c-attractors within delta * gamma / 2 of each arrival.
constexpr double kDenseGamma = 27.0;
constexpr double kDenseDelta = 0.5;

// The c-phase scan of that guess: one arrival against 9,000 stored covtype
// points, of which only a handful lie within the bound. Arg 1 picks the
// exact DistanceSoA (0) or the bounded DistanceSoAWithin (1), which stops
// reading a lane block once every lane is provably out of range.
// Args: {pool size, bounded}.
void BM_BoundedCScan(benchmark::State& state) {
  const EuclideanMetric concrete;
  const Metric& metric = concrete;
  const std::vector<Point>& points = CovtypeStream().points;
  const size_t n = static_cast<size_t>(state.range(0));
  const bool bounded = state.range(1) != 0;
  constexpr size_t kQueries = 64;
  const CoordinatePool pool = CoordinatePool::FromPoints(
      std::vector<Point>(points.begin(), points.begin() + n));
  const double bound = kDenseDelta * kDenseGamma / 2.0;
  std::vector<double> out(n);
  size_t q = 0;
  int64_t in_range = 0;
  for (auto _ : state) {
    const Point& query = points[n + q];
    if (bounded) {
      metric.DistanceSoAWithin(query, pool, bound, out.data());
    } else {
      metric.DistanceSoA(query, pool, out.data());
    }
    benchmark::DoNotOptimize(out.data());
    in_range += std::count_if(out.begin(), out.end(),
                              [bound](double d) { return d <= bound; });
    q = (q + 1) % kQueries;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["in_range_per_scan"] =
      static_cast<double>(in_range) / static_cast<double>(state.iterations());
  state.SetLabel(std::string(simd::ActiveKernels().name) +
                 (bounded ? "/bounded" : "/exact"));
}
BENCHMARK(BM_BoundedCScan)->Args({9000, 0})->Args({9000, 1});

// One arrival into that guess with W = 10000, where nearly every window
// point is its own c-attractor: the bounded c-scan over ~9,000 attractors
// and, once the window is full, the expiry of the oldest entry (an O(1)
// pop) and a watermark reset that reads only the fronts and the orphans.
void BM_DenseGuessUpdate(benchmark::State& state) {
  constexpr int64_t kWindow = 10000;
  const datasets::Dataset& dataset = CovtypeStream();
  const int64_t stream = static_cast<int64_t>(dataset.points.size());
  const EuclideanMetric metric;
  const ColorConstraint constraint =
      ColorConstraint::Proportional(dataset.points, dataset.ell, 14);
  GuessStructure guess(kDenseGamma, kDenseDelta, kWindow, constraint,
                       CoreVariant::kFull);
  int64_t t = 0;
  const auto feed = [&] {
    Point p = dataset.points[t % stream];
    ++t;
    p.arrival = t;
    p.id = static_cast<uint64_t>(t);
    guess.Update(p, t, metric, nullptr);
  };
  while (t < kWindow + 1000) feed();  // full window, expiry in steady state
  for (auto _ : state) feed();
  state.SetItemsProcessed(state.iterations());
  state.counters["c_attractors"] =
      static_cast<double>(guess.c_attractor_count());
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_DenseGuessUpdate)->Unit(benchmark::kMicrosecond);

void BM_Gonzalez(benchmark::State& state) {
  const EuclideanMetric metric;
  const auto points = MakePoints(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GonzalezKCenter(metric, points, 14));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gonzalez)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_HopcroftKarp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  BipartiteGraph graph(n, n);
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < n; ++r) {
      if (rng.NextBernoulli(0.2)) graph.AddEdge(l, r);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaximumBipartiteMatching(graph));
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(16)->Arg(64)->Arg(256);

void BM_CapacitatedMatching(benchmark::State& state) {
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  std::vector<std::vector<int>> allowed(14);
  Rng rng(7);
  for (auto& row : allowed) {
    for (int c = 0; c < 7; ++c) {
      if (rng.NextBernoulli(0.5)) row.push_back(c);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaximumCapacitatedMatching(allowed, constraint));
  }
}
BENCHMARK(BM_CapacitatedMatching);

void BM_JonesSolver(benchmark::State& state) {
  const EuclideanMetric metric;
  const auto points = MakePoints(static_cast<int>(state.range(0)), 3, 7);
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  const JonesFairCenter solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(metric, points, constraint));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JonesSolver)->Range(256, 4096)->Complexity(benchmark::oN);

// The solver at the shape of a covtype query coreset (~9.9k points, d=54),
// where the per-head SoA scans dominate. Args: {n, dim}.
void BM_JonesSolverHighDim(benchmark::State& state) {
  const EuclideanMetric metric;
  const auto points = MakePoints(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(1)), 7);
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  const JonesFairCenter solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(metric, points, constraint));
  }
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_JonesSolverHighDim)
    ->Args({9914, 54})
    ->Unit(benchmark::kMillisecond);

// Fixed-work ledger of one Jones solve: the distance pairs it evaluates,
// which must be identical at every kernel width (compared at 0% tolerance
// between the FKC_SIMD=scalar and SIMD runs, like the ledgers below).
void BM_JonesSolveLedger(benchmark::State& state) {
  const auto points = MakePoints(4096, 3, 7);
  const EuclideanMetric inner;
  CountingMetric counting(&inner);
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  const JonesFairCenter solver;
  auto solution = solver.Solve(counting, points, constraint);
  const int64_t solve_calls = solution.ok() ? counting.count() : -1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&solution);
  }
  state.SetLabel(simd::ActiveKernels().name);
  state.counters["distance_calls_total_solve"] =
      static_cast<double>(solve_calls);
}
BENCHMARK(BM_JonesSolveLedger);

void BM_ChenSolver(benchmark::State& state) {
  const EuclideanMetric metric;
  const auto points = MakePoints(static_cast<int>(state.range(0)), 3, 7);
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  const ChenMatroidCenter solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(metric, points, constraint));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChenSolver)->Range(256, 1024)->Complexity(benchmark::oNSquared);

// The streaming update path at the two delta extremes (cost per arrival).
void BM_SlidingWindowUpdate(benchmark::State& state) {
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  const auto points = MakePoints(20000, 3, 7);

  SlidingWindowOptions options;
  options.window_size = 2000;
  options.delta = static_cast<double>(state.range(0)) / 10.0;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, constraint, &metric, &jones);
  size_t cursor = 0;
  // Warm up to steady state.
  for (int i = 0; i < 4000; ++i) {
    window.Update(points[cursor++ % points.size()]);
  }
  for (auto _ : state) {
    window.Update(points[cursor++ % points.size()]);
  }
}
BENCHMARK(BM_SlidingWindowUpdate)->Arg(5)->Arg(20)->Arg(40);

// The ladder update engine across its three variants: point-at-a-time
// sequential (the scalar baseline), batched single-threaded, and batched
// parallel with --threads workers. Fixed-range mode so the ladder is static
// and the parallel path can take whole batches. Time is per batch of 64.
//
// Besides wall time the engine benches report wall-time-stable counters —
// distance evaluations and expiry sweeps per arrival — which the CI perf job
// compares against the committed baseline (machine-independent, unlike ns).
constexpr int kEngineBatch = 64;
int g_parallel_threads = 0;  // set in main from --threads

const EuclideanMetric& EngineMetric() {
  static const EuclideanMetric metric;
  return metric;
}

FairCenterSlidingWindow MakeEngineWindow(int num_threads,
                                         const Metric* metric) {
  SlidingWindowOptions options;
  options.window_size = 2000;
  options.delta = 0.5;
  options.d_min = 0.5;
  options.d_max = 800.0;
  options.num_threads = num_threads;
  static const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  static const JonesFairCenter jones;
  return FairCenterSlidingWindow(options, constraint, metric, &jones);
}

void RunEngineBench(benchmark::State& state, int num_threads,
                    bool batched) {
  const auto points = MakePoints(20000, 3, 7);
  CountingMetric counting(&EngineMetric());
  auto window = MakeEngineWindow(num_threads, &counting);
  size_t cursor = 0;
  for (int i = 0; i < 4000; ++i) {  // warm to steady state
    window.Update(points[cursor++ % points.size()]);
  }
  counting.Reset();
  const int64_t warm_sweeps = window.ExpirySweeps();
  for (auto _ : state) {
    if (batched) {
      std::vector<Point> batch;
      batch.reserve(kEngineBatch);
      for (int i = 0; i < kEngineBatch; ++i) {
        batch.push_back(points[cursor++ % points.size()]);
      }
      window.UpdateBatch(std::move(batch));
    } else {
      for (int i = 0; i < kEngineBatch; ++i) {
        window.Update(points[cursor++ % points.size()]);
      }
    }
  }
  const int64_t arrivals = state.iterations() * kEngineBatch;
  state.SetItemsProcessed(arrivals);
  state.counters["distance_calls_per_arrival"] =
      static_cast<double>(counting.count()) / static_cast<double>(arrivals);
  // Batch-level expiry dedup at work: before the watermark this was exactly
  // one sweep per guess per arrival (= Memory().guesses); now only actual
  // expiry events sweep.
  state.counters["expiry_sweeps_per_arrival"] =
      static_cast<double>(window.ExpirySweeps() - warm_sweeps) /
      static_cast<double>(arrivals);
}

void BM_UpdateEngineSequential(benchmark::State& state) {
  RunEngineBench(state, /*num_threads=*/1, /*batched=*/false);
}

void BM_UpdateEngineBatched(benchmark::State& state) {
  RunEngineBench(state, /*num_threads=*/1, /*batched=*/true);
}

void BM_UpdateEngineParallel(benchmark::State& state) {
  RunEngineBench(state, static_cast<int>(state.range(0)), /*batched=*/true);
}

// The query pipeline, sequential ladder scan vs parallel GuessPasses
// fan-out. The deterministic selection diagnostics (guesses inspected,
// coreset size) are reported as counters: identical at any thread count by
// contract, and the CI perf job's most sensitive regression tripwire.
void RunQueryBench(benchmark::State& state, int num_threads) {
  const auto points = MakePoints(8000, 3, 7);
  CountingMetric counting(&EngineMetric());
  auto window = MakeEngineWindow(num_threads, &counting);
  for (const Point& p : points) window.Update(p);

  QueryStats stats;
  for (auto _ : state) {
    auto result = window.Query(&stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["guesses_inspected"] =
      static_cast<double>(stats.guesses_inspected);
  state.counters["coreset_size"] = static_cast<double>(stats.coreset_size);
}

// Fixed-work distance-call ledger: exactly 6000 arrivals then 10 query
// plans through a CountingMetric, reported as run totals. Unlike the
// steady-state per-arrival counters above — which depend on where the
// benchmark's timing window lands in the stream and so wobble between runs
// — these totals are bit-exact for a given build and must be IDENTICAL
// across kernel widths: the CI perf job compares them at 0% tolerance
// between an FKC_SIMD=scalar run and the dispatched SIMD run.
void BM_DistanceCallLedger(benchmark::State& state) {
  const auto points = MakePoints(6000, 3, 7);
  CountingMetric counting(&EngineMetric());
  auto window = MakeEngineWindow(/*num_threads=*/1, &counting);
  for (const Point& p : points) window.Update(p);
  const int64_t update_calls = counting.count();
  counting.Reset();
  int64_t plan_coreset = 0;
  for (int q = 0; q < 10; ++q) {
    auto plan = window.PlanQuery();
    plan_coreset += plan.ok() ? plan.value().stats.coreset_size : -1;
  }
  const int64_t query_calls = counting.count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&window);
  }
  state.SetLabel(simd::ActiveKernels().name);
  state.counters["distance_calls_total_update"] =
      static_cast<double>(update_calls);
  state.counters["distance_calls_total_query"] =
      static_cast<double>(query_calls);
  state.counters["expiry_sweeps_total"] =
      static_cast<double>(window.ExpirySweeps());
  state.counters["coreset_size_planned"] = static_cast<double>(plan_coreset);
}
BENCHMARK(BM_DistanceCallLedger);

// The same fixed-work ledger through the k-median objective: 6000 arrivals
// into the same window (so the update ledger must match
// BM_DistanceCallLedger bit-exactly), then 10 k-median Query rounds whose
// distance calls cover coreset selection PLUS the local-search swap
// evaluation. All counters are deterministic totals
// compared at 0% tolerance across kernel widths, like the fair-center
// ledger above.
void BM_KMedianLedger(benchmark::State& state) {
  const auto points = MakePoints(6000, 3, 7);
  CountingMetric counting(&EngineMetric());
  SlidingWindowOptions options;
  options.window_size = 2000;
  options.delta = 0.5;
  options.d_min = 0.5;
  options.d_max = 800.0;
  options.num_threads = 1;
  static const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  static const JonesFairCenter jones;
  FairCenterSlidingWindow window(options, constraint, &counting, &jones);
  for (const Point& p : points) window.Update(p);
  const int64_t update_calls = counting.count();
  counting.Reset();
  double cost_total = 0.0;
  int64_t coreset_total = 0;
  int64_t centers_total = 0;
  for (int q = 0; q < 10; ++q) {
    QueryStats stats;
    auto solution = window.Query(ObjectiveKind::kKMedian, &stats);
    cost_total += solution.ok() ? solution.value().value : -1.0;
    coreset_total += stats.coreset_size;
    centers_total +=
        solution.ok() ? static_cast<int64_t>(solution.value().centers.size())
                      : -1;
  }
  const int64_t query_calls = counting.count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&window);
  }
  state.SetLabel(simd::ActiveKernels().name);
  state.counters["distance_calls_total_update"] =
      static_cast<double>(update_calls);
  state.counters["distance_calls_total_query"] =
      static_cast<double>(query_calls);
  state.counters["kmedian_cost_total"] = cost_total;
  state.counters["kmedian_coreset_total"] =
      static_cast<double>(coreset_total);
  state.counters["kmedian_centers_total"] =
      static_cast<double>(centers_total);
}
BENCHMARK(BM_KMedianLedger);

void BM_QueryEngineSequential(benchmark::State& state) {
  RunQueryBench(state, /*num_threads=*/1);
}

void BM_QueryEngineParallel(benchmark::State& state) {
  RunQueryBench(state, static_cast<int>(state.range(0)));
}

void BM_SlidingWindowQuery(benchmark::State& state) {
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  const auto points = MakePoints(8000, 3, 7);

  SlidingWindowOptions options;
  options.window_size = 2000;
  options.delta = static_cast<double>(state.range(0)) / 10.0;
  options.adaptive_range = true;
  FairCenterSlidingWindow window(options, constraint, &metric, &jones);
  for (const Point& p : points) window.Update(p);
  for (auto _ : state) {
    auto result = window.Query();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SlidingWindowQuery)->Arg(5)->Arg(20)->Arg(40);

}  // namespace
}  // namespace fkc

int main(int argc, char** argv) {
  // Pre-scan for --threads (consumed here, not by google-benchmark).
  int threads = fkc::ThreadPool::HardwareThreads();
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = std::atoi(arg + 10);
      if (threads <= 0) threads = fkc::ThreadPool::HardwareThreads();
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  fkc::g_parallel_threads = threads;

  benchmark::RegisterBenchmark("BM_UpdateEngineSequential",
                               fkc::BM_UpdateEngineSequential);
  benchmark::RegisterBenchmark("BM_UpdateEngineBatched",
                               fkc::BM_UpdateEngineBatched);
  benchmark::RegisterBenchmark("BM_UpdateEngineParallel",
                               fkc::BM_UpdateEngineParallel)
      ->Arg(fkc::g_parallel_threads);
  benchmark::RegisterBenchmark("BM_QueryEngineSequential",
                               fkc::BM_QueryEngineSequential);
  benchmark::RegisterBenchmark("BM_QueryEngineParallel",
                               fkc::BM_QueryEngineParallel)
      ->Arg(fkc::g_parallel_threads);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
