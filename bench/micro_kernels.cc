// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// figure experiments: distance evaluation (scalar vs SoA kernels), Gonzalez,
// matching, the sequential solvers, and the streaming update/query paths
// (sequential vs batched vs parallel ladder).
//
//   micro_kernels [--threads=N] [google-benchmark flags]
//
// --threads (default: hardware concurrency) sets the thread count of the
// *_Parallel benchmarks.
//
// The binary replaces the global operator new (plain and over-aligned)
// with a counting one, so the update and hand-off benches can report heap
// allocations per operation (`allocs_per_*`). The count is per thread, and each bench reads it on its
// own thread around the calls it measures. Each figure covers a fixed run
// of operations outside the timed loop, so it depends on the stream only,
// not on how many iterations timing took.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fair_center_sliding_window.h"
#include "core/guess_structure.h"
#include "core/pivot_index.h"
#include "datasets/blobs.h"
#include "datasets/registry.h"
#include "matching/capacitated_matching.h"
#include "metric/aspect_ratio.h"
#include "metric/colored_pool.h"
#include "metric/coordinate_pool.h"
#include "metric/counting_metric.h"
#include "metric/metric.h"
#include "metric/simd_kernels.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"

namespace {

// operator new calls made by this thread so far.
thread_local int64_t t_allocations = 0;

}  // namespace

// Out of line, so the compiler does not pair an inlined free() with the
// new-expressions it sees and warn of a mismatch.
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
// The over-aligned forms (CoordinatePool's blocks) count too.
__attribute__((noinline)) void* operator new(std::size_t size,
                                             std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}

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

// The update hot loop's baseline: one arriving point scanned against a
// stored attractor set, distance by distance through the virtual Distance.
// Args: {dim, set size}.
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

// The same scan through the SoA coordinate pool, by kernel tier: the scalar
// reference kernels (dim-major layout alone) versus whatever SIMD set
// runtime dispatch picked (AVX-512 > AVX2 > scalar; cap with FKC_SIMD).
// The d=16/d=64 ladders are the headline speedup comparison against
// BM_AttractorScanScalar at identical args. Args: {dim, set size}.
void RunSoAScan(benchmark::State& state, const simd::KernelSet& kernels) {
  const int dim = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto points = MakePoints(n + 1, dim);
  CoordinatePool pool(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) pool.Append(points[i + 1]);
  std::vector<double> out(n);
  for (auto _ : state) {
    pool.ForEachSpan([&](const CoordinatePool::Span& span) {
      kernels.Of(simd::Norm::kEuclidean)
          .exact(points[0].coords.data(), span.data,
                 CoordinatePool::kRowStride, pool.dim(), span.count,
                 out.data() + span.first);
    });
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

// A guess structure driven without a window, as a window drives it: each
// arrival is added to the arena once, and the arena's Sweep runs after each
// update.
struct DrivenGuess {
  DrivenGuess(double gamma, double delta, int64_t window,
              const ColorConstraint& constraint)
      : guess(gamma, delta, window, constraint, CoreVariant::kFull) {}

  void Feed(const Point& p, const Metric& metric) {
    guess.Update(arena.Add(p), p, p.arrival, arena, metric, nullptr);
    arena.Sweep([this](const auto& mark) { guess.ForEachSlot(mark); },
                [this](const std::vector<Slot>& map) { guess.RemapSlots(map); });
  }

  PointArena arena;
  GuessStructure guess;
};

// One arrival into that guess with W = 10000, where nearly every window
// point is its own c-attractor: the bounded c-scan over ~9,000 attractors
// and, once the window is full, the expiry of the oldest entry (an O(1)
// pop) and a watermark reset that reads only the fronts and the orphans.
// `allocs_per_arrival` counts the heap allocations of the update itself.
void BM_DenseGuessUpdate(benchmark::State& state) {
  constexpr int64_t kWindow = 10000;
  const datasets::Dataset& dataset = CovtypeStream();
  const int64_t stream = static_cast<int64_t>(dataset.points.size());
  const EuclideanMetric metric;
  const ColorConstraint constraint =
      ColorConstraint::Proportional(dataset.points, dataset.ell, 14);
  DrivenGuess driven(kDenseGamma, kDenseDelta, kWindow, constraint);
  int64_t t = 0;
  int64_t allocations = 0;
  const auto feed = [&] {
    Point p = dataset.points[t % stream];
    ++t;
    p.arrival = t;
    p.id = static_cast<uint64_t>(t);
    const int64_t before = t_allocations;
    driven.Feed(p, metric);
    allocations += t_allocations - before;
  };
  while (t < kWindow + 1000) feed();  // full window, expiry in steady state
  constexpr int64_t kCounted = 5000;
  allocations = 0;
  for (int64_t i = 0; i < kCounted; ++i) feed();
  state.counters["allocs_per_arrival"] =
      static_cast<double>(allocations) / static_cast<double>(kCounted);
  for (auto _ : state) feed();
  state.SetItemsProcessed(state.iterations());
  state.counters["c_attractors"] =
      static_cast<double>(driven.guess.c_attractor_count());
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_DenseGuessUpdate)->Unit(benchmark::kMicrosecond);

// One phones window at the serving fleet's settings (adaptive range,
// W = 2000, delta = 1, sum k_i = 14), one Update per arrival in steady
// state. `allocs_per_arrival` counts the allocations inside Update; the
// arriving Point is built before the call and moved in.
void BM_FleetWindowUpdate(benchmark::State& state) {
  const EuclideanMetric metric;
  const JonesFairCenter jones;
  static const bench::PreparedDataset* const prepared =
      new bench::PreparedDataset(bench::Prepare("phones", 60000, metric));
  const std::vector<Point>& points = prepared->dataset.points;
  SlidingWindowOptions options;
  options.window_size = 2000;
  options.delta = 1.0;
  options.adaptive_range = true;
  FairCenterSlidingWindow window =
      bench::Checked(FairCenterSlidingWindow::Create(
          options, prepared->constraint, &metric, &jones));
  size_t cursor = 0;
  int64_t allocations = 0;
  const auto feed = [&] {
    Point p = points[cursor++ % points.size()];
    const int64_t before = t_allocations;
    FKC_CHECK_OK(window.Update(std::move(p)));
    allocations += t_allocations - before;
  };
  for (int i = 0; i < 3 * options.window_size; ++i) feed();
  constexpr int64_t kCounted = 4000;
  allocations = 0;
  for (int64_t i = 0; i < kCounted; ++i) feed();
  state.counters["allocs_per_arrival"] =
      static_cast<double>(allocations) / static_cast<double>(kCounted);
  for (auto _ : state) feed();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetWindowUpdate)->Unit(benchmark::kMicrosecond);

// That guess, filled with one covtype window (W = 10000): most of its ~9,900
// coreset representatives are their own c-attractor. Built once per process;
// mutable because CoresetPool keeps the guess's copy pool, which holds the
// same columns after every call while no arrival comes between them.
DrivenGuess& CovtypeDenseGuess() {
  constexpr int64_t kWindow = 10000;
  static DrivenGuess* const driven = [] {
    const datasets::Dataset& dataset = CovtypeStream();
    const EuclideanMetric metric;
    auto* filled = new DrivenGuess(
        kDenseGamma, kDenseDelta, kWindow,
        ColorConstraint::Proportional(dataset.points, dataset.ell, 14));
    for (int64_t t = 1; t <= kWindow + 1000; ++t) {
      Point p = dataset.points[static_cast<size_t>(t) % dataset.points.size()];
      p.arrival = t;
      p.id = static_cast<uint64_t>(t);
      filled->Feed(p, metric);
    }
    return filled;
  }();
  return *driven;
}

// The c-phase range query of that guess (every c-attractor within
// delta * gamma / 2 of an arrival) over the first n columns of its c-pool,
// for 64 covtype arrivals that are not in it. Arg 1 picks the bounded scan
// of every column (0), as BM_BoundedCScan times it, or the pivot index (1,
// core/pivot_index.h): the arrival's 8 pivot distances, the bucket rows the
// bound keeps, and a bounded exact check of each candidate, read from the
// arena in blocks as GuessStructure::Update does. The index pays off from
// a few hundred columns on (PivotIndex::kBuildColumns).
// `candidates_per_arrival` counts the columns that get an exact check and
// `exact_pairs_per_arrival` the pairs a CountingMetric sees per arrival
// (the pivot row and the candidates); both depend on the data only.
// Args: {columns, indexed}.
void BM_CPhaseIndex(benchmark::State& state) {
  const DrivenGuess& driven = CovtypeDenseGuess();
  const CoordinatePool& c_pool = driven.guess.c_pool();
  const AttractorList& entries = driven.guess.c_entries();
  const size_t n =
      std::min(static_cast<size_t>(state.range(0)), c_pool.size());
  const bool indexed = state.range(1) != 0;
  std::vector<CoordinatePool::ColumnRef> columns(n);
  for (size_t i = 0; i < n; ++i) columns[i] = c_pool.Column(i);
  const CoordinatePool pool =
      CoordinatePool::FromColumns(c_pool.dim(), columns);
  const std::vector<Point>& points = CovtypeStream().points;
  constexpr size_t kQueries = 64;
  constexpr size_t kFirstQuery = 20000;  // past the guess's window
  const double range = kDenseDelta * kDenseGamma / 2.0;
  std::vector<double> out(n);
  CoordinatePool verify(c_pool.dim());
  // In-range columns of one arrival, and the candidates it checked.
  const auto query = [&](const Metric& metric, PivotIndex* index,
                         const Point& p, size_t* checked) {
    if (index == nullptr) {
      metric.DistanceSoAWithin(p, pool, range, out.data());
      *checked = n;
      return std::count_if(out.begin(), out.end(),
                           [range](double d) { return d <= range; });
    }
    FKC_CHECK(index->Probe(p));
    const std::vector<size_t>& candidates = index->Candidates();
    std::ptrdiff_t in_range = 0;
    for (size_t first = 0; first < candidates.size();
         first += CoordinatePool::kBlockLanes) {
      const size_t count =
          std::min(CoordinatePool::kBlockLanes, candidates.size() - first);
      columns.clear();
      for (size_t k = first; k < first + count; ++k) {
        columns.push_back(
            {driven.arena.coords(entries.attractor(candidates[k])), 1});
      }
      verify.Assign(columns);
      metric.DistanceSoAWithin(p, verify, range, out.data());
      in_range += std::count_if(out.begin(), out.begin() + count,
                                [range](double d) { return d <= range; });
    }
    *checked = candidates.size();
    return in_range;
  };

  const EuclideanMetric metric;
  CountingMetric counting(&metric);
  PivotIndex counted_index;
  FKC_CHECK(counted_index.Build(counting, pool, range));
  counting.Reset();
  int64_t checked_total = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    size_t scan_checked = 0;
    size_t checked = 0;
    const Point& p = points[kFirstQuery + q];
    const auto scanned = query(metric, nullptr, p, &scan_checked);
    FKC_CHECK_EQ(query(counting, indexed ? &counted_index : nullptr, p,
                       &checked),
                 scanned);
    checked_total += static_cast<int64_t>(checked);
  }
  state.counters["candidates_per_arrival"] =
      static_cast<double>(checked_total) / kQueries;
  state.counters["exact_pairs_per_arrival"] =
      static_cast<double>(counting.count()) / kQueries;

  PivotIndex index;
  FKC_CHECK(index.Build(metric, pool, range));
  size_t q = 0;
  for (auto _ : state) {
    size_t checked = 0;
    benchmark::DoNotOptimize(query(metric, indexed ? &index : nullptr,
                                   points[kFirstQuery + q], &checked));
    q = (q + 1) % kQueries;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(simd::ActiveKernels().name) +
                 (indexed ? "/index" : "/bounded"));
}
BENCHMARK(BM_CPhaseIndex)
    ->Args({256, 0})->Args({256, 1})
    ->Args({1024, 0})->Args({1024, 1})
    ->Args({9000, 0})->Args({9000, 1});

// A query's coreset hand-off from that guess. Arg 0 is the copy-out a query
// used to pay: every representative and orphan copied out as a heap Point,
// a pool built from the copies, and the copies freed. Args 1 and 2 are the
// pool the solver reads now (GuessStructure::CoresetPool): it borrows the
// dense c-pool for the self-represented attractors and the guess's copy
// pool for the other points. Arg 1 drops the copy pool first, so every
// hand-off copies all the other points (`copied_points`) out of the arena,
// as the first query of a guess does. Arg 2 keeps it, as queries with no
// arrival between them do: the walk finds every other point's copy and
// copies none.
void BM_CoresetHandoff(benchmark::State& state) {
  DrivenGuess& driven = CovtypeDenseGuess();
  GuessStructure* const guess = &driven.guess;
  const PointArena& arena = driven.arena;
  const int64_t mode = state.range(0);
  size_t points = 0;
  int64_t copied = 0;
  const auto hand_off = [&] {
    if (mode != 0) {
      if (mode == 1) guess->DropCopyPool();
      const ColoredPool pool = guess->CoresetPool(arena, &copied);
      points = pool.size();
      benchmark::DoNotOptimize(&pool);
    } else {
      std::vector<Point> copies;
      const AttractorList& entries = guess->c_entries();
      for (size_t e = 0; e < entries.size(); ++e) {
        entries.ForEachRep(
            e, [&](Slot s) { copies.push_back(arena.ToPoint(s)); });
      }
      for (Slot s : guess->c_orphans()) copies.push_back(arena.ToPoint(s));
      const CoordinatePool pool = CoordinatePool::FromPoints(copies);
      points = copies.size();
      copied = static_cast<int64_t>(points);
      benchmark::DoNotOptimize(&pool);
    }
  };
  hand_off();  // fills the copy pool Arg 2 keeps
  const int64_t allocations_before = t_allocations;
  hand_off();
  const int64_t allocations = t_allocations - allocations_before;
  for (auto _ : state) hand_off();
  int64_t own = 0;
  const AttractorList& entries = guess->c_entries();
  for (size_t e = 0; e < entries.size(); ++e) {
    entries.ForEachRep(
        e, [&](Slot s) { own += s == entries.attractor(e) ? 1 : 0; });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(points));
  state.counters["coreset_points"] = static_cast<double>(points);
  state.counters["copied_points"] = static_cast<double>(copied);
  state.counters["own_attractor_share"] =
      static_cast<double>(own) / static_cast<double>(points);
  state.counters["allocs_per_query"] = static_cast<double>(allocations);
  const char* const labels[] = {"copy-out+FromPoints+free",
                                "borrow c-pool+copy others (cold)",
                                "borrow c-pool+kept copies (warm)"};
  state.SetLabel(labels[mode]);
}
BENCHMARK(BM_CoresetHandoff)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The shadow counters of one Jones solve on a covtype coreset pool: the
// rows its traversal read from the pools' float32 twins
// (metric/shadow_pool.h)
// and the exact distances that resolved their decisions. A CountingMetric
// is a decorator, which reads exact rows only, so these come from the
// solve itself. Both depend only on the data (every width computes the
// same shadow rows), so CI compares them scalar vs SIMD at 0%.
void SetShadowCounters(const FairCenterSolution& solution,
                       benchmark::State* state) {
  state->counters["shadow_rows_per_solve"] =
      static_cast<double>(solution.shadow_rows);
  state->counters["resolved_pairs_per_solve"] =
      static_cast<double>(solution.resolved_pairs);
}

// A covtype query's Jones solve (SolvePool) on that guess's coreset pool.
// `rows_per_solve` counts the solve's passes over the pool: the distance
// pairs a CountingMetric sees over the pool's slot count, i.e. one per
// Gonzalez head the traversal computes before its stop rule fires, plus one
// per center that is not a head. It depends only on the data, so CI
// compares it scalar vs SIMD at 0%. The uncounted solve reads the
// float32 twins of the coreset's pools for every head, head 0 included
// (SetShadowCounters).
void BM_CoresetSolve(benchmark::State& state) {
  const EuclideanMetric metric;
  const datasets::Dataset& dataset = CovtypeStream();
  const ColoredPool pool =
      CovtypeDenseGuess().guess.CoresetPool(CovtypeDenseGuess().arena);
  const ColorConstraint constraint =
      ColorConstraint::Proportional(dataset.points, dataset.ell, 14);
  const JonesFairCenter jones;
  CountingMetric counting(&metric);
  auto counted = jones.SolvePool(counting, pool, constraint);
  FKC_CHECK(counted.ok()) << counted.status().ToString();
  const auto shadowed = jones.SolvePool(metric, pool, constraint);
  FKC_CHECK(shadowed.ok()) << shadowed.status().ToString();
  for (auto _ : state) {
    benchmark::DoNotOptimize(jones.SolvePool(metric, pool, constraint));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["coreset_points"] = static_cast<double>(pool.size());
  state.counters["rows_per_solve"] =
      static_cast<double>(counting.count()) /
      static_cast<double>(pool.slot_count());
  SetShadowCounters(shadowed.value(), &state);
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_CoresetSolve)->Unit(benchmark::kMillisecond);

// One head pass (simd::KernelSet::head_pass) over a covtype coreset row:
// the bookkeeping Gonzalez does per head on top of the row's DistanceRow,
// which is the fold into the nearest-head distances, the farthest point,
// and the per-color nearest table Jones reads. The row is head 1's of the
// solve, folded into head 0's distances; the fold is idempotent, so every
// iteration sees the same input, and each resets the color table.
// `table_lanes_per_pass` counts the slots that pass the color filter in a
// pass in slot order (a vector pass tests a few more against entries its
// own lanes then improve); it depends only on the data.
void BM_HeadPass(benchmark::State& state) {
  const EuclideanMetric metric;
  const datasets::Dataset& dataset = CovtypeStream();
  const ColoredPool pool =
      CovtypeDenseGuess().guess.CoresetPool(CovtypeDenseGuess().arena);
  const int ell = dataset.ell;
  const size_t stride = pool.slot_count();
  std::vector<double> rows(2 * stride);
  // Through a decorator, so both rows are exact (not the float32 shadow's).
  const CountingMetric exact(&metric);
  const GonzalezResult heads =
      GonzalezKCenter(exact, pool, 2, 0, nullptr, rows.data());
  FKC_CHECK_EQ(heads.head_indices.size(), 2u);
  std::vector<double> nearest(stride, -std::numeric_limits<double>::infinity());
  std::vector<int> position(stride, -1);
  std::vector<int> color(stride, ell);
  for (size_t i = 0; i < pool.size(); ++i) {
    nearest[pool.slot(i)] = rows[pool.slot(i)];
    position[pool.slot(i)] = static_cast<int>(i);
    color[pool.slot(i)] = pool.color(i);
  }
  std::vector<double> color_distance(ell + 1);
  std::vector<int> color_index(ell + 1);
  const auto reset_table = [&] {
    std::fill(color_distance.begin(), color_distance.end(),
              std::numeric_limits<double>::infinity());
    color_distance[ell] = -std::numeric_limits<double>::infinity();
    std::fill(color_index.begin(), color_index.end(), -1);
  };
  const simd::HeadPassKernel head_pass = simd::ActiveKernels().head_pass;
  const double* row = rows.data() + stride;
  // The lanes at or below their color's entry as the pass reaches them in
  // slot order, each followed by the exact update.
  int64_t table_lanes = 0;
  reset_table();
  for (size_t s = 0; s < stride; ++s) {
    if (row[s] <= color_distance[color[s]]) {
      ++table_lanes;
      simd::internal::KeepNearestColor(row, position.data(), color.data(), s,
                                       color_distance.data(),
                                       color_index.data());
    }
  }
  for (auto _ : state) {
    reset_table();
    benchmark::DoNotOptimize(head_pass(row, position.data(), color.data(),
                                       stride, nearest.data(),
                                       color_distance.data(),
                                       color_index.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(stride));
  state.counters["slots"] = static_cast<double>(stride);
  state.counters["table_lanes_per_pass"] = static_cast<double>(table_lanes);
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_HeadPass)->Unit(benchmark::kMicrosecond);

// What a covtype query's `query_ms_p50` times past PlanQuery's validity
// checks: the coreset hand-off from that guess (CoresetPool) and the Jones
// solve on it. The guess keeps its copy pool from one iteration to the
// next, so the hand-off is BM_CoresetHandoff/2's, which a query that
// follows a few arrivals pays plus one column per point that joined.
// `rows_per_solve` is BM_CoresetSolve's exact pass count, and the shadow
// counters are its too.
void BM_CoresetQuery(benchmark::State& state) {
  const EuclideanMetric metric;
  const datasets::Dataset& dataset = CovtypeStream();
  DrivenGuess& driven = CovtypeDenseGuess();
  const ColorConstraint constraint =
      ColorConstraint::Proportional(dataset.points, dataset.ell, 14);
  const JonesFairCenter jones;
  CountingMetric counting(&metric);
  const ColoredPool counted_pool = driven.guess.CoresetPool(driven.arena);
  FKC_CHECK(jones.SolvePool(counting, counted_pool, constraint).ok());
  const auto shadowed = jones.SolvePool(metric, counted_pool, constraint);
  FKC_CHECK(shadowed.ok()) << shadowed.status().ToString();
  for (auto _ : state) {
    const ColoredPool pool = driven.guess.CoresetPool(driven.arena);
    benchmark::DoNotOptimize(jones.SolvePool(metric, pool, constraint));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["coreset_points"] =
      static_cast<double>(counted_pool.size());
  state.counters["rows_per_solve"] =
      static_cast<double>(counting.count()) /
      static_cast<double>(counted_pool.slot_count());
  SetShadowCounters(shadowed.value(), &state);
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_CoresetQuery)->Unit(benchmark::kMillisecond);

// The radius of Jones's centers over that guess's coreset pool through
// PoolClusteringRadius: one DistanceSoATile pass over the ~9,900-point,
// d = 54 pool per tile of centers. A Jones solve no longer ends with this
// pass (it reuses the distance rows of centers that are Gonzalez heads and
// tiles only the others); the bench times the tile kernel at the coreset's
// shape.
void BM_CoresetRadius(benchmark::State& state) {
  const EuclideanMetric metric;
  const datasets::Dataset& dataset = CovtypeStream();
  const ColoredPool pool =
      CovtypeDenseGuess().guess.CoresetPool(CovtypeDenseGuess().arena);
  auto solution = JonesFairCenter().SolvePool(
      metric, pool,
      ColorConstraint::Proportional(dataset.points, dataset.ell, 14));
  FKC_CHECK(solution.ok()) << solution.status().ToString();
  const std::vector<Point>& centers = solution.value().centers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoolClusteringRadius(metric, pool, centers));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(centers.size() * pool.size()));
  state.counters["coreset_points"] = static_cast<double>(pool.size());
  state.counters["centers"] = static_cast<double>(centers.size());
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_CoresetRadius)->Unit(benchmark::kMillisecond);

// One tile scan of `rows` queries over a 10,000-point pool: per pair, a
// tile of 4 or 8 rows reads the pool's blocks once where rows = 1 reads
// them once per query. Args: {dim, rows}.
void BM_DistanceSoATile(benchmark::State& state) {
  const EuclideanMetric concrete;
  const Metric& metric = concrete;
  const int dim = static_cast<int>(state.range(0));
  const size_t rows = static_cast<size_t>(state.range(1));
  const CoordinatePool pool =
      CoordinatePool::FromPoints(MakePoints(10000, dim));
  const auto queries = MakePoints(static_cast<int>(rows), dim);
  std::vector<double> out(rows * pool.size());
  for (auto _ : state) {
    metric.DistanceSoATile(queries.data(), rows, pool, pool.size(),
                           out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows * pool.size()));
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_DistanceSoATile)
    ->ArgsProduct({{3, 54}, {1, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

// The distance-extrema scan behind every fixed-range set-up, on the
// ~2,000-point sample Prepare takes from 30,000 covtype (d = 54) or phones
// (d = 3) points. Arg 1 is ComputeDistanceExtrema, one triangular walk of
// tile calls; arg 0 is a copy of the pair loop it replaced, one Distance
// call per pair. Set-up checks that both give the same extrema, bit for
// bit. Args: {dim, tiled}.
DistanceExtrema PairLoopExtrema(const Metric& metric,
                                const std::vector<Point>& points) {
  DistanceExtrema out;
  out.min_distance = std::numeric_limits<double>::infinity();
  out.max_distance = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      const double d = metric.Distance(points[i], points[j]);
      if (d == 0.0) {
        ++out.zero_pairs;
        continue;
      }
      if (d < out.min_distance) out.min_distance = d;
      if (d > out.max_distance) out.max_distance = d;
    }
  }
  return out;
}

void BM_DistanceExtrema(benchmark::State& state) {
  const EuclideanMetric concrete;
  const Metric& metric = concrete;
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool tiled = state.range(1) == 1;
  auto made = datasets::MakeDataset(dim == 54 ? "covtype" : "phones", 30000,
                                    42);
  FKC_CHECK(made.ok()) << made.status().ToString();
  const std::vector<Point> sample = bench::BoundsSample(made.value().points);
  FKC_CHECK_EQ(sample[0].dimension(), dim);
  const DistanceExtrema want = PairLoopExtrema(metric, sample);
  const DistanceExtrema got = ComputeDistanceExtrema(metric, sample).value();
  FKC_CHECK(std::memcmp(&got.min_distance, &want.min_distance,
                        sizeof(double)) == 0 &&
            std::memcmp(&got.max_distance, &want.max_distance,
                        sizeof(double)) == 0 &&
            got.zero_pairs == want.zero_pairs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tiled ? ComputeDistanceExtrema(metric, sample).value()
              : PairLoopExtrema(metric, sample));
  }
  const int64_t n = static_cast<int64_t>(sample.size());
  state.SetItemsProcessed(state.iterations() * n * (n - 1) / 2);
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_DistanceExtrema)
    ->ArgsProduct({{54, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_Gonzalez(benchmark::State& state) {
  const EuclideanMetric metric;
  const auto points = MakePoints(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GonzalezKCenter(metric, points, 14));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gonzalez)->Range(256, 4096)->Complexity(benchmark::oN);

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

// The Jones solve at a fleet query's shape: a pool of a few hundred d = 3
// points with caps 7 x 2, where the fixed costs of the solve (the radius
// tests and the final matching) weigh as much as its passes. Arg: points.
void BM_JonesSmallPool(benchmark::State& state) {
  const EuclideanMetric metric;
  const ColoredPool pool = ColoredPool::FromPoints(
      MakePoints(static_cast<int>(state.range(0)), 3, 7));
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 2);
  const JonesFairCenter solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.SolvePool(metric, pool, constraint));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(simd::ActiveKernels().name);
}
BENCHMARK(BM_JonesSmallPool)->Arg(220)->Unit(benchmark::kMicrosecond);

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
  FairCenterSlidingWindow window =
      bench::Checked(FairCenterSlidingWindow::Create(
          options, constraint, &metric, &jones));
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
  return bench::Checked(
      FairCenterSlidingWindow::Create(options, constraint, metric, &jones));
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
  FairCenterSlidingWindow window =
      bench::Checked(FairCenterSlidingWindow::Create(
          options, constraint, &counting, &jones));
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
  FairCenterSlidingWindow window =
      bench::Checked(FairCenterSlidingWindow::Create(
          options, constraint, &metric, &jones));
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
