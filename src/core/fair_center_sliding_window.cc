#include "core/fair_center_sliding_window.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/options_io.h"
#include "sequential/k_median.h"

namespace fkc {
namespace {

// Safety bound on how far Query() may extend the adaptive ladder upward in
// one call; 64 exponents cover any double-representable distance range.
constexpr int kMaxUpwardExtensions = 64;

// Adaptive mode keeps this many guess exponents above the largest witnessed
// scale, so Query rarely has to extend the ladder on demand.
constexpr int kAdaptiveSlackExponents = 1;

// Buffers the distances one guess structure evaluates during a parallel
// ladder step, for deterministic replay into the estimator after the join.
class RecordingObserver final : public DistanceObserver {
 public:
  void ObserveDistance(double distance) override {
    observed.push_back(distance);
  }
  std::vector<double> observed;
};

// The shared back half of both query modes: selects the coreset through
// PlanQuery, timed into `stats->plan_millis`, then runs `solve` on it, timed
// into `stats->solver_millis`. An empty window answers with an empty
// solution without running the solver.
template <typename Solution, typename Solve>
Result<Solution> SolveOnPlan(FairCenterSlidingWindow* window,
                             QueryStats* stats, Solve solve) {
  if (stats != nullptr) *stats = QueryStats{};
  Stopwatch plan_timer;
  auto plan = window->PlanQuery();
  const double plan_millis = plan_timer.ElapsedMillis();
  if (!plan.ok()) return plan.status();
  if (stats != nullptr) {
    *stats = plan.value().stats;
    stats->plan_millis = plan_millis;
  }
  if (plan.value().coreset.empty()) return Solution{};

  Stopwatch solver_timer;
  Result<Solution> solved = solve(plan.value().coreset);
  if (stats != nullptr) stats->solver_millis = solver_timer.ElapsedMillis();
  return solved;
}

}  // namespace

SlidingWindowOptions ValidationOnlyOptions(SlidingWindowOptions options) {
  options.variant = CoreVariant::kValidationOnly;
  options.delta = 4.0;
  return options;
}

const char* ObjectiveTag(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kFairCenter:
      return "fair-center";
    case ObjectiveKind::kKMedian:
      return "k-median";
  }
  return "unknown";  // unreachable for in-range enum values
}

Result<ObjectiveKind> ParseObjectiveTag(const std::string& tag) {
  if (tag == "fair-center") return ObjectiveKind::kFairCenter;
  if (tag == "k-median") return ObjectiveKind::kKMedian;
  return Status::InvalidArgument("unknown objective tag '" + tag + "'");
}

Status ValidateArrival(const Point& p, const ColorConstraint& constraint,
                       int64_t pinned_dim) {
  if (p.coords.empty()) {
    return Status::InvalidArgument("arrival carries no coordinates");
  }
  for (double x : p.coords) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("non-finite coordinate in arrival");
    }
  }
  if (pinned_dim >= 0 && static_cast<int64_t>(p.dimension()) != pinned_dim) {
    return Status::InvalidArgument(StrFormat(
        "%zu-dimensional arrival for a window pinned to %lld dimensions",
        p.dimension(), static_cast<long long>(pinned_dim)));
  }
  if (p.color < 0 || p.color >= constraint.ell()) {
    return Status::InvalidArgument(
        StrFormat("color %d outside the constraint's [0, %d) range", p.color,
                  constraint.ell()));
  }
  // In-range colors with a zero cap are representable in checkpoints but
  // can never host a center.
  if (constraint.cap(p.color) < 1) {
    return Status::InvalidArgument(
        StrFormat("color %d has a zero cap and cannot be served", p.color));
  }
  return Status::OK();
}

double DeltaForEpsilon(double epsilon, double beta, double alpha) {
  FKC_CHECK_GT(epsilon, 0.0);
  return epsilon / ((1.0 + beta) * (1.0 + 2.0 * alpha));
}

double EpsilonForDelta(double delta, double beta, double alpha) {
  FKC_CHECK_GT(delta, 0.0);
  return delta * (1.0 + beta) * (1.0 + 2.0 * alpha);
}

FairCenterSlidingWindow::FairCenterSlidingWindow(SlidingWindowOptions options,
                                                 ColorConstraint constraint,
                                                 const Metric* metric,
                                                 const FairCenterSolver* solver)
    : options_(std::move(options)),
      constraint_(std::move(constraint)),
      metric_(metric),
      solver_(solver),
      ladder_(options_.beta) {
  FKC_CHECK(metric_ != nullptr);
  FKC_CHECK(solver_ != nullptr);
  FKC_CHECK_GT(options_.window_size, 0);
  FKC_CHECK_GT(options_.delta, 0.0);
  // A finer ladder would walk its rungs for minutes (options_io.h).
  FKC_CHECK(std::isfinite(options_.beta));
  FKC_CHECK_GE(options_.beta, kMinBeta);
  FKC_CHECK_GT(constraint_.TotalK(), 0);

  if (options_.adaptive_range) {
    estimator_ = std::make_unique<WindowDistanceEstimator>(
        ladder_, options_.window_size);
  } else {
    FKC_CHECK_GT(options_.d_min, 0.0)
        << "fixed-range mode requires the stream's distance bounds";
    FKC_CHECK_GE(options_.d_max, options_.d_min);
    for (int exponent : ladder_.Range(options_.d_min, options_.d_max)) {
      guesses_.emplace(
          exponent,
          GuessStructure(ladder_.Value(exponent), options_.delta,
                         options_.window_size, constraint_,
                         options_.variant));
    }
  }
}

Result<FairCenterSlidingWindow> FairCenterSlidingWindow::Create(
    SlidingWindowOptions options, ColorConstraint constraint,
    const Metric* metric, const FairCenterSolver* solver) {
  if (metric == nullptr) return Status::InvalidArgument("null metric");
  if (solver == nullptr) return Status::InvalidArgument("null solver");
  if (constraint.TotalK() <= 0) {
    return Status::InvalidArgument("the color constraint has no positive cap");
  }
  FKC_RETURN_IF_ERROR(ValidateSlidingWindowOptions(options));
  return FairCenterSlidingWindow(std::move(options), std::move(constraint),
                                 metric, solver);
}

Status FairCenterSlidingWindow::Update(Coordinates coords, int color) {
  return Update(Point(std::move(coords), color));
}

Slot FairCenterSlidingWindow::StampArrival(Point* p) {
  ++now_;
  ++state_epoch_;
  p->arrival = now_;
  p->id = next_id_++;
  return arena_.Add(*p);
}

std::vector<Slot> FairCenterSlidingWindow::NumberReferencedRows() const {
  std::vector<Slot> rows(arena_.size(), PointArena::kNoSlot);
  ForEachReferencedSlot([&rows](Slot s) { rows[s] = 0; });
  Slot rank = 0;
  for (Slot& row : rows) {
    if (row != PointArena::kNoSlot) row = rank++;
  }
  return rows;
}

void FairCenterSlidingWindow::SweepArena() {
  arena_.Sweep([this](const auto& mark) { ForEachReferencedSlot(mark); },
               [this](const std::vector<Slot>& map) {
                 for (auto& [exponent, guess] : guesses_) {
                   guess.RemapSlots(map);
                 }
                 if (last_slot_ != PointArena::kNoSlot) {
                   last_slot_ = map[last_slot_];
                 }
               });
}

ThreadPool* FairCenterSlidingWindow::Pool() {
  if (options_.num_threads == 1) return nullptr;
  if (pool_threads_ < 0) {
    // Resolve the effective size before constructing: num_threads = 0 on a
    // single-core host resolves to 1, and building a ThreadPool just to
    // discover that would park an idle worker for the window's lifetime.
    pool_threads_ = ThreadPool::ResolveThreadCount(options_.num_threads);
  }
  if (pool_threads_ <= 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(pool_threads_);
  }
  return pool_.get();
}

void FairCenterSlidingWindow::UpdateGuesses(Slot p, const Point& probe) {
  // Only the topmost guess feeds the estimator: the range tracker consults
  // just its smallest and largest live buckets, and the top guess's
  // attractors span the window's coarsest scales while d(p, prev) witnesses
  // the finest. Observing every guess would triple the update cost for no
  // extra information.
  const int top_exponent = guesses_.empty() ? 0 : guesses_.rbegin()->first;

  ThreadPool* pool = Pool();
  if (pool == nullptr || guesses_.size() < 2) {
    for (auto& [exponent, guess] : guesses_) {
      DistanceObserver* observer =
          (options_.adaptive_range && exponent == top_exponent)
              ? estimator_.get()
              : nullptr;
      guess.Update(p, probe, now_, arena_, *metric_, observer);
    }
    return;
  }

  // Parallel fan-out: the guess structures are mutually independent, so each
  // updates on its own task. Distance observations are buffered per guess
  // and replayed into the estimator in ascending exponent order after the
  // join, making the estimator state independent of thread scheduling.
  std::vector<std::pair<int, GuessStructure*>> items;
  items.reserve(guesses_.size());
  for (auto& [exponent, guess] : guesses_) items.emplace_back(exponent, &guess);
  std::vector<RecordingObserver> recorders(items.size());
  pool->ParallelFor(
      static_cast<int64_t>(items.size()), [&](int64_t i) {
        DistanceObserver* observer =
            (options_.adaptive_range && items[i].first == top_exponent)
                ? &recorders[i]
                : nullptr;
        items[i].second->Update(p, probe, now_, arena_, *metric_, observer);
      });
  if (options_.adaptive_range) {
    for (size_t i = 0; i < items.size(); ++i) {  // ascending exponent order
      for (double d : recorders[i].observed) estimator_->ObserveDistance(d);
    }
  }
}

Status FairCenterSlidingWindow::Update(Point p) {
  FKC_RETURN_IF_ERROR(ValidateArrival(p, constraint_, dimension()));
  Consume(std::move(p));
  SweepArena();
  return Status::OK();
}

void FairCenterSlidingWindow::Consume(Point p) {
  const Slot slot = StampArrival(&p);

  if (options_.adaptive_range) {
    estimator_->BeginStep(now_);
    if (last_slot_ != PointArena::kNoSlot &&
        arena_.IsActive(last_slot_, now_, options_.window_size)) {
      arena_.CopyTo(last_slot_, &previous_);
      estimator_->ObserveDistance(metric_->Distance(p, previous_));
    }
    // Create structures for any newly witnessed scale before inserting p, so
    // that p itself lands in them.
    ReconcileAdaptiveRange();
  }

  UpdateGuesses(slot, p);

  if (options_.adaptive_range) {
    // Distances observed against stored attractors may have widened the
    // range; newly created guesses are seeded by replay (which includes p,
    // now stored in the neighbors).
    ReconcileAdaptiveRange();
  }

  last_slot_ = slot;
}

Status FairCenterSlidingWindow::UpdateBatch(std::vector<Point> batch) {
  // Drop the offenders, compacting the batch in place. In an empty window
  // the first accepted arrival pins the dimension for the rest.
  Status first_error;
  int64_t dim = dimension();
  size_t kept = 0;
  for (Point& p : batch) {
    Status status = ValidateArrival(p, constraint_, dim);
    if (!status.ok()) {
      if (first_error.ok()) first_error = std::move(status);
      continue;
    }
    dim = static_cast<int64_t>(p.dimension());
    if (&p != &batch[kept]) batch[kept] = std::move(p);
    ++kept;
  }
  batch.resize(kept);
  if (batch.empty()) return first_error;
  ThreadPool* pool = Pool();
  // Adaptive mode must step arrival by arrival (the guess set and estimator
  // evolve between arrivals); Consume itself fans the ladder out per step.
  // Sequential configurations take the same per-arrival path.
  if (options_.adaptive_range || pool == nullptr || guesses_.size() < 2) {
    for (Point& p : batch) Consume(std::move(p));
    SweepArena();
    return first_error;
  }

  // Fixed-range parallel path: the ladder is static and observer-free, so
  // each guess structure can consume the entire batch on its own task —
  // one fan-out per batch instead of one per arrival. Equivalent to the
  // sequential interleaving because guesses share no mutable state: the
  // whole batch is in the arena before the fan-out, which only reads it.
  std::vector<Slot> slots;
  slots.reserve(batch.size());
  for (Point& p : batch) slots.push_back(StampArrival(&p));
  std::vector<GuessStructure*> items;
  items.reserve(guesses_.size());
  for (auto& [exponent, guess] : guesses_) items.push_back(&guess);
  pool->ParallelFor(static_cast<int64_t>(items.size()), [&](int64_t i) {
    for (size_t j = 0; j < slots.size(); ++j) {
      items[i]->Update(slots[j], batch[j], batch[j].arrival, arena_, *metric_,
                       nullptr);
    }
  });
  last_slot_ = slots.back();
  SweepArena();
  return first_error;
}

void FairCenterSlidingWindow::ReconcileAdaptiveRange() {
  const auto range = estimator_->Range();
  if (!range.has_value()) return;
  // Slack only above: Query must find a guess with gamma >= diameter / 2, so
  // headroom over the largest witnessed scale avoids on-demand extension,
  // while guesses below the smallest witnessed distance are all invalid and
  // pure overhead. No guess is infinite: an infinite witness has none to
  // hold it, and PlanQuery refuses to answer while it is live.
  const int lo = range->first;
  const int hi = std::min(range->second + kAdaptiveSlackExponents,
                          ladder_.InfiniteExponent() - 1);
  // Nearly every arrival leaves the range as it was: the ladder already is
  // exactly [lo, hi] (distinct exponents, so the ends and the count prove
  // it), and the loops below would change nothing.
  if (!guesses_.empty() && guesses_.begin()->first == lo &&
      guesses_.rbegin()->first == hi &&
      static_cast<int64_t>(guesses_.size()) ==
          static_cast<int64_t>(hi) - lo + 1) {
    return;
  }

  // Retire guesses that left the range (the memory savings the paper
  // attributes to OursOblivious).
  for (auto it = guesses_.begin(); it != guesses_.end();) {
    if (it->first < lo || it->first > hi) {
      it = guesses_.erase(it);
    } else {
      ++it;
    }
  }
  for (int exponent = lo; exponent <= hi; ++exponent) {
    if (guesses_.find(exponent) == guesses_.end()) CreateGuess(exponent);
  }
}

void FairCenterSlidingWindow::CreateGuess(int exponent) {
  GuessStructure fresh(ladder_.Value(exponent), options_.delta,
                       options_.window_size, constraint_, options_.variant);
  if (!options_.warm_start_new_guesses) {
    guesses_.emplace(exponent, std::move(fresh));
    return;
  }
  // Warm-up: replay the stored points of the nearest existing guess so the
  // new scale does not start blind to the current window.
  const GuessStructure* donor = nullptr;
  int best_distance = std::numeric_limits<int>::max();
  for (const auto& [e, guess] : guesses_) {
    const int d = std::abs(e - exponent);
    if (d < best_distance) {
      best_distance = d;
      donor = &guess;
    }
  }
  if (donor != nullptr) donor->ReplayInto(&fresh, now_, arena_, *metric_);
  guesses_.emplace(exponent, std::move(fresh));
}

bool FairCenterSlidingWindow::GuessPasses(const GuessStructure& guess) const {
  if (!guess.IsValid()) return false;
  const int k = constraint_.TotalK();
  const double threshold = 2.0 * guess.gamma();
  const ColoredPool rv = guess.ValidationPool(arena_);
  if (rv.empty()) return true;

  // Greedy 2*gamma cover over RV through the SoA kernels: one vectorized
  // row per selected center over the gathered pool, min-accumulated into
  // per-point cover distances. A point joins the cover exactly when the
  // original scalar scan would have (min-over-centers compares the same
  // bit-identical distances), so the accepted guess — and every determinism
  // contract above it — is unchanged.
  std::vector<double> cover_dist(rv.size(),
                                 std::numeric_limits<double>::infinity());
  std::vector<double> row(rv.slot_count());
  int cover_size = 0;
  for (size_t i = 0; i < rv.size(); ++i) {
    if (cover_dist[i] <= threshold) continue;  // already covered
    if (++cover_size > k) return false;
    rv.DistanceRow(*metric_, rv.At(i), row.data());
    for (size_t j = 0; j < rv.size(); ++j) {
      cover_dist[j] = std::min(cover_dist[j], row[rv.slot(j)]);
    }
  }
  return true;
}

void FairCenterSlidingWindow::ExpireAllGuesses() {
  ThreadPool* pool = Pool();
  if (pool == nullptr || guesses_.size() < 2) {
    for (auto& [exponent, guess] : guesses_) guess.ExpireOnly(now_, arena_);
    return;
  }
  std::vector<GuessStructure*> items;
  items.reserve(guesses_.size());
  for (auto& [exponent, guess] : guesses_) items.push_back(&guess);
  pool->ParallelFor(static_cast<int64_t>(items.size()),
                    [&](int64_t i) { items[i]->ExpireOnly(now_, arena_); });
}

Result<QueryPlan> FairCenterSlidingWindow::PlanQuery() {
  QueryPlan plan;
  if (now_ == 0) return plan;  // empty window: empty coreset

  // Expire lazily in case no Update happened since construction of some
  // guesses (idempotent otherwise).
  ExpireAllGuesses();

  // A live infinite witness: two window points lie farther apart than any
  // double, so no guess can cover the window and no radius is finite.
  if (options_.adaptive_range) {
    const auto range = estimator_->Range();
    if (range.has_value() && range->second >= ladder_.InfiniteExponent()) {
      return Status::OutOfRange(
          "the window holds two points whose distance overflows to +inf");
    }
  }

  // Degenerate window: no structure exists only when no positive distance
  // was witnessed, i.e. all active points share one location — the most
  // recent point is an exact 1-point coreset.
  if (guesses_.empty()) {
    FKC_CHECK_NE(last_slot_, PointArena::kNoSlot);
    plan.coreset = ColoredPool::FromPoints({arena_.ToPoint(last_slot_)});
    plan.stats.coreset_size = 1;
    plan.stats.copied_points = 1;
    return plan;
  }

  ThreadPool* pool = Pool();
  int inspected = 0;
  for (int attempt = 0;; ++attempt) {
    // One validation round over the current ladder. The per-guess acceptance
    // tests are mutually independent and read-only, so they fan out over the
    // pool; the lowest passing guess is then selected by an ascending scan of
    // the results, which makes the choice — and `guesses_inspected`, counted
    // as-if sequential with early exit — identical at any thread count. The
    // parallel round speculatively validates guesses above the selected one;
    // that costs extra distance evaluations but no wall time on idle workers.
    std::vector<GuessStructure*> items;
    items.reserve(guesses_.size());
    for (auto& [exponent, guess] : guesses_) items.push_back(&guess);

    int chosen = -1;
    if (pool != nullptr && items.size() >= 2) {
      std::vector<unsigned char> passes(items.size(), 0);
      pool->ParallelFor(static_cast<int64_t>(items.size()), [&](int64_t i) {
        passes[i] = GuessPasses(*items[i]) ? 1 : 0;
      });
      for (size_t i = 0; i < items.size(); ++i) {
        if (passes[i] != 0) {
          chosen = static_cast<int>(i);
          break;
        }
      }
      inspected += chosen >= 0 ? chosen + 1 : static_cast<int>(items.size());
    } else {
      for (size_t i = 0; i < items.size(); ++i) {
        ++inspected;
        if (GuessPasses(*items[i])) {
          chosen = static_cast<int>(i);
          break;
        }
      }
    }

    if (chosen >= 0) {
      GuessStructure& guess = *items[chosen];
      plan.coreset = guess.CoresetPool(arena_, &plan.stats.copied_points);
      plan.stats.guess = guess.gamma();
      plan.stats.coreset_size = static_cast<int64_t>(plan.coreset.size());
      plan.stats.guesses_inspected = inspected;
      return plan;
    }
    // No guess passed. In adaptive mode the estimated range may lag an
    // abrupt diameter growth: extend the ladder upward and retry.
    if (!options_.adaptive_range || attempt >= kMaxUpwardExtensions) break;
    const int top = guesses_.rbegin()->first;
    if (top + 1 >= ladder_.InfiniteExponent()) break;
    CreateGuess(top + 1);
    // Only the new top guess needs scanning next round, but re-scanning the
    // (few) existing guesses keeps the loop simple.
  }
  return Status::FailedPrecondition(
      "no guess accepted the window; in fixed-range mode this means "
      "[d_min, d_max] does not cover the stream");
}

Result<FairCenterSolution> FairCenterSlidingWindow::Query(QueryStats* stats) {
  Result<FairCenterSolution> solved = SolveOnPlan<FairCenterSolution>(
      this, stats, [&](const ColoredPool& coreset) {
        return solver_->SolvePool(*metric_, coreset, constraint_);
      });
  if (stats != nullptr && solved.ok()) {
    stats->shadow_rows = solved.value().shadow_rows;
    stats->resolved_pairs = solved.value().resolved_pairs;
  }
  return solved;
}

Result<ObjectiveSolution> FairCenterSlidingWindow::Query(
    ObjectiveKind objective, QueryStats* stats) {
  if (objective == ObjectiveKind::kFairCenter) {
    auto solved = Query(stats);
    if (!solved.ok()) return solved.status();
    FairCenterSolution typed = std::move(solved).value();
    return ObjectiveSolution{std::move(typed.centers), typed.radius};
  }
  return SolveOnPlan<ObjectiveSolution>(
      this, stats,
      [&](const ColoredPool& coreset) -> Result<ObjectiveSolution> {
        KMedianSolution solved = KMedianLocalSearch(
            *metric_, coreset.ToPoints(), constraint_.TotalK());
        return ObjectiveSolution{std::move(solved.centers), solved.cost};
      });
}

MemoryStats FairCenterSlidingWindow::Memory() const {
  MemoryStats stats;
  for (const auto& [exponent, guess] : guesses_) stats += guess.Memory();
  return stats;
}

int64_t FairCenterSlidingWindow::ExpirySweeps() const {
  int64_t total = 0;
  for (const auto& [exponent, guess] : guesses_) total += guess.expiry_sweeps();
  return total;
}

int64_t FairCenterSlidingWindow::WindowPopulation() const {
  return std::min(now_, options_.window_size);
}

}  // namespace fkc
