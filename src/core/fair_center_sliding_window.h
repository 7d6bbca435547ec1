// The paper's primary contribution: fair center clustering in sliding
// windows. At any time t, Query() returns an (alpha + epsilon)-approximate
// fair-center solution for the window of the n most recent stream points,
// using space and time independent of n (Theorems 1-3).
//
// Two operating modes, matching the paper's experiments:
//   * fixed range ("Ours"): the stream's minimum and maximum pairwise
//     distances are known up front and fix the guess ladder;
//   * adaptive range ("OursOblivious"): the ladder follows running estimates
//     of the current window's distance range, instantiating guess structures
//     lazily and retiring ones that fall out of range.
// The variant knob selects the full coreset algorithm (Theorem 1) or the
// dimension-oblivious validation-only algorithm (Corollary 2).
//
// The window summary does not depend on the clustering objective; only the
// query-time solver does (Braverman et al., "A Unified Approach for
// Clustering Problems on Sliding Windows"). Query(ObjectiveKind) runs either
// the fair-center solver or the k-median local search on the same coreset,
// so one window class, and one checkpoint format, serves both objectives.
#ifndef FKC_CORE_FAIR_CENTER_SLIDING_WINDOW_H_
#define FKC_CORE_FAIR_CENTER_SLIDING_WINDOW_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/distance_estimator.h"
#include "core/guess_ladder.h"
#include "core/guess_structure.h"
#include "core/memory_footprint.h"
#include "matroid/color_constraint.h"
#include "metric/metric.h"
#include "sequential/fair_center_solver.h"
#include "sequential/robust_fair_center.h"

namespace fkc {

/// Configuration of the sliding-window algorithm.
struct SlidingWindowOptions {
  /// Window size n: queries answer for the last n stream points.
  int64_t window_size = 10000;

  /// Guess ladder progression: consecutive guesses differ by (1 + beta).
  /// The paper's experiments fix beta = 2.
  double beta = 2.0;

  /// Coreset precision delta in (0, 4]: c-attractors keep pairwise distance
  /// > delta*gamma/2. Smaller delta = larger, more accurate coresets. The
  /// experiments sweep delta in {0.5, ..., 4}. For an epsilon-guarantee use
  /// DeltaForEpsilon().
  double delta = 0.5;

  /// Full coreset algorithm (Theorem 1) or validation-only (Corollary 2).
  CoreVariant variant = CoreVariant::kFull;

  /// false: fixed-range mode; d_min / d_max below are required ("Ours").
  /// true: adaptive mode; the range is estimated online ("OursOblivious").
  bool adaptive_range = false;

  /// Stream-wide distance bounds for fixed-range mode.
  double d_min = 0.0;
  double d_max = 0.0;

  /// Adaptive mode: extra guess exponents kept on both ends of the
  /// estimated range as a safety margin.
  int adaptive_slack_exponents = 1;

  /// Adaptive mode: seed freshly instantiated guess structures by replaying
  /// the stored points of the nearest existing guess, so a newly witnessed
  /// scale does not start blind to the current window. Disable only for
  /// ablation (bench/ablation_warmstart) — cold structures degrade quality
  /// for up to one window length after every range shift.
  bool warm_start_new_guesses = true;

  /// Worker threads for the parallel ladder engine: the per-guess structures
  /// are mutually independent, so Update/UpdateBatch fan them out across
  /// this many threads. 1 = fully sequential (no pool is created);
  /// 0 = hardware concurrency. Results are bit-identical at any value — an
  /// execution knob, not algorithm state, and deliberately excluded from
  /// SerializeState().
  int num_threads = 1;
};

/// The Corollary-2 preset: the dimension-oblivious validation-only
/// algorithm. It keeps, per v-attractor, a maximal independent set of
/// recently attracted points and no coreset family, so space and update time
/// shrink to O(k^2 log Delta / eps) with no exponential dependence on the
/// doubling dimension, at the price of a weaker (31 + O(eps)) guarantee.
/// Returns `options` with variant = kValidationOnly and delta pinned to 4,
/// the value at which the full algorithm's coreset degenerates to the
/// validation set (paper, Section 4).
SlidingWindowOptions ValidationOnlyOptions(SlidingWindowOptions options);

/// The clustering objectives a window can answer for.
enum class ObjectiveKind {
  kFairCenter = 0,  ///< the paper's fair k-center (minimize max distance)
  kKMedian = 1,     ///< sliding-window k-median (minimize sum of distances)
};

/// Stable wire tag of an objective ("fair-center" / "k-median"), used by the
/// fkc-shards-v3 fleet format and the --objective flags.
const char* ObjectiveTag(ObjectiveKind kind);

/// Inverse of ObjectiveTag. kInvalidArgument on an unknown tag — restore
/// paths must reject forged tags gracefully, never abort.
Result<ObjectiveKind> ParseObjectiveTag(const std::string& tag);

/// An objective-generic clustering answer: the chosen centers plus the
/// objective value — the covering radius for fair-center, the sum of
/// point-to-nearest-center distances for k-median. Lower is better for both.
struct ObjectiveSolution {
  std::vector<Point> centers;
  double value = 0.0;
};

/// Theorem 1 parameter rule: the delta achieving an (alpha+epsilon)
/// approximation is epsilon / ((1+beta)(1+2*alpha)).
double DeltaForEpsilon(double epsilon, double beta, double alpha);

/// Inverse of DeltaForEpsilon: the epsilon guaranteed by a given delta.
double EpsilonForDelta(double delta, double beta, double alpha);

/// Per-query diagnostics. Every field except `solver_millis` (a wall time)
/// is deterministic: identical state produces identical values at any thread
/// count, parallel or sequential query path alike.
struct QueryStats {
  double guess = 0.0;          ///< the selected gamma-hat
  int64_t coreset_size = 0;    ///< points handed to the sequential solver
  int guesses_inspected = 0;   ///< ladder entries examined by Query
  double solver_millis = 0.0;  ///< time spent inside the sequential solver
};

/// The resolved front half of a query (Algorithm 3's guess selection): the
/// coreset to hand to a sequential solver plus the selection diagnostics.
/// Query, QueryRobust, and any future query mode run their solver on one
/// shared plan, so every mode inherits the parallel ladder validation and
/// the deterministic guess choice for free.
struct QueryPlan {
  /// R (full variant) or RV (Corollary-2 variant) of the selected guess;
  /// empty for an empty window.
  std::vector<Point> coreset;
  /// guess / coreset_size / guesses_inspected are populated; solver_millis
  /// stays 0 (no solver has run yet).
  QueryStats stats;
};

/// Streaming clustering over a sliding window: the paper's fair-center
/// algorithm, whose coreset also answers k-median queries.
///
/// Typical use:
///   FairCenterSlidingWindow window(options, constraint, &metric, &solver);
///   for each stream point: window.Update(coords, color);
///   auto solution = window.Query();
class FairCenterSlidingWindow {
 public:
  /// `metric` and `solver` must outlive the window. Every color that occurs
  /// in the stream must have a cap >= 1 (the paper assumes positive k_i).
  FairCenterSlidingWindow(SlidingWindowOptions options,
                          ColorConstraint constraint, const Metric* metric,
                          const FairCenterSolver* solver);

  /// Feeds the next stream point; arrival time and id are assigned
  /// internally (one logical time step per call).
  void Update(Coordinates coords, int color);
  void Update(Point p);

  /// Feeds a batch of stream points, equivalent to calling Update on each in
  /// order (bit-identical final state), but amortizing the parallel fan-out:
  /// in fixed-range mode every guess structure consumes the whole batch on
  /// its own thread; in adaptive mode arrivals are processed one step at a
  /// time (the guess set may shift between arrivals) with the ladder fanned
  /// out per step.
  void UpdateBatch(std::vector<Point> batch);

  /// Computes a fair-center solution for the current window (Algorithm 3).
  /// Fails with kFailedPrecondition in fixed-range mode if the configured
  /// [d_min, d_max] does not cover the data.
  Result<FairCenterSolution> Query(QueryStats* stats = nullptr);

  /// Answers for `objective` on the same coreset: the fair-center solver
  /// (`value` is the radius, as Query above), or the deterministic k-median
  /// local search with k = constraint().TotalK().
  ///
  /// Honesty caveat for k-median, documented rather than hidden (same
  /// policy as QueryRobust): `value` is the k-median cost ON THE CORESET.
  /// Each coreset point stands for up to cap same-colored window points
  /// within delta*gamma of it, so the window cost differs by at most
  /// |W| * delta * gamma-hat; the centers are genuine window points. Color
  /// caps do not constrain the k-median centers — only their sum k is used.
  Result<ObjectiveSolution> Query(ObjectiveKind objective,
                                  QueryStats* stats = nullptr);

  /// The guess-selection front half of Algorithm 3, exposed so callers (and
  /// the serving layer) can split selection from solving: expires stale
  /// points, validates every ladder entry — fanned out over the thread pool
  /// when one is configured, since the per-guess acceptance tests are
  /// mutually independent — and deterministically selects the lowest passing
  /// guess. Returns an empty-coreset plan for an empty window and the latest
  /// point alone for an all-duplicates window. The result is bit-identical
  /// to the sequential scan at any thread count.
  Result<QueryPlan> PlanQuery();

  /// Extension (paper's future-work direction): outlier-tolerant query.
  /// Selects the coreset exactly as Query does, then runs the robust
  /// bicriteria solver on it with budget `num_outliers`.
  ///
  /// Heuristic caveat, documented rather than hidden: coreset points carry
  /// implicit multiplicity (each stands for up to k_i same-color window
  /// points within delta*gamma), so discarding one coreset point can
  /// correspond to discarding several window points. The returned center set
  /// is always cap-feasible; the outlier accounting is exact only on the
  /// coreset.
  Result<RobustFairCenterSolution> QueryRobust(int num_outliers,
                                               QueryStats* stats = nullptr);

  /// Checkpointing (stream-processor state save/restore): serializes the
  /// complete algorithm state — options, constraint, clocks, every guess
  /// structure, and the adaptive-range tracker — into a self-describing
  /// text format with exact (hex-float) coordinates. The metric and solver
  /// are code, not state, and are re-supplied on restore.
  std::string SerializeState() const;

  /// Reconstructs a window from SerializeState output. The restored window
  /// behaves identically to the original under any future Update/Query
  /// sequence. Returns kInvalidArgument on malformed or version-mismatched
  /// input.
  static Result<FairCenterSlidingWindow> DeserializeState(
      const std::string& bytes, const Metric* metric,
      const FairCenterSolver* solver);

  /// Stored-point counts (the paper's memory metric).
  MemoryStats Memory() const;

  /// Total expiry sweeps actually executed across the ladder since
  /// construction (diagnostic; see GuessStructure::expiry_sweeps). The
  /// batch-level dedup makes this grow far slower than arrivals * guesses.
  int64_t ExpirySweeps() const;

  /// Logical time = number of points consumed so far.
  int64_t now() const { return now_; }

  /// Monotone counter of state-changing arrivals in this process: bumped
  /// once per consumed point, never serialized (a restored window restarts
  /// at 0). Checkpointing layers compare it against the epoch they last
  /// serialized to decide whether this window is dirty — query-time
  /// housekeeping (expiry sweeps, adaptive-ladder reconciliation) does not
  /// bump it because it is behaviorally neutral: a blob taken before such
  /// housekeeping restores to a window that answers identically.
  int64_t state_epoch() const { return state_epoch_; }

  /// Number of points currently in the window: min(now, window_size).
  int64_t WindowPopulation() const;

  /// Coordinate dimension this window is pinned to — the dimension of its
  /// most recent arrival, or -1 before the first one. The SoA pools (and
  /// the checkpoint reader's uniformity check) require every stored point
  /// to share one dimension, so front-ends use this to reject mismatched
  /// arrivals before they reach CHECK-guarded code.
  int64_t dimension() const {
    return last_point_.has_value()
               ? static_cast<int64_t>(last_point_->dimension())
               : -1;
  }

  const SlidingWindowOptions& options() const { return options_; }
  const ColorConstraint& constraint() const { return constraint_; }

 private:
  /// Expires stale points in every guess structure, fanned out over the pool
  /// when one is configured (idempotent; the per-structure expiry watermark
  /// makes repeat sweeps O(1)).
  void ExpireAllGuesses();

  /// Creates missing guess structures for the adaptive range and retires the
  /// ones that left it. New structures are warmed by replaying the stored
  /// points of the nearest existing guess.
  void ReconcileAdaptiveRange();

  /// Instantiates a guess structure for `exponent`, seeded from the nearest
  /// existing structure (if any).
  void CreateGuess(int exponent);

  /// Algorithm 3's per-guess acceptance test: RV admits a greedy 2*gamma
  /// cover with at most k centers.
  bool GuessPasses(const GuessStructure& guess) const;

  /// Stamps arrival/id on `p` and advances the clock (the shared prologue of
  /// Update and UpdateBatch).
  void StampArrival(Point* p);

  /// Runs one arrival through every guess structure — sequentially, or
  /// fanned out over the pool with adaptive-mode distance observations
  /// recorded per guess and replayed into the estimator in ascending
  /// exponent order, so the estimator state is bit-identical to the
  /// sequential path at any thread count.
  void UpdateGuesses(const Point& p);

  /// The lazily created pool behind the parallel engine; nullptr while the
  /// configuration is sequential.
  ThreadPool* Pool();

  SlidingWindowOptions options_;
  ColorConstraint constraint_;
  const Metric* metric_;
  const FairCenterSolver* solver_;

  GuessLadder ladder_;
  /// Guess structures keyed by ladder exponent (ascending iteration order).
  std::map<int, GuessStructure> guesses_;

  /// Adaptive mode machinery.
  std::unique_ptr<WindowDistanceEstimator> estimator_;

  /// Parallel engine (created on first use when num_threads != 1).
  std::unique_ptr<ThreadPool> pool_;

  int64_t now_ = 0;
  uint64_t next_id_ = 1;
  int64_t state_epoch_ = 0;
  /// Effective pool size resolved on first Pool() call (-1 = not yet);
  /// resolving before construction avoids building a pool just to learn a
  /// single-core host needs none.
  int pool_threads_ = -1;
  /// Most recent arrival: bootstraps the estimator and serves as the
  /// fallback solution when the window holds a single distinct location.
  std::optional<Point> last_point_;
};

/// perfbench/ still names the window by the interface it once implemented;
/// this alias exists only so that code compiles unchanged.
using ObjectiveEngine = FairCenterSlidingWindow;

}  // namespace fkc

#endif  // FKC_CORE_FAIR_CENTER_SLIDING_WINDOW_H_
