// Per-guess state and update logic: Algorithms 1 (Update) and 2 (Cleanup) of
// the paper, for one guess gamma of the ladder.
//
// For each guess the algorithm maintains two families of active points:
//   validation points — AV (v-attractors, pairwise > 2*gamma, at most k+1
//     outside Cleanup) and RV (one recent representative per live attractor,
//     plus orphaned representatives of expired/evicted attractors);
//   coreset points — A (c-attractors, pairwise > delta*gamma/2, size bounded
//     only by the doubling-dimension analysis) and R (per-attractor maximal
//     independent representative sets, plus orphans).
//
// The Corollary-2 variant (kValidationOnly) drops the coreset family and
// upgrades each v-representative to a maximal independent set.
//
// Points are slots of the window's PointArena (core/point_arena.h), which
// holds each arrival once; every method that reads a point takes the arena
// as an argument, so a structure holds no pointer into its window and stays
// movable. Only the attractors' coordinates are copied, into the dim-major
// pools the distance kernels scan.
#ifndef FKC_CORE_GUESS_STRUCTURE_H_
#define FKC_CORE_GUESS_STRUCTURE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/attractor_set.h"
#include "core/memory_footprint.h"
#include "core/pivot_index.h"
#include "core/point_arena.h"
#include "metric/colored_pool.h"
#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/point.h"
#include "sequential/color_constraint.h"

namespace fkc {

/// Algorithm variant selector.
enum class CoreVariant {
  kFull,            ///< validation + coreset points (Theorem 1)
  kValidationOnly,  ///< Corollary 2: independent sets on validation points
};

/// Receives every distance the structure evaluates between the arriving
/// point and a stored active point. The adaptive-range tracker of
/// OursOblivious listens here.
class DistanceObserver {
 public:
  virtual ~DistanceObserver() = default;
  virtual void ObserveDistance(double distance) = 0;
};

/// State of one guess gamma.
class GuessStructure {
 public:
  /// The constraint is copied (it is a small cap vector), keeping the
  /// structure self-contained and safely movable. All caps of colors that
  /// occur in the stream must be >= 1 (the paper assumes positive k_i).
  GuessStructure(double gamma, double delta, int64_t window_size,
                 const ColorConstraint& constraint, CoreVariant variant);

  /// Algorithm 1 body for this guess, for the arrival in `arena` row `p`:
  /// expiry, v-assignment (with Cleanup on new v-attractors), c-assignment.
  /// `probe` is that row as a Point (its coordinates and color), read once
  /// per arrival by the caller and shared by every guess; the caller has
  /// also checked the arrival (a color with a positive cap, the arena's
  /// dimension). `observer` may be null.
  void Update(Slot p, const Point& probe, int64_t now, const PointArena& arena,
              const Metric& metric, DistanceObserver* observer);

  /// Removes expired points without inserting (used before queries that may
  /// happen after the structure stopped receiving updates). Cheap when
  /// nothing can expire: a stored watermark of the oldest arrival proves the
  /// sweep would be a no-op and skips it, so per-arrival calls inside a
  /// batch degenerate to one actual sweep per expiry event (batch-level
  /// expiry dedup) with bit-identical state.
  void ExpireOnly(int64_t now, const PointArena& arena);

  double gamma() const { return gamma_; }

  /// |AV| <= k, the validity test of Query (Algorithm 3).
  bool IsValid() const {
    return static_cast<int>(v_entries_.size()) <= constraint_.TotalK();
  }

  int64_t v_attractor_count() const {
    return static_cast<int64_t>(v_entries_.size());
  }
  int64_t c_attractor_count() const {
    return static_cast<int64_t>(c_entries_.size());
  }

  /// RV as one pool: each entry's representatives in entry order, then the
  /// orphans. A representative that is its entry's own attractor (the same
  /// id, so the same point) is that entry's v_pool() column. When such
  /// columns make up at least half of the pool, the pool borrows v_pool()
  /// and copies only the other points' coordinates; otherwise it copies
  /// every point's (ColoredPool::Builder::Build). A borrowing pool is valid
  /// until the next non-const call on this structure.
  ColoredPool ValidationPool(const PointArena& arena) const;

  /// R as one pool, in the same order and built the same way from the
  /// c-family and c_pool(): on a dense guess most of R is self-represented
  /// c-attractors, so the pool borrows c_pool() and copies only the
  /// replaced representatives and orphans. In the kValidationOnly variant
  /// this equals ValidationPool() (Query runs A on RV there). Both pools
  /// read arrivals and ids from `arena`'s columns when they materialize a
  /// point, so they are valid only while `arena` is unchanged too.
  ///
  /// While c_pool() keeps a float32 twin (a dense guess past
  /// CoordinatePool::kTwinMinBytes), the other points' coordinates are not
  /// copied per call: the structure keeps them across calls in its copy
  /// pool (copy_pool()), which the returned pool borrows as its tail. The
  /// copy pool holds one column per point, in ascending slot order, plus
  /// the columns of points that have since left the set. Each call syncs
  /// it in its one walk over the family: a point finds its column through
  /// a per-slot index in O(1), the points that joined since the last call
  /// (all above its highest slot) are appended, and a dead prefix is
  /// dropped. A point that leaves the set never comes back, so a dead
  /// column stays dead; once dead columns pass a quarter of the pool, or
  /// c_pool()'s twin has moved to another reference, it is rebuilt from
  /// the live points. So a call that follows m arrivals copies at most m
  /// points unless it rebuilds, and the copy pool never exceeds 4/3 of the
  /// live points it stands for. It is derived state like the pools: never serialized,
  /// remapped by RemapSlots and dropped by a restore. `copied`, when not
  /// null, receives the number of points whose coordinates this call
  /// copied. A pool that borrows the copy pool is valid until the next
  /// non-const call on this structure, the next CoresetPool included.
  ColoredPool CoresetPool(const PointArena& arena, int64_t* copied = nullptr);

  /// The copy pool CoresetPool lends, or nullptr while there is none.
  const CoordinatePool* copy_pool() const {
    return copy_ != nullptr ? &copy_->pool : nullptr;
  }
  /// Frees the copy pool: the next CoresetPool copies every other point
  /// anew, as a structure that was never queried does.
  void DropCopyPool() { copy_.reset(); }

  MemoryStats Memory() const;

  /// Replays every currently stored point (attractors and representatives,
  /// each distinct point once, in arrival order) into `sink` via its
  /// Update, reading each point's row into one probe. Used to warm up
  /// freshly instantiated guesses in the adaptive-range variant.
  void ReplayInto(GuessStructure* sink, int64_t now, const PointArena& arena,
                  const Metric& metric) const;

  /// Introspection for tests, invariant checks, and diagnostics.
  const AttractorList& v_entries() const { return v_entries_; }
  const AttractorList& c_entries() const { return c_entries_; }
  const std::vector<Slot>& v_orphans() const { return v_orphans_; }
  const std::vector<Slot>& c_orphans() const { return c_orphans_; }
  const CoordinatePool& v_pool() const { return v_pool_; }
  const CoordinatePool& c_pool() const { return c_pool_; }
  const PivotIndex& c_index() const { return c_index_; }

  /// Calls f(slot) on every stored reference: per family, each entry's
  /// attractor and representatives, then the orphans; v before c.
  template <typename F>
  void ForEachSlot(F&& f) const {
    v_entries_.ForEachSlot(f);
    for (Slot s : v_orphans_) f(s);
    c_entries_.ForEachSlot(f);
    for (Slot s : c_orphans_) f(s);
  }

  /// Rewrites every stored slot s as map[s] (after PointArena::Compact).
  void RemapSlots(const std::vector<Slot>& map);

  /// Overwrites the stored sets verbatim — checkpoint restore only
  /// (core/checkpoint.cc); the caller is responsible for state validity,
  /// including entries strictly ascending by attractor arrival and no
  /// representative arriving before its attractor.
  void RestoreState(AttractorList v_entries, std::vector<Slot> v_orphans,
                    AttractorList c_entries, std::vector<Slot> c_orphans,
                    const PointArena& arena);

  /// Number of expiry sweeps actually executed (skipped no-op calls are not
  /// counted). Diagnostic only — never serialized, no effect on state.
  int64_t expiry_sweeps() const { return expiry_sweeps_; }

 private:
  void Cleanup(const PointArena& arena);

  /// scratch_dists_ with room for n distances.
  double* Scratch(size_t n);

  /// Resets the expiry watermark to the exact minimum stored arrival
  /// (INT64_MAX when nothing is stored), reading only each family's front
  /// attractor and its orphans: see oldest_arrival_.
  void RecomputeOldestArrival(const PointArena& arena);

  /// Appends row `p`'s coordinates to `pool`, (re)dimensioning an empty
  /// pool first so the first attractor of a stream fixes its dimension.
  static void AppendAttractorCoords(CoordinatePool* pool,
                                    const PointArena& arena, Slot p);

  /// Rebuilds both pools from the entry lists (checkpoint restore — the
  /// only mutation path where incremental maintenance has nothing to work
  /// from), and drops the pivot index and the copy pool.
  void RebuildPools(const PointArena& arena);

  /// CoresetPool's walk while c_pool_ keeps a twin: syncs copy_ and lends
  /// it as the tail. Adds the points it copies to `*copied`.
  ColoredPool GatherCoreset(const PointArena& arena, int64_t* copied);

  /// Drops c_pool_'s first n positions, after the c-family popped its n
  /// oldest entries, and keeps c_index_ in step (or drops it, once the pool
  /// is below PivotIndex::kTeardownColumns).
  void DropCFront(size_t n);

  double gamma_;
  double delta_;
  int64_t window_size_;
  ColorConstraint constraint_;
  CoreVariant variant_;

  // Entry lists: entries ascend strictly by attractor arrival and
  // leave only oldest-first (expiry, Cleanup), so every removal pops a
  // prefix in O(1) per entry — an expiry costs what leaves, not what stays.
  // Validation family. In kFull each entry holds exactly one representative.
  AttractorList v_entries_;
  std::vector<Slot> v_orphans_;

  // Coreset family (kFull only).
  AttractorList c_entries_;
  std::vector<Slot> c_orphans_;

  // Dim-major mirrors of the attractor coordinates (pool position i ==
  // entries[i]), feeding the vectorized Metric::DistanceSoA scans (the
  // c-phase uses the bounded DistanceSoAWithin or the pivot index). Every
  // entry removal pops a prefix, and the pools follow it with an O(1)
  // DropFront of the popped count. Derived state — rebuilt on restore,
  // never serialized.
  CoordinatePool v_pool_;
  CoordinatePool c_pool_;

  // Pivot index over c_pool_ (core/pivot_index.h), in step with it by
  // position. Derived state like the pools, and lazy: the c-phase builds
  // it once the pool reaches PivotIndex::kBuildColumns columns under a
  // metric that states its rounding error (Metric::RoundingError), and
  // DropCFront drops it below a quarter of that; a restore drops it too.
  // While it is built, an arrival computes its kPivots pivot distances,
  // and only the candidates the index returns get an exact distance, in
  // verify_pool_; otherwise the c-phase scans the whole pool. Either way
  // the c-phase sees the exact distance of every c-attractor in range and
  // decides the same. The Distance pairs it computes, and so a
  // CountingMetric's count, depend on when the index was built and on
  // which pivots it picked; a restored window rebuilds it from the pool it
  // then holds, so it may count different pairs than the window it was
  // saved from, never decide differently. Matching counts would need the
  // pivots in the checkpoint.
  PivotIndex c_index_;
  CoordinatePool verify_pool_;
  std::vector<CoordinatePool::ColumnRef> verify_columns_;

  // CoresetPool's copy pool (see there): derived state, never serialized,
  // and allocated only by a guess whose c_pool_ keeps a twin.
  struct CopyPool {
    // The columns, twinned on c_pool_'s reference; position i holds the
    // point in slot slots[i] (kNoSlot once a sweep dropped its arena row).
    CoordinatePool pool;
    std::vector<Slot> slots;
    // Per arena slot, base + the position of its column, when it has one:
    // position c = column_of[s] - base is slot s's column exactly when
    // slots[c] == s, so a stale entry reads as no column.
    std::vector<uint32_t> column_of;
    uint32_t base = 0;  // wraps: only differences are read
    // The highest slot a column holds (in the arena's current numbering),
    // or -1: every point that joins the set arrives above it.
    int64_t high = -1;
    // One call's scratch: per column, whether a live point holds it; the
    // (position, column) of those points, and slot << 32 | position of the
    // points without one.
    std::vector<uint8_t> live;
    std::vector<std::pair<uint32_t, uint32_t>> hits;
    std::vector<uint64_t> misses;
  };
  std::unique_ptr<CopyPool> copy_;

  // Reusable scratch for the batched attractor scans (transient — never
  // serialized). It only grows, so a scan never zero-fills it. Kept
  // per-structure so ladder updates can run in parallel without sharing
  // buffers.
  std::vector<double> scratch_dists_;

  // Expiry watermark: a lower bound on the arrival of every stored point.
  // While it proves all stored points active, ExpireOnly is O(1). Removals
  // (Cleanup, representative replacement) may leave it stale-low, which only
  // costs a redundant sweep — never a missed one. INT64_MAX = empty. A sweep
  // resets it exactly in O(orphans): entries ascend by attractor arrival,
  // and a representative never arrives before its attractor (it is the
  // attractor itself or a later arrival attracted to it; DeserializeState
  // rejects blobs that break either order), so no entry holds a point older
  // than the front attractor.
  int64_t oldest_arrival_ = INT64_MAX;
  int64_t expiry_sweeps_ = 0;  // transient diagnostic
};

}  // namespace fkc

#endif  // FKC_CORE_GUESS_STRUCTURE_H_
