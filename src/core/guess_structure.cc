#include "core/guess_structure.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace fkc {
namespace {

/// Appends `p` as a new attractor that is its own representative: one copy
/// for each role.
void PushAttractor(AttractorList* entries, const Point& p) {
  AttractorEntry& entry = entries->emplace_back();
  entry.attractor = p;
  entry.representatives.push_back(p);
}

/// One family's representatives, entry by entry, then its orphans, as a
/// pool. Position e of `attractors` is entries[e]'s attractor, so a
/// representative that is its entry's own attractor is column e there.
ColoredPool GatherFamily(const AttractorList& entries,
                         const std::vector<Point>& orphans,
                         const CoordinatePool& attractors) {
  ColoredPool::Builder builder(
      static_cast<size_t>(CountRepresentatives(entries)) + orphans.size(),
      &attractors);
  for (size_t e = 0; e < entries.size(); ++e) {
    const AttractorEntry& entry = entries[e];
    for (const Point& rep : entry.representatives) {
      if (rep.id == entry.attractor.id) {
        builder.AddColumn(rep, e);
      } else {
        builder.Add(rep);
      }
    }
  }
  for (const Point& p : orphans) builder.Add(p);
  return std::move(builder).Build();
}

}  // namespace

GuessStructure::GuessStructure(double gamma, double delta, int64_t window_size,
                               const ColorConstraint& constraint,
                               CoreVariant variant)
    : gamma_(gamma),
      delta_(delta),
      window_size_(window_size),
      constraint_(constraint),
      variant_(variant) {
  FKC_CHECK_GT(gamma, 0.0);
  FKC_CHECK_GT(delta, 0.0);
  FKC_CHECK_GT(window_size, 0);
}

void GuessStructure::ExpireOnly(int64_t now) {
  // Batch-level expiry dedup: when even the oldest stored point is still
  // active, every IsActive test below would pass and the sweep would change
  // nothing — skip it. Exact, not heuristic: the watermark is a lower bound
  // on all stored arrivals, so state stays bit-identical to sweeping always.
  if (oldest_arrival_ > now - window_size_) return;
  ++expiry_sweeps_;
  // The pools mirror the entry lists by position; the expired attractors
  // are the oldest, so the pools drop the prefix ExpireEntries popped.
  v_pool_.DropFront(ExpireEntries(&v_entries_, &v_orphans_, now, window_size_));
  ExpirePoints(&v_orphans_, now, window_size_);
  c_pool_.DropFront(ExpireEntries(&c_entries_, &c_orphans_, now, window_size_));
  ExpirePoints(&c_orphans_, now, window_size_);
  RecomputeOldestArrival();
}

void GuessStructure::AppendAttractorCoords(CoordinatePool* pool,
                                           const Point& p) {
  if (pool->empty() && pool->dim() != p.dimension()) {
    pool->ResetDim(p.dimension());
  }
  pool->Append(p);
}

void GuessStructure::RebuildPools() {
  v_pool_.Clear();
  c_pool_.Clear();
  for (const AttractorEntry& entry : v_entries_) {
    AppendAttractorCoords(&v_pool_, entry.attractor);
  }
  for (const AttractorEntry& entry : c_entries_) {
    AppendAttractorCoords(&c_pool_, entry.attractor);
  }
}

void GuessStructure::RecomputeOldestArrival() {
  // Entries ascend by attractor arrival and every representative arrives no
  // earlier than its attractor, so a family's oldest entry-held point is its
  // front attractor; only the orphans need a full scan.
  int64_t oldest = INT64_MAX;
  auto scan = [&oldest](const AttractorList& entries,
                        const std::vector<Point>& orphans) {
    if (!entries.empty()) {
      oldest = std::min(oldest, entries.front().attractor.arrival);
    }
    for (const Point& p : orphans) oldest = std::min(oldest, p.arrival);
  };
  scan(v_entries_, v_orphans_);
  scan(c_entries_, c_orphans_);
  oldest_arrival_ = oldest;
}

void GuessStructure::Update(const Point& p, int64_t now, const Metric& metric,
                            DistanceObserver* observer) {
  FKC_CHECK_GE(constraint_.cap(p.color), 1)
      << "arriving point has a zero-cap color; the paper requires k_i >= 1";
  ExpireOnly(now);
  // p lands in the validation family below whatever branch is taken; keep
  // the expiry watermark a valid lower bound (replay feeds old arrivals).
  oldest_arrival_ = std::min(oldest_arrival_, p.arrival);

  // --- Validation phase: assign p to a v-attractor (lines 1-10). ---
  // One SoA kernel call over the dim-major attractor pool evaluates every
  // attractor distance; the observer sees them in storage order, exactly as
  // the scalar loop did. This trades the old no-observer early exit (worth
  // at most |AV| <= k+2 evaluations) for the vector kernel's throughput;
  // CountingMetric totals are correspondingly a constant higher than a
  // per-pair early-exit scan.
  const size_t nv = v_entries_.size();
  scratch_dists_.resize(nv);
  metric.DistanceSoA(p, v_pool_, scratch_dists_.data());
  if (observer != nullptr) {
    for (size_t i = 0; i < nv; ++i) {
      observer->ObserveDistance(scratch_dists_[i]);
    }
  }
  // The paper picks an arbitrary element of EV and the first works.
  int v_target = -1;
  for (size_t i = 0; i < nv; ++i) {
    if (scratch_dists_[i] <= 2.0 * gamma_) {
      v_target = static_cast<int>(i);
      break;
    }
  }

  if (v_target == -1) {
    // p becomes a new v-attractor and its own representative.
    PushAttractor(&v_entries_, p);
    AppendAttractorCoords(&v_pool_, p);
    Cleanup();
  } else {
    AttractorEntry& entry = v_entries_[v_target];
    if (variant_ == CoreVariant::kFull) {
      // Single representative: replace by the newcomer (line 10). The old
      // representative leaves RV entirely — it is superseded, not orphaned.
      entry.representatives.assign(1, p);
    } else {
      // Corollary 2: maintain a maximal independent set of the most recent
      // attracted points. To mirror the coreset balancing rule, re-target to
      // the eligible attractor with the fewest same-color representatives
      // (the batched distances are already in hand — no re-evaluation).
      int best = v_target;
      int best_count = CountColor(entry, p.color);
      for (size_t i = v_target + 1; i < nv; ++i) {
        if (scratch_dists_[i] <= 2.0 * gamma_) {
          const int count = CountColor(v_entries_[i], p.color);
          if (count < best_count) {
            best_count = count;
            best = static_cast<int>(i);
          }
        }
      }
      AddRepresentativeWithCap(&v_entries_[best], p,
                               constraint_.cap(p.color));
    }
  }

  // --- Coreset phase: assign p to a c-attractor (lines 11-20). ---
  if (variant_ != CoreVariant::kFull) return;

  // Only the attractors within c_threshold matter here, so the bounded scan
  // may stop reading a column once it is provably out of range; the
  // in-range distances — the only ones tested below — are exact.
  const double c_threshold = delta_ * gamma_ / 2.0;
  const size_t nc = c_entries_.size();
  scratch_dists_.resize(nc);
  metric.DistanceSoAWithin(p, c_pool_, c_threshold, scratch_dists_.data());
  int c_target = -1;
  int c_target_count = std::numeric_limits<int>::max();
  for (size_t i = 0; i < nc; ++i) {
    if (scratch_dists_[i] <= c_threshold) {
      const int count = CountColor(c_entries_[i], p.color);
      if (count < c_target_count) {
        c_target_count = count;
        c_target = static_cast<int>(i);
      }
    }
  }
  if (c_target == -1) {
    PushAttractor(&c_entries_, p);
    AppendAttractorCoords(&c_pool_, p);
  } else {
    AddRepresentativeWithCap(&c_entries_[c_target], p,
                             constraint_.cap(p.color));
  }
}

void GuessStructure::Cleanup() {
  const int k = constraint_.TotalK();

  // Line 1-2: with k+2 v-attractors, evict the oldest — entry 0, as entries
  // ascend by arrival; its representatives survive as orphans (subject to
  // the threshold below).
  if (static_cast<int>(v_entries_.size()) == k + 2) {
    for (Point& rep : v_entries_.front().representatives) {
      v_orphans_.push_back(std::move(rep));
    }
    v_pool_.DropFront(1);
    v_entries_.pop_front();
  }

  // Lines 3-5: with k+1 v-attractors the guess is invalid until the oldest
  // of them expires; points older than that are useless and are dropped
  // from A, RV, and R.
  if (static_cast<int>(v_entries_.size()) == k + 1) {
    const int64_t threshold = v_entries_.front().attractor.arrival;
    DropPointsOlderThan(&v_orphans_, threshold);
    c_pool_.DropFront(
        DropEntriesOlderThan(&c_entries_, &c_orphans_, threshold));
    DropPointsOlderThan(&c_orphans_, threshold);
  }
}

ColoredPool GuessStructure::ValidationPool() const {
  return GatherFamily(v_entries_, v_orphans_, v_pool_);
}

ColoredPool GuessStructure::CoresetPool() const {
  if (variant_ == CoreVariant::kValidationOnly) return ValidationPool();
  return GatherFamily(c_entries_, c_orphans_, c_pool_);
}

MemoryStats GuessStructure::Memory() const {
  MemoryStats stats;
  stats.guesses = 1;
  stats.v_attractors = static_cast<int64_t>(v_entries_.size());
  stats.v_representatives =
      CountRepresentatives(v_entries_) + static_cast<int64_t>(v_orphans_.size());
  stats.c_attractors = static_cast<int64_t>(c_entries_.size());
  stats.c_representatives =
      CountRepresentatives(c_entries_) + static_cast<int64_t>(c_orphans_.size());
  return stats;
}

void GuessStructure::ReplayInto(GuessStructure* sink, int64_t now,
                                const Metric& metric) const {
  std::vector<const Point*> stored;
  auto harvest = [&stored](const AttractorList& entries,
                           const std::vector<Point>& orphans) {
    for (const AttractorEntry& entry : entries) {
      stored.push_back(&entry.attractor);
      for (const Point& rep : entry.representatives) stored.push_back(&rep);
    }
    for (const Point& p : orphans) stored.push_back(&p);
  };
  harvest(v_entries_, v_orphans_);
  harvest(c_entries_, c_orphans_);

  // Equal arrivals mean one id, so one point: the order among them, and
  // which copy is replayed, cannot show.
  std::sort(stored.begin(), stored.end(), [](const Point* a, const Point* b) {
    return a->arrival < b->arrival;
  });
  uint64_t last_id = 0;
  for (const Point* p : stored) {
    if (p->id == last_id && last_id != 0) continue;  // attractor == its rep
    last_id = p->id;
    sink->Update(*p, now, metric, nullptr);
  }
}

}  // namespace fkc
