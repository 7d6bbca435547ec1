#include "core/guess_structure.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace fkc {
namespace {

/// Appends `p` as a new attractor that is its own representative: one slot
/// for each role.
void PushAttractor(AttractorList* entries, Slot p) {
  entries->Push(p);
  entries->AppendRep(entries->size() - 1, p);
}

/// Calls column(e, slot) on every representative that is its entry e's own
/// attractor, and other(slot) on every other representative and orphan:
/// entry by entry, then the orphans, the order a gathered pool's positions
/// follow.
template <typename Column, typename Other>
void WalkFamily(const AttractorList& entries, const std::vector<Slot>& orphans,
                Column&& column, Other&& other) {
  for (size_t e = 0; e < entries.size(); ++e) {
    const Slot attractor = entries.attractor(e);
    entries.ForEachRep(e, [&](Slot rep) {
      if (rep == attractor) {
        column(e, rep);
      } else {
        other(rep);
      }
    });
  }
  for (Slot s : orphans) other(s);
}

/// One family's representatives, entry by entry, then its orphans, as a
/// pool. Position e of `attractors` is entries[e]'s attractor, so a
/// representative that is its entry's own attractor is column e there.
ColoredPool GatherFamily(const AttractorList& entries,
                         const std::vector<Slot>& orphans,
                         const CoordinatePool& attractors,
                         const PointArena& arena) {
  ColoredPool::Builder builder(
      static_cast<size_t>(entries.total_reps()) + orphans.size(),
      &attractors, arena.fields());
  WalkFamily(
      entries, orphans,
      [&](size_t e, Slot rep) { builder.AddColumn(e, arena.color(rep), rep); },
      [&](Slot s) {
        builder.Add(arena.coords(s), arena.dim(), arena.color(s), s);
      });
  return std::move(builder).Build();
}

/// Fetches every cache line of the `dim` doubles at `row`.
void PrefetchRow(const double* row, size_t dim) {
#if defined(__GNUC__) || defined(__clang__)
  constexpr size_t kLineDoubles = 64 / sizeof(double);
  for (size_t d = 0; d < dim; d += kLineDoubles) __builtin_prefetch(row + d);
  __builtin_prefetch(row + dim - 1);
#else
  (void)row;
  (void)dim;
#endif
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

double* GuessStructure::Scratch(size_t n) {
  if (scratch_dists_.size() < n) scratch_dists_.resize(n);
  return scratch_dists_.data();
}

void GuessStructure::ExpireOnly(int64_t now, const PointArena& arena) {
  // Batch-level expiry dedup: when even the oldest stored point is still
  // active, every IsActive test below would pass and the sweep would change
  // nothing — skip it. Exact, not heuristic: the watermark is a lower bound
  // on all stored arrivals, so state stays bit-identical to sweeping always.
  if (oldest_arrival_ > now - window_size_) return;
  ++expiry_sweeps_;
  // The pools mirror the entry lists by position; the expired attractors
  // are the oldest, so the pools drop the prefix ExpireEntries popped.
  v_pool_.DropFront(
      ExpireEntries(&v_entries_, &v_orphans_, now, window_size_, arena));
  ExpirePoints(&v_orphans_, now, window_size_, arena);
  DropCFront(ExpireEntries(&c_entries_, &c_orphans_, now, window_size_, arena));
  ExpirePoints(&c_orphans_, now, window_size_, arena);
  RecomputeOldestArrival(arena);
}

void GuessStructure::AppendAttractorCoords(CoordinatePool* pool,
                                           const PointArena& arena, Slot p) {
  if (pool->empty() && pool->dim() != arena.dim()) pool->ResetDim(arena.dim());
  pool->Append(arena.coords(p));
}

void GuessStructure::RebuildPools(const PointArena& arena) {
  const auto rebuild = [&arena](const AttractorList& entries) {
    std::vector<CoordinatePool::ColumnRef> columns(entries.size());
    for (size_t e = 0; e < entries.size(); ++e) {
      columns[e] = {arena.coords(entries.attractor(e)), 1};
    }
    return columns.empty() ? CoordinatePool()
                           : CoordinatePool::FromColumns(arena.dim(), columns);
  };
  v_pool_ = rebuild(v_entries_);
  c_pool_ = rebuild(c_entries_);
  c_index_.Clear();
  DropCopyPool();
}

void GuessStructure::DropCFront(size_t n) {
  c_pool_.DropFront(n);
  if (!c_index_.built()) return;
  if (c_pool_.size() < PivotIndex::kTeardownColumns) {
    c_index_.Clear();
  } else {
    c_index_.DropFront(n);
  }
}

void GuessStructure::RestoreState(AttractorList v_entries,
                                  std::vector<Slot> v_orphans,
                                  AttractorList c_entries,
                                  std::vector<Slot> c_orphans,
                                  const PointArena& arena) {
  v_entries_ = std::move(v_entries);
  v_orphans_ = std::move(v_orphans);
  c_entries_ = std::move(c_entries);
  c_orphans_ = std::move(c_orphans);
  RebuildPools(arena);
  RecomputeOldestArrival(arena);
}

void GuessStructure::RemapSlots(const std::vector<Slot>& map) {
  v_entries_.RemapSlots(map);
  c_entries_.RemapSlots(map);
  for (Slot& s : v_orphans_) s = map[s];
  for (Slot& s : c_orphans_) s = map[s];
  if (copy_ == nullptr) return;
  // The copy pool's slots follow, dead ones included; a dead column whose
  // row the sweep dropped keeps kNoSlot, which no lookup matches.
  CopyPool& copy = *copy_;
  copy.high = -1;
  for (size_t c = 0; c < copy.slots.size(); ++c) {
    Slot& s = copy.slots[c];
    if (s == PointArena::kNoSlot) continue;
    s = map[s];
    if (s == PointArena::kNoSlot) continue;
    copy.column_of[s] = copy.base + static_cast<uint32_t>(c);
    copy.high = std::max<int64_t>(copy.high, s);
  }
}

void GuessStructure::RecomputeOldestArrival(const PointArena& arena) {
  // Entries ascend by attractor arrival and every representative arrives no
  // earlier than its attractor, so a family's oldest entry-held point is its
  // front attractor; only the orphans need a full scan.
  int64_t oldest = INT64_MAX;
  auto scan = [&](const AttractorList& entries,
                  const std::vector<Slot>& orphans) {
    if (!entries.empty()) {
      oldest = std::min(oldest, arena.arrival(entries.attractor(0)));
    }
    for (Slot s : orphans) oldest = std::min(oldest, arena.arrival(s));
  };
  scan(v_entries_, v_orphans_);
  scan(c_entries_, c_orphans_);
  oldest_arrival_ = oldest;
}

void GuessStructure::Update(Slot p, const Point& probe, int64_t now,
                            const PointArena& arena, const Metric& metric,
                            DistanceObserver* observer) {
  const int color = probe.color;
  ExpireOnly(now, arena);
  // p lands in the validation family below whatever branch is taken; keep
  // the expiry watermark a valid lower bound (replay feeds old arrivals).
  oldest_arrival_ = std::min(oldest_arrival_, arena.arrival(p));

  // --- Validation phase: assign p to a v-attractor (lines 1-10). ---
  // One SoA kernel call over the dim-major attractor pool evaluates every
  // attractor distance; the observer sees them in storage order, exactly as
  // the scalar loop did. This trades the old no-observer early exit (worth
  // at most |AV| <= k+2 evaluations) for the vector kernel's throughput;
  // CountingMetric totals are correspondingly a constant higher than a
  // per-pair early-exit scan.
  const size_t nv = v_entries_.size();
  double* dists = Scratch(nv);
  metric.DistanceSoA(probe, v_pool_, dists);
  if (observer != nullptr) {
    for (size_t i = 0; i < nv; ++i) observer->ObserveDistance(dists[i]);
  }
  const double v_threshold = 2.0 * gamma_;
  // The paper picks an arbitrary element of EV and the first works.
  int v_target = -1;
  for (size_t i = 0; i < nv; ++i) {
    if (dists[i] <= v_threshold) {
      v_target = static_cast<int>(i);
      break;
    }
  }

  if (v_target == -1) {
    // p becomes a new v-attractor and its own representative.
    PushAttractor(&v_entries_, p);
    AppendAttractorCoords(&v_pool_, arena, p);
    Cleanup(arena);
  } else {
    if (variant_ == CoreVariant::kFull) {
      // Single representative: replace by the newcomer (line 10). The old
      // representative leaves RV entirely — it is superseded, not orphaned.
      v_entries_.ReplaceReps(v_target, p);
    } else {
      // Corollary 2: maintain a maximal independent set of the most recent
      // attracted points. To mirror the coreset balancing rule, re-target to
      // the eligible attractor with the fewest same-color representatives
      // (the batched distances are already in hand — no re-evaluation).
      int best = v_target;
      int best_count = CountColor(v_entries_, v_target, color, arena);
      for (size_t i = v_target + 1; i < nv; ++i) {
        if (dists[i] <= v_threshold) {
          const int count = CountColor(v_entries_, i, color, arena);
          if (count < best_count) {
            best_count = count;
            best = static_cast<int>(i);
          }
        }
      }
      AddRepresentativeWithCap(&v_entries_, best, p, constraint_.cap(color),
                               arena);
    }
  }

  // --- Coreset phase: assign p to a c-attractor (lines 11-20). ---
  if (variant_ != CoreVariant::kFull) return;

  // Only the attractors within c_threshold matter here: the pivot index
  // proves most of a large pool out of range without a distance, and the
  // bounded scans may stop reading a column once it is provably out of
  // range. The in-range distances — the only ones tested — are exact, so
  // both paths pick the same attractor.
  const double c_threshold = delta_ * gamma_ / 2.0;
  const size_t nc = c_entries_.size();
  if (!c_index_.built() && nc >= PivotIndex::kBuildColumns) {
    c_index_.Build(metric, c_pool_, c_threshold);
  }
  int c_target = -1;
  int c_target_count = std::numeric_limits<int>::max();
  // Fewest same-colored representatives, first position on ties. The rule
  // is a minimum over (count, position), so the index may pass in-range
  // positions in any order and still pick what the scan picks.
  const auto consider = [&](size_t i) {
    const int count = CountColor(c_entries_, i, color, arena);
    if (count < c_target_count ||
        (count == c_target_count && static_cast<int>(i) < c_target)) {
      c_target_count = count;
      c_target = static_cast<int>(i);
    }
  };
  if (c_index_.built() && c_index_.Probe(probe)) {
    // The candidates' exact distances, one pool block of them at a time,
    // so verify_pool_ holds one block for good.
    const std::vector<size_t>& candidates = c_index_.Candidates();
    if (verify_pool_.dim() != arena.dim()) verify_pool_.ResetDim(arena.dim());
    // The candidates' rows are cold after a query; fetch them all before
    // the gathers read them.
    for (size_t candidate : candidates) {
      PrefetchRow(arena.coords(c_entries_.attractor(candidate)), arena.dim());
    }
    dists = Scratch(CoordinatePool::kBlockLanes);
    for (size_t first = 0; first < candidates.size();
         first += CoordinatePool::kBlockLanes) {
      const size_t count =
          std::min(CoordinatePool::kBlockLanes, candidates.size() - first);
      verify_columns_.clear();
      for (size_t k = first; k < first + count; ++k) {
        verify_columns_.push_back(
            {arena.coords(c_entries_.attractor(candidates[k])), 1});
      }
      verify_pool_.Assign(verify_columns_);
      metric.DistanceSoAWithin(probe, verify_pool_, c_threshold, dists);
      for (size_t k = 0; k < count; ++k) {
        if (dists[k] <= c_threshold) consider(candidates[first + k]);
      }
    }
  } else {
    dists = Scratch(nc);
    metric.DistanceSoAWithin(probe, c_pool_, c_threshold, dists);
    for (size_t i = 0; i < nc; ++i) {
      if (dists[i] <= c_threshold) consider(i);
    }
  }
  if (c_target == -1) {
    PushAttractor(&c_entries_, p);
    AppendAttractorCoords(&c_pool_, arena, p);
    // The probe's row, when the index was built: a new attractor's pivot
    // distances are the arrival's.
    if (c_index_.built()) c_index_.Append();
  } else {
    AddRepresentativeWithCap(&c_entries_, c_target, p, constraint_.cap(color),
                             arena);
  }
}

void GuessStructure::Cleanup(const PointArena& arena) {
  // In int64_t: caps may sum to INT_MAX, and k + 2 must not overflow.
  const int64_t k = constraint_.TotalK();

  // Line 1-2: with k+2 v-attractors, evict the oldest — entry 0, as entries
  // ascend by arrival; its representatives survive as orphans (subject to
  // the threshold below).
  if (static_cast<int64_t>(v_entries_.size()) == k + 2) {
    v_entries_.PopFront([this](Slot rep) { v_orphans_.push_back(rep); });
    v_pool_.DropFront(1);
  }

  // Lines 3-5: with k+1 v-attractors the guess is invalid until the oldest
  // of them expires; points older than that are useless and are dropped
  // from A, RV, and R.
  if (static_cast<int64_t>(v_entries_.size()) == k + 1) {
    const int64_t threshold = arena.arrival(v_entries_.attractor(0));
    DropPointsOlderThan(&v_orphans_, threshold, arena);
    DropCFront(
        DropEntriesOlderThan(&c_entries_, &c_orphans_, threshold, arena));
    DropPointsOlderThan(&c_orphans_, threshold, arena);
  }
}

ColoredPool GuessStructure::ValidationPool(const PointArena& arena) const {
  return GatherFamily(v_entries_, v_orphans_, v_pool_, arena);
}

ColoredPool GuessStructure::CoresetPool(const PointArena& arena,
                                        int64_t* copied) {
  int64_t count = 0;
  ColoredPool pool;
  if (variant_ == CoreVariant::kValidationOnly) {
    pool = ValidationPool(arena);
  } else if (c_pool_.has_twin()) {
    pool = GatherCoreset(arena, &count);
  } else {
    DropCopyPool();
    pool = GatherFamily(c_entries_, c_orphans_, c_pool_, arena);
  }
  if (copied != nullptr) {
    *copied = count + static_cast<int64_t>(pool.copied());
  }
  return pool;
}

ColoredPool GuessStructure::GatherCoreset(const PointArena& arena,
                                          int64_t* copied) {
  if (copy_ == nullptr ||
      copy_->pool.twin_reference() != c_pool_.twin_reference()) {
    copy_ = std::make_unique<CopyPool>();
  }
  CopyPool& copy = *copy_;
  if (copy.column_of.size() < arena.size()) copy.column_of.resize(arena.size());
  copy.live.assign(copy.pool.size(), 0);
  copy.hits.clear();
  copy.misses.clear();
  // A miss as one sortable key: its slot, then its position.
  const auto miss = [](Slot s, size_t position) {
    return uint64_t{s} << 32 | position;
  };

  // The walk: a column position costs what it costs GatherFamily, and
  // every other point finds its copy, or is noted as a miss and given one
  // below.
  ColoredPool::Builder builder(
      static_cast<size_t>(c_entries_.total_reps()) + c_orphans_.size(),
      &c_pool_, arena.fields(), &copy.pool);
  WalkFamily(
      c_entries_, c_orphans_,
      [&](size_t e, Slot rep) { builder.AddColumn(e, arena.color(rep), rep); },
      [&](Slot s) {
        const size_t position = builder.size();
        const uint32_t c = copy.column_of[s] - copy.base;
        if (c < copy.slots.size() && copy.slots[c] == s) {
          copy.live[c] = 1;
          copy.hits.push_back({static_cast<uint32_t>(position), c});
          builder.AddTail(c, arena.color(s), s);
        } else {
          copy.misses.push_back(miss(s, position));
          builder.AddTail(0, arena.color(s), s);  // its column comes below
        }
      });

  // Drop the dead prefix; rebuild when what stays dead passes a quarter of
  // the pool, or when a miss is not above every cached slot (the pool's
  // columns would leave slot order).
  size_t drop = 0;
  while (drop < copy.live.size() && copy.live[drop] == 0) ++drop;
  const size_t dead = copy.pool.size() - copy.hits.size() - drop;
  const size_t size = copy.pool.size() - drop + copy.misses.size();
  std::sort(copy.misses.begin(), copy.misses.end());
  const bool ordered = copy.misses.empty() ||
                       static_cast<int64_t>(copy.misses.front() >> 32) >
                           copy.high;
  if (copy.slots.empty() || !ordered || 4 * dead > size) {
    // Every live point, in slot order.
    std::vector<uint64_t>& live = copy.misses;
    for (const auto& [position, c] : copy.hits) {
      live.push_back(miss(copy.slots[c], position));
    }
    if (!copy.hits.empty()) std::sort(live.begin(), live.end());
    std::vector<CoordinatePool::ColumnRef> columns(live.size());
    copy.slots.resize(live.size());
    copy.base = 0;
    for (size_t c = 0; c < live.size(); ++c) {
      const Slot s = static_cast<Slot>(live[c] >> 32);
      columns[c] = {arena.coords(s), 1};
      copy.slots[c] = s;
      copy.column_of[s] = static_cast<uint32_t>(c);
      builder.SetTailColumn(static_cast<uint32_t>(live[c]), c);
    }
    copy.high = live.empty() ? -1 : static_cast<int64_t>(live.back() >> 32);
    copy.pool = CoordinatePool::FromColumns(c_pool_.dim(), columns, &c_pool_);
    *copied += static_cast<int64_t>(live.size());
    return std::move(builder).Build();
  }
  if (drop != 0) {
    copy.pool.DropFront(drop);
    copy.slots.erase(copy.slots.begin(),
                     copy.slots.begin() + static_cast<std::ptrdiff_t>(drop));
    copy.base += static_cast<uint32_t>(drop);
    for (const auto& [position, c] : copy.hits) {
      builder.SetTailColumn(position, c - drop);
    }
  }
  for (const uint64_t key : copy.misses) {
    const Slot s = static_cast<Slot>(key >> 32);
    builder.SetTailColumn(static_cast<uint32_t>(key), copy.slots.size());
    copy.column_of[s] = copy.base + static_cast<uint32_t>(copy.slots.size());
    copy.slots.push_back(s);
    copy.pool.Append(arena.coords(s));
    copy.high = s;
  }
  *copied += static_cast<int64_t>(copy.misses.size());
  return std::move(builder).Build();
}

MemoryStats GuessStructure::Memory() const {
  MemoryStats stats;
  stats.guesses = 1;
  stats.v_attractors = static_cast<int64_t>(v_entries_.size());
  stats.v_representatives =
      v_entries_.total_reps() + static_cast<int64_t>(v_orphans_.size());
  stats.c_attractors = static_cast<int64_t>(c_entries_.size());
  stats.c_representatives =
      c_entries_.total_reps() + static_cast<int64_t>(c_orphans_.size());
  return stats;
}

void GuessStructure::ReplayInto(GuessStructure* sink, int64_t now,
                                const PointArena& arena,
                                const Metric& metric) const {
  std::vector<Slot> stored;
  stored.reserve(static_cast<size_t>(Memory().TotalPoints()));
  ForEachSlot([&stored](Slot s) { stored.push_back(s); });
  // Slots ascend with arrival, and one slot is one point: an attractor
  // that is its own representative, or a point held in both families, is
  // replayed once.
  std::sort(stored.begin(), stored.end());
  stored.erase(std::unique(stored.begin(), stored.end()), stored.end());
  Point probe;
  for (Slot s : stored) {
    arena.CopyTo(s, &probe);
    sink->Update(s, probe, now, arena, metric, nullptr);
  }
}

}  // namespace fkc
