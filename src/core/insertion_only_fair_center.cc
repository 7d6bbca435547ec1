#include "core/insertion_only_fair_center.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/fair_center_sliding_window.h"

namespace fkc {

InsertionOnlyFairCenter::InsertionOnlyFairCenter(InsertionOnlyOptions options,
                                                 ColorConstraint constraint,
                                                 const Metric* metric,
                                                 const FairCenterSolver* solver)
    : options_(options),
      constraint_(std::move(constraint)),
      metric_(metric),
      solver_(solver),
      ladder_(options.beta) {
  FKC_CHECK(metric_ != nullptr);
  FKC_CHECK(solver_ != nullptr);
  FKC_CHECK_GT(constraint_.TotalK(), 0);
}

Status InsertionOnlyFairCenter::Update(Coordinates coords, int color) {
  return Update(Point(std::move(coords), color));
}

Status InsertionOnlyFairCenter::Update(Point p) {
  FKC_RETURN_IF_ERROR(ValidateArrival(p, constraint_, dimension_));
  dimension_ = static_cast<int64_t>(p.dimension());
  ++count_;
  p.arrival = count_;
  p.id = next_id_++;

  if (buffering_) {
    // Exact duplicates (same location and color) are redundant for center
    // selection; dropping them keeps the buffer bounded by (k+1) * ell.
    for (const Point& q : buffer_) {
      if (q.color == p.color && q.coords == p.coords) return Status::OK();
    }
    buffer_.push_back(std::move(p));

    // Count distinct locations; k+2 of them certify OPT >= d_min / 2 for
    // every future prefix, anchoring the ladder.
    std::vector<const Point*> distinct;
    for (const Point& q : buffer_) {
      bool fresh = true;
      for (const Point* d : distinct) {
        if (d->coords == q.coords) {
          fresh = false;
          break;
        }
      }
      if (fresh) distinct.push_back(&q);
    }
    if (static_cast<int>(distinct.size()) >= constraint_.TotalK() + 2) {
      ActivateLadder();
    }
    return Status::OK();
  }

  for (auto& [exponent, state] : guesses_) {
    InsertIntoGuess(&state, ladder_.Value(exponent), p);
  }
  PruneAndExtend();
  return Status::OK();
}

void InsertionOnlyFairCenter::ActivateLadder() {
  double d_min = std::numeric_limits<double>::infinity();
  double d_max = 0.0;
  for (size_t i = 0; i < buffer_.size(); ++i) {
    for (size_t j = i + 1; j < buffer_.size(); ++j) {
      const double d = metric_->Distance(buffer_[i], buffer_[j]);
      if (d > 0.0) d_min = std::min(d_min, d);
      d_max = std::max(d_max, d);
    }
  }
  FKC_CHECK(std::isfinite(d_min));
  FKC_CHECK_GT(d_max, 0.0);

  // Guesses from the OPT lower bound up to the diameter (coarser guesses are
  // spawned on demand by PruneAndExtend).
  const int lo = ladder_.FloorExponent(d_min / 2.0);
  const int hi = ladder_.CeilExponent(d_max);
  for (int e = lo; e <= hi; ++e) guesses_.emplace(e, GuessState{});

  for (auto& [exponent, state] : guesses_) {
    for (const Point& q : buffer_) {
      InsertIntoGuess(&state, ladder_.Value(exponent), q);
    }
  }
  buffering_ = false;
  buffer_.clear();
  PruneAndExtend();
}

bool InsertionOnlyFairCenter::InsertIntoGuess(GuessState* state, double gamma,
                                              const Point& p) {
  // Attractor within 2*gamma with the fewest same-color representatives.
  int target = -1;
  int target_count = std::numeric_limits<int>::max();
  for (size_t i = 0; i < state->entries.size(); ++i) {
    if (metric_->Distance(p, state->entries[i].attractor) <= 2.0 * gamma) {
      const int count = CountColor(state->entries[i], p.color);
      if (count < target_count) {
        target_count = count;
        target = static_cast<int>(i);
      }
    }
  }
  if (target == -1) {
    state->entries.push_back(AttractorEntry{p, {p}});
    return static_cast<int>(state->entries.size()) <= constraint_.TotalK();
  }
  // Keep-first maximal independent set: insertion-only streams have no
  // recency preference, so the earliest k_i of each color stay.
  if (target_count < constraint_.cap(p.color)) {
    state->entries[target].representatives.push_back(p);
  }
  return true;
}

std::vector<Point> InsertionOnlyFairCenter::StoredPoints(
    const GuessState& state) const {
  std::vector<Point> out;
  for (const AttractorEntry& entry : state.entries) {
    // The attractor is always its own first representative; emitting the
    // representative set alone therefore covers it.
    out.insert(out.end(), entry.representatives.begin(),
               entry.representatives.end());
  }
  return out;
}

void InsertionOnlyFairCenter::PruneAndExtend() {
  const int k = constraint_.TotalK();
  // Kill dead guesses (attractor count > k), spawning a doubled guess above
  // the ladder when the top dies — seeded by replaying the dying guess's
  // stored points (the classic re-clustering step).
  for (;;) {
    std::vector<int> dead;
    for (const auto& [exponent, state] : guesses_) {
      if (static_cast<int>(state.entries.size()) > k) {
        dead.push_back(exponent);
      }
    }
    if (dead.empty()) return;
    const int top = guesses_.rbegin()->first;
    for (int exponent : dead) {
      if (exponent == top) {
        // Re-cluster the dying top guess into a fresh doubled guess.
        GuessState fresh;
        std::vector<Point> stored = StoredPoints(guesses_.at(exponent));
        std::sort(stored.begin(), stored.end(),
                  [](const Point& a, const Point& b) {
                    return a.arrival < b.arrival;
                  });
        const double doubled_gamma = ladder_.Value(top + 1);
        for (const Point& q : stored) {
          InsertIntoGuess(&fresh, doubled_gamma, q);
        }
        guesses_.emplace(top + 1, std::move(fresh));
      }
      guesses_.erase(exponent);
    }
    // The freshly spawned guess may itself be dead; loop until stable.
  }
}

Result<FairCenterSolution> InsertionOnlyFairCenter::Query() {
  if (count_ == 0) return FairCenterSolution{};
  if (buffering_) {
    return solver_->Solve(*metric_, buffer_, constraint_);
  }
  FKC_CHECK(!guesses_.empty());
  const GuessState& lowest = guesses_.begin()->second;
  return solver_->Solve(*metric_, StoredPoints(lowest), constraint_);
}

MemoryStats InsertionOnlyFairCenter::Memory() const {
  MemoryStats stats;
  if (buffering_) {
    stats.v_representatives = static_cast<int64_t>(buffer_.size());
    return stats;
  }
  for (const auto& [exponent, state] : guesses_) {
    ++stats.guesses;
    stats.v_attractors += static_cast<int64_t>(state.entries.size());
    stats.v_representatives += CountRepresentatives(state.entries);
  }
  return stats;
}

}  // namespace fkc
