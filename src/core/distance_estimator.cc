#include "core/distance_estimator.h"

#include <algorithm>

#include "common/logging.h"

namespace fkc {

WindowDistanceEstimator::WindowDistanceEstimator(const GuessLadder& ladder,
                                                 int64_t window_size)
    : ladder_(ladder), window_size_(window_size) {
  FKC_CHECK_GT(window_size, 0);
}

void WindowDistanceEstimator::ObserveDistance(double distance) {
  if (!(distance > 0.0)) return;
  const int exponent = ladder_.FloorExponent(distance);
  auto [it, inserted] = last_seen_.try_emplace(exponent, now_);
  if (!inserted) it->second = now_;
  oldest_seen_ = std::min(oldest_seen_, now_);
}

void WindowDistanceEstimator::EvictStale() const {
  // A witness observed at time T involved two points alive at T, which both
  // expire by T + window_size at the latest.
  const int64_t horizon = now_ - window_size_;
  if (oldest_seen_ > horizon) return;
  oldest_seen_ = INT64_MAX;
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    if (it->second <= horizon) {
      it = last_seen_.erase(it);
    } else {
      oldest_seen_ = std::min(oldest_seen_, it->second);
      ++it;
    }
  }
}

std::optional<std::pair<int, int>> WindowDistanceEstimator::Range() const {
  EvictStale();
  if (last_seen_.empty()) return std::nullopt;
  return std::make_pair(last_seen_.begin()->first, last_seen_.rbegin()->first);
}

int64_t WindowDistanceEstimator::LiveBuckets() const {
  EvictStale();
  return static_cast<int64_t>(last_seen_.size());
}

std::vector<std::pair<int, int64_t>> WindowDistanceEstimator::DumpBuckets()
    const {
  EvictStale();
  return {last_seen_.begin(), last_seen_.end()};
}

void WindowDistanceEstimator::RestoreBuckets(
    const std::vector<std::pair<int, int64_t>>& buckets, int64_t now) {
  last_seen_.clear();
  oldest_seen_ = INT64_MAX;
  for (const auto& [exponent, seen] : buckets) {
    last_seen_[exponent] = seen;
    oldest_seen_ = std::min(oldest_seen_, seen);
  }
  now_ = now;
}

}  // namespace fkc
