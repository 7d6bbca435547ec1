#include "sequential/color_constraint.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace fkc {

ColorConstraint::ColorConstraint(std::vector<int> caps)
    : caps_(std::move(caps)) {
  int64_t total_k = 0;
  for (int cap : caps_) {
    FKC_CHECK_GE(cap, 0);
    total_k += cap;
  }
  FKC_CHECK_LE(total_k, int64_t{INT_MAX});
  total_k_ = static_cast<int>(total_k);
}

Result<ColorConstraint> ColorConstraint::Create(std::vector<int> caps) {
  int64_t total_k = 0;
  for (size_t c = 0; c < caps.size(); ++c) {
    if (caps[c] < 0) {
      return Status::InvalidArgument("negative cap for color " +
                                     std::to_string(c));
    }
    total_k += caps[c];
  }
  if (total_k > INT_MAX) {
    return Status::InvalidArgument("caps sum past INT_MAX");
  }
  return ColorConstraint(std::move(caps));
}

ColorConstraint ColorConstraint::Uniform(int ell, int cap_per_color) {
  FKC_CHECK_GT(ell, 0);
  FKC_CHECK_GE(cap_per_color, 0);
  return ColorConstraint(std::vector<int>(ell, cap_per_color));
}

ColorConstraint ColorConstraint::Proportional(const std::vector<Point>& points,
                                              int ell, int total_k) {
  FKC_CHECK_GT(ell, 0);
  FKC_CHECK_GT(total_k, 0);
  std::vector<int64_t> counts(ell, 0);
  for (const Point& p : points) {
    if (p.color >= 0 && p.color < ell) ++counts[p.color];
  }
  const int64_t total =
      std::accumulate(counts.begin(), counts.end(), int64_t{0});
  std::vector<int> caps(ell, 0);
  if (total == 0) {
    // No color information: spread evenly.
    for (int i = 0; i < ell; ++i) caps[i] = total_k / ell;
  } else {
    // Largest-remainder apportionment, with one guaranteed slot per
    // occurring color when the budget allows.
    std::vector<double> quota(ell);
    int assigned = 0;
    for (int i = 0; i < ell; ++i) {
      quota[i] = static_cast<double>(counts[i]) * total_k / total;
      caps[i] = static_cast<int>(quota[i]);
      assigned += caps[i];
    }
    std::vector<int> order(ell);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return quota[a] - static_cast<int>(quota[a]) >
             quota[b] - static_cast<int>(quota[b]);
    });
    for (int i = 0; assigned < total_k; i = (i + 1) % ell, ++assigned) {
      ++caps[order[i]];
    }
    for (int i = 0; i < ell; ++i) {
      if (counts[i] > 0 && caps[i] == 0) {
        // Steal a slot from the most-capped color.
        int donor = static_cast<int>(
            std::max_element(caps.begin(), caps.end()) - caps.begin());
        if (caps[donor] > 1) {
          --caps[donor];
          ++caps[i];
        }
      }
    }
  }
  return ColorConstraint(std::move(caps));
}

bool ColorConstraint::IsFeasible(const std::vector<Point>& points) const {
  std::vector<int> counts(caps_.size(), 0);
  for (const Point& p : points) {
    if (p.color < 0 || p.color >= ell()) return false;
    if (++counts[p.color] > caps_[p.color]) return false;
  }
  return true;
}

Status ColorConstraint::CheckSolverInput(
    const std::vector<Point>& points) const {
  for (const Point& p : points) {
    if (p.color < 0 || p.color >= ell()) {
      return Status::InvalidArgument("point color out of range: " +
                                     p.ToString());
    }
    if (p.dimension() != points[0].dimension()) {
      return Status::InvalidArgument("points of mixed dimension: " +
                                     p.ToString());
    }
  }
  return Status::OK();
}

std::vector<int> ColorConstraint::CountColors(
    const std::vector<Point>& points) const {
  std::vector<int> counts(caps_.size(), 0);
  for (const Point& p : points) {
    if (p.color >= 0 && p.color < ell()) ++counts[p.color];
  }
  return counts;
}

std::string ColorConstraint::ToString() const {
  std::string out = "caps[";
  for (size_t i = 0; i < caps_.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", caps_[i]);
  }
  out += StrFormat("] k=%d", total_k_);
  return out;
}

}  // namespace fkc
