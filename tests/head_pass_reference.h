// The per-head bookkeeping of the Gonzalez traversal and the Jones solve as
// plain loops, the way the library ran them before the head-pass kernel
// (simd::KernelSet::head_pass): Gonzalez's farthest-point select over the
// slots, Jones's per-color nearest table over the positions, and the final
// radius's slot-by-slot fold. The tests diff the kernel at every width,
// GonzalezKCenter and JonesFairCenter::SolvePool against them, bit for bit.
#ifndef FKC_TESTS_HEAD_PASS_REFERENCE_H_
#define FKC_TESTS_HEAD_PASS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/status.h"
#include "matching/capacitated_matching.h"
#include "metric/colored_pool.h"
#include "metric/metric.h"
#include "metric/simd_kernels.h"
#include "sequential/color_constraint.h"
#include "sequential/radius.h"

namespace fkc {
namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Gonzalez's select: folds `row` into `nearest` slot by slot and returns
/// the farthest point, ties to the lowest position; {0, -1} when none lies
/// farther than 0. A slot that is no point of the set holds -inf.
inline simd::Farthest Farthest(const double* row, const int* position,
                               size_t count, double* nearest) {
  double next_distance = 0.0;
  int next_head = -1;
  for (size_t s = 0; s < count; ++s) {
    const double m = row[s] < nearest[s] ? row[s] : nearest[s];
    nearest[s] = m;
    if (m > next_distance ||
        (m == next_distance && next_head != -1 && position[s] < next_head)) {
      next_distance = m;
      next_head = position[s];
    }
  }
  return {next_distance, next_head};
}

/// Jones's table: for each color c < ell, the nearest point of color c and
/// its position, in position order with a strict <, so the lowest position
/// among equal distances; (+inf, -1) when no point is nearer than +inf.
/// Position i reads row[slots[i]] and has color colors[i].
inline void ColorTable(const double* row, const std::vector<size_t>& slots,
                       const std::vector<int>& colors, int ell,
                       std::vector<double>* distance, std::vector<int>* index) {
  distance->assign(ell, kInf);
  index->assign(ell, -1);
  for (size_t i = 0; i < slots.size(); ++i) {
    const int c = colors[i];
    const double d = row[slots[i]];
    if (d < (*distance)[c]) {
      (*distance)[c] = d;
      (*index)[c] = static_cast<int>(i);
    }
  }
}

/// The final radius: the rows min-folded per slot in order, then the max
/// over the points' slots (0 for no points, +inf for no rows).
inline double RadiusFromRows(const ColoredPool& pool,
                             const std::vector<const double*>& rows) {
  if (pool.empty()) return 0.0;
  if (rows.empty()) return kInf;
  std::vector<double> nearest(pool.slot_count(), kInf);
  for (const double* row : rows) {
    for (size_t s = 0; s < nearest.size(); ++s) {
      nearest[s] = row[s] < nearest[s] ? row[s] : nearest[s];
    }
  }
  double worst = 0.0;
  for (size_t i = 0; i < pool.size(); ++i) {
    worst = std::max(worst, nearest[pool.slot(i)]);
  }
  return worst;
}

/// A pool's positions as the loops above read them.
struct Layout {
  explicit Layout(const ColoredPool& pool)
      : nearest(pool.slot_count(), -kInf), position(pool.slot_count(), -1) {
    for (size_t i = 0; i < pool.size(); ++i) {
      nearest[pool.slot(i)] = kInf;
      position[pool.slot(i)] = static_cast<int>(i);
      slots.push_back(pool.slot(i));
      colors.push_back(pool.color(i));
    }
  }

  std::vector<double> nearest;  // per slot
  std::vector<int> position;    // per slot
  std::vector<size_t> slots;    // per position
  std::vector<int> colors;      // per position
};

/// The farthest-point traversal with those loops, every row scanned
/// forward, and each head's color table for colors [0, ell).
struct Traversal {
  std::vector<int> heads;
  std::vector<double> insertion;
  double coverage = 0.0;
  std::vector<std::vector<double>> color_distance;  // per head
  std::vector<std::vector<int>> color_index;        // per head
  std::vector<std::vector<double>> rows;            // per head
};

inline Traversal Gonzalez(const Metric& metric, const ColoredPool& pool,
                          int k, int first_index, int ell) {
  Traversal out;
  if (pool.empty() || k <= 0) return out;
  Layout layout(pool);
  int next_head = first_index;
  double next_distance = kInf;
  const int heads_wanted = std::min(k, static_cast<int>(pool.size()));
  for (int j = 0; j < heads_wanted; ++j) {
    out.heads.push_back(next_head);
    out.insertion.push_back(next_distance);
    out.rows.emplace_back(pool.slot_count());
    double* row = out.rows.back().data();
    pool.DistanceRow(metric, pool.At(next_head), row);
    const simd::Farthest farthest = Farthest(
        row, layout.position.data(), pool.slot_count(), layout.nearest.data());
    next_distance = farthest.distance;
    next_head = farthest.position;
    out.color_distance.emplace_back();
    out.color_index.emplace_back();
    ColorTable(row, layout.slots, layout.colors, ell,
               &out.color_distance.back(), &out.color_index.back());
    if (next_head == -1) break;
  }
  out.coverage = next_distance;
  return out;
}

/// Jones's answer from a full traversal (JonesFairCenter's stop rule gives
/// the same one): the smallest feasible candidate radius by binary search,
/// each feasibility test a maximum matching of the head prefix, the centers
/// from the matching at that radius, and RadiusFromRows over their rows.
inline Result<FairCenterSolution> Jones(const Metric& metric,
                                        const ColoredPool& pool,
                                        const ColorConstraint& constraint) {
  if (pool.empty()) return FairCenterSolution{};
  const int ell = constraint.ell();
  const Traversal t = Gonzalez(metric, pool, constraint.TotalK(), 0, ell);
  const auto prefix = [&](double rho) {
    size_t p = 0;
    while (p < t.heads.size() && t.insertion[p] > 2.0 * rho) ++p;
    return p;
  };
  const auto allowed = [&](double rho) {
    std::vector<std::vector<int>> out(prefix(rho));
    for (size_t h = 0; h < out.size(); ++h) {
      for (int c = 0; c < ell; ++c) {
        if (constraint.cap(c) > 0 && t.color_distance[h][c] <= rho) {
          out[h].push_back(c);
        }
      }
    }
    return out;
  };
  const auto feasible = [&](double rho) {
    const auto lists = allowed(rho);
    return MaximumCapacitatedMatching(lists, constraint)
        .Saturates(static_cast<int>(lists.size()));
  };
  std::vector<double> candidates = {0.0};
  for (size_t h = 0; h < t.heads.size(); ++h) {
    if (std::isfinite(t.insertion[h])) candidates.push_back(t.insertion[h] / 2);
    for (int c = 0; c < ell; ++c) {
      if (std::isfinite(t.color_distance[h][c])) {
        candidates.push_back(t.color_distance[h][c]);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (!feasible(candidates.back())) {
    return Status::Infeasible("no feasible radius");
  }
  size_t lo = 0;
  size_t hi = candidates.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (feasible(candidates[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const auto lists = allowed(candidates[lo]);
  const CapacitatedMatchingResult matching =
      MaximumCapacitatedMatching(lists, constraint);
  FairCenterSolution solution;
  std::vector<std::vector<double>> center_rows;
  std::vector<const double*> rows;
  for (size_t h = 0; h < lists.size(); ++h) {
    const int index = t.color_index[h][matching.assigned_color[h]];
    solution.centers.push_back(pool.At(index));
    center_rows.emplace_back(pool.slot_count());
    pool.DistanceRow(metric, solution.centers.back(),
                     center_rows.back().data());
  }
  for (const auto& row : center_rows) rows.push_back(row.data());
  solution.radius = RadiusFromRows(pool, rows);
  return solution;
}

}  // namespace reference
}  // namespace fkc

#endif  // FKC_TESTS_HEAD_PASS_REFERENCE_H_
