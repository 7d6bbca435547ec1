#include "sequential/jones_fair_center.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "matching/capacitated_matching.h"
#include "sequential/gonzalez.h"

namespace fkc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// For each head, the distance to the nearest point of each color and that
// point's index, filled from the distance rows Gonzalez computes anyway.
struct ColorTable {
  // nearest_distance[h][c], nearest_index[h][c]
  std::vector<std::vector<double>> nearest_distance;
  std::vector<std::vector<int>> nearest_index;
};

// Attempts to match the prefix of heads with insertion distance > 2*rho to
// color slots using balls of radius rho. On success fills `centers` with
// the pool index of each prefix head's center.
bool TryRadius(double rho, const GonzalezResult& gonzalez,
               const ColorTable& table, const ColorConstraint& constraint,
               std::vector<int>* centers) {
  // Maximal prefix with delta_j > 2*rho; delta_0 = +inf so the prefix is
  // never empty.
  size_t prefix = 0;
  while (prefix < gonzalez.insertion_distances.size() &&
         gonzalez.insertion_distances[prefix] > 2.0 * rho) {
    ++prefix;
  }

  std::vector<std::vector<int>> allowed(prefix);
  for (size_t h = 0; h < prefix; ++h) {
    for (int c = 0; c < constraint.ell(); ++c) {
      if (constraint.cap(c) > 0 && table.nearest_distance[h][c] <= rho) {
        allowed[h].push_back(c);
      }
    }
  }

  const CapacitatedMatchingResult matching =
      MaximumCapacitatedMatching(allowed, constraint);
  if (!matching.Saturates(static_cast<int>(prefix))) return false;

  centers->clear();
  for (size_t h = 0; h < prefix; ++h) {
    const int color = matching.assigned_color[h];
    const int point_index = table.nearest_index[h][color];
    FKC_CHECK_GE(point_index, 0);
    centers->push_back(point_index);
  }
  return true;
}

}  // namespace

Result<FairCenterSolution> JonesFairCenter::Solve(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint) const {
  if (points.empty()) return FairCenterSolution{};
  FKC_RETURN_IF_ERROR(constraint.CheckSolverInput(points));
  return SolvePool(metric, ColoredPool::FromPoints(points), constraint);
}

Result<FairCenterSolution> JonesFairCenter::SolvePool(
    const Metric& metric, const ColoredPool& pool,
    const ColorConstraint& constraint) const {
  if (pool.empty()) return FairCenterSolution{};
  const int ell = constraint.ell();
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool.color(i) < 0 || pool.color(i) >= ell) {
      return Status::InvalidArgument("point color out of range: " +
                                     pool.At(i).ToString());
    }
  }

  const int k = constraint.TotalK();
  if (k <= 0) return Status::Infeasible("all color caps are zero");

  // Gonzalez scans the pool once per head, the color table is filled from
  // those same rows, and the final radius scans it once per center.
  ColorTable table;
  const GonzalezResult gonzalez = GonzalezKCenter(
      metric, pool, k, /*first_index=*/0, [&](const double* row) {
        std::vector<double>& distance =
            table.nearest_distance.emplace_back(ell, kInf);
        std::vector<int>& index = table.nearest_index.emplace_back(ell, -1);
        for (size_t i = 0; i < pool.size(); ++i) {
          const int c = pool.color(i);
          const double d = row[pool.slot(i)];
          if (d < distance[c]) {
            distance[c] = d;
            index[c] = static_cast<int>(i);
          }
        }
      });

  // Candidate radii where feasibility can flip: head-to-color distances and
  // prefix breakpoints delta_j / 2 (and 0, for the degenerate exact case).
  std::vector<double> candidates = {0.0};
  for (const auto& row : table.nearest_distance) {
    for (double d : row) {
      if (std::isfinite(d)) candidates.push_back(d);
    }
  }
  for (double delta : gonzalez.insertion_distances) {
    if (std::isfinite(delta)) candidates.push_back(delta / 2.0);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Feasibility is monotone in rho: binary search for the smallest feasible
  // candidate. `best` always holds the centers of candidates[hi], the
  // smallest radius found feasible so far.
  std::vector<int> best;
  if (!TryRadius(candidates.back(), gonzalez, table, constraint, &best)) {
    return Status::Infeasible(
        "no head can be matched to any color with spare capacity");
  }
  std::vector<int> attempt;
  size_t lo = 0;
  size_t hi = candidates.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (TryRadius(candidates[mid], gonzalez, table, constraint, &attempt)) {
      hi = mid;
      best.swap(attempt);
    } else {
      lo = mid + 1;
    }
  }

  FairCenterSolution solution;
  solution.centers.reserve(best.size());
  for (int index : best) solution.centers.push_back(pool.At(index));
  solution.radius = PoolClusteringRadius(metric, pool, solution.centers);
  return solution;
}

}  // namespace fkc
