#include "sequential/brute_force.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "metric/colored_pool.h"

namespace fkc {
namespace {

// Enumerates all size-`take` combinations of pool[start..], appending chosen
// indices to *scratch and invoking `fn` on each complete combination.
void ForEachCombination(const std::vector<int>& pool, size_t start, int take,
                        std::vector<int>* scratch,
                        const std::function<void(const std::vector<int>&)>& fn) {
  if (take == 0) {
    fn(*scratch);
    return;
  }
  // Leave room for the remaining picks.
  for (size_t i = start; i + static_cast<size_t>(take) <= pool.size(); ++i) {
    scratch->push_back(pool[i]);
    ForEachCombination(pool, i + 1, take - 1, scratch, fn);
    scratch->pop_back();
  }
}

// The enumeration is exponential in the point count.
Status CheckTiny(const std::vector<Point>& points) {
  if (points.size() <= kMaxBruteForcePoints) return Status::OK();
  return Status::InvalidArgument(
      "brute force takes at most " + std::to_string(kMaxBruteForcePoints) +
      " points, got " + std::to_string(points.size()));
}

}  // namespace

Result<FairCenterSolution> BruteForceFairCenter(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint) {
  if (points.empty()) return FairCenterSolution{};
  FKC_RETURN_IF_ERROR(CheckTiny(points));
  FKC_RETURN_IF_ERROR(constraint.CheckSolverInput(points));

  // Pools per color, and the per-color take = min(cap, available): adding a
  // center never increases the radius, so optimal solutions of maximal
  // per-color cardinality exist.
  std::vector<std::vector<int>> pool(constraint.ell());
  for (size_t i = 0; i < points.size(); ++i) {
    pool[points[i].color].push_back(static_cast<int>(i));
  }
  std::vector<int> take(constraint.ell());
  int total_take = 0;
  for (int c = 0; c < constraint.ell(); ++c) {
    take[c] =
        std::min<int>(constraint.cap(c), static_cast<int>(pool[c].size()));
    total_take += take[c];
  }
  if (total_take == 0) {
    return Status::Infeasible("all usable color caps are zero");
  }

  // Cartesian product of per-color combinations via recursion over colors;
  // every candidate is scored against one pool built here.
  const ColoredPool coords = ColoredPool::FromPoints(points);
  FairCenterSolution best;
  best.radius = std::numeric_limits<double>::infinity();
  std::vector<int> chosen;

  std::function<void(int)> recurse = [&](int color) {
    if (color == constraint.ell()) {
      std::vector<Point> centers;
      centers.reserve(chosen.size());
      for (int idx : chosen) centers.push_back(points[idx]);
      const double radius = PoolClusteringRadius(metric, coords, centers);
      if (radius < best.radius) {
        best.radius = radius;
        best.centers = std::move(centers);
      }
      return;
    }
    if (take[color] == 0) {
      recurse(color + 1);
      return;
    }
    std::vector<int> scratch;
    ForEachCombination(pool[color], 0, take[color], &scratch,
                       [&](const std::vector<int>& combo) {
                         const size_t before = chosen.size();
                         chosen.insert(chosen.end(), combo.begin(),
                                       combo.end());
                         recurse(color + 1);
                         chosen.resize(before);
                       });
  };
  recurse(0);

  if (!std::isfinite(best.radius)) {
    return Status::OutOfRange(
        "no candidate radius is finite: the points' distances overflow");
  }
  return best;
}

Result<FairCenterSolution> BruteForceKCenter(const Metric& metric,
                                             const std::vector<Point>& points,
                                             int k) {
  if (points.empty()) return FairCenterSolution{};
  if (k <= 0) return Status::Infeasible("k must be positive");
  FKC_RETURN_IF_ERROR(CheckTiny(points));

  // Single-color reduction: reuse the fair enumerator with one color.
  std::vector<Point> recolored = points;
  for (Point& p : recolored) p.color = 0;
  auto result = BruteForceFairCenter(
      metric, recolored,
      ColorConstraint({std::min<int>(k, static_cast<int>(points.size()))}));
  if (!result.ok()) return result.status();
  // Restore original colors on the witness centers (match by coordinates).
  FairCenterSolution solution = std::move(result).value();
  for (Point& c : solution.centers) {
    for (const Point& original : points) {
      if (original.coords == c.coords) {
        c.color = original.color;
        break;
      }
    }
  }
  return solution;
}

}  // namespace fkc
