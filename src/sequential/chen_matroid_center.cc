#include "sequential/chen_matroid_center.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "matching/capacitated_matching.h"

namespace fkc {
namespace {

// Greedy maximal 2r-separated subset; every point is within 2r of the result.
std::vector<int> GreedyHeads(const Metric& metric,
                             const std::vector<Point>& points, double r) {
  std::vector<int> heads;
  for (size_t i = 0; i < points.size(); ++i) {
    bool covered = false;
    for (int h : heads) {
      if (metric.Distance(points[i], points[h]) <= 2.0 * r) {
        covered = true;
        break;
      }
    }
    if (!covered) heads.push_back(static_cast<int>(i));
  }
  return heads;
}

// Tests one radius: heads, then a head <-> color capacitated matching. On
// success fills `centers` with one center per head.
bool TryRadiusFair(const Metric& metric, const std::vector<Point>& points,
                   const ColorConstraint& constraint, double r,
                   std::vector<Point>* centers) {
  const std::vector<int> heads = GreedyHeads(metric, points, r);
  if (static_cast<int>(heads.size()) > constraint.TotalK()) return false;

  // For each head and color, the nearest in-ball point of that color.
  const int ell = constraint.ell();
  std::vector<std::vector<double>> best_distance(
      heads.size(), std::vector<double>(ell, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<int>> best_index(heads.size(),
                                           std::vector<int>(ell, -1));
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t h = 0; h < heads.size(); ++h) {
      const double d = metric.Distance(points[i], points[heads[h]]);
      if (d <= r && d < best_distance[h][points[i].color]) {
        best_distance[h][points[i].color] = d;
        best_index[h][points[i].color] = static_cast<int>(i);
        break;  // balls are disjoint: no other head can claim this point
      }
    }
  }

  std::vector<std::vector<int>> allowed(heads.size());
  for (size_t h = 0; h < heads.size(); ++h) {
    for (int c = 0; c < ell; ++c) {
      if (constraint.cap(c) > 0 && best_index[h][c] != -1) {
        allowed[h].push_back(c);
      }
    }
  }
  const CapacitatedMatchingResult matching =
      MaximumCapacitatedMatching(allowed, constraint);
  if (!matching.Saturates(static_cast<int>(heads.size()))) return false;

  centers->clear();
  for (size_t h = 0; h < heads.size(); ++h) {
    centers->push_back(points[best_index[h][matching.assigned_color[h]]]);
  }
  return true;
}

// Builds the sorted candidate radius list. Exact: every pairwise distance
// (plus zero). Ladder: geometric progression bracketing [d_lo, diameter].
std::vector<double> CandidateRadii(const Metric& metric,
                                   const std::vector<Point>& points,
                                   const ChenOptions& options) {
  const int n = static_cast<int>(points.size());
  std::vector<double> candidates = {0.0};
  if (n <= options.exact_candidate_limit) {
    candidates.reserve(static_cast<size_t>(n) * (n - 1) / 2 + 1);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        candidates.push_back(metric.Distance(points[i], points[j]));
      }
    }
  } else {
    // Bracket: diameter <= 2 * max distance from an arbitrary anchor; the
    // smallest useful radius is the smallest non-zero anchor distance.
    double max_anchor = 0.0;
    double min_anchor = std::numeric_limits<double>::infinity();
    for (int i = 1; i < n; ++i) {
      const double d = metric.Distance(points[0], points[i]);
      max_anchor = std::max(max_anchor, d);
      if (d > 0.0) min_anchor = std::min(min_anchor, d);
    }
    if (max_anchor == 0.0) return candidates;  // all points coincide
    if (!std::isfinite(min_anchor)) min_anchor = max_anchor;
    double r = min_anchor / 4.0;
    const double top = 2.0 * max_anchor;
    while (r < top) {
      candidates.push_back(r);
      r *= options.ladder_factor;
    }
    candidates.push_back(top);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

// Binary search for the smallest feasible candidate. `centers` always holds
// the answer of the smallest radius found feasible so far.
Result<FairCenterSolution> SearchRadius(const Metric& metric,
                                        const std::vector<Point>& points,
                                        const ColorConstraint& constraint,
                                        const std::vector<double>& candidates) {
  FairCenterSolution solution;
  if (!TryRadiusFair(metric, points, constraint, candidates.back(),
                     &solution.centers)) {
    return Status::Infeasible("no independent center set covers the input");
  }
  size_t lo = 0;
  size_t hi = candidates.size() - 1;  // known feasible
  std::vector<Point> attempt;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (TryRadiusFair(metric, points, constraint, candidates[mid], &attempt)) {
      hi = mid;
      solution.centers.swap(attempt);
    } else {
      lo = mid + 1;
    }
  }
  solution.radius = ClusteringRadius(metric, points, solution.centers);
  return solution;
}

}  // namespace

Result<FairCenterSolution> ChenMatroidCenter::Solve(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint) const {
  if (points.empty()) return FairCenterSolution{};
  FKC_RETURN_IF_ERROR(constraint.CheckSolverInput(points));
  if (constraint.TotalK() <= 0) {
    return Status::Infeasible("all color caps are zero");
  }
  const std::vector<double> candidates =
      CandidateRadii(metric, points, options_);
  return SearchRadius(metric, points, constraint, candidates);
}

}  // namespace fkc
