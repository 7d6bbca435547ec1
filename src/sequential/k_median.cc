#include "sequential/k_median.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/logging.h"
#include "metric/colored_pool.h"
#include "sequential/gonzalez.h"

namespace fkc {
namespace {

// Assignment state of the current medoid set: for every point its nearest
// medoid (lowest index on ties), that distance, and the runner-up distance
// (the cost of losing the nearest medoid — what single-swap evaluation
// needs to price a removal in O(1) per point).
struct Assignment {
  std::vector<int> nearest;        // medoid INDEX INTO `centers`, not point
  std::vector<double> d_nearest;
  std::vector<double> d_second;
  double cost = 0.0;
};

Assignment Assign(const std::vector<double>& dist, size_t n,
                  const std::vector<int>& centers) {
  Assignment out;
  out.nearest.assign(n, 0);
  out.d_nearest.assign(n, 0.0);
  out.d_second.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    double second = std::numeric_limits<double>::infinity();
    int best_at = 0;
    for (size_t c = 0; c < centers.size(); ++c) {
      const double d = dist[i * n + static_cast<size_t>(centers[c])];
      if (d < best) {
        second = best;
        best = d;
        best_at = static_cast<int>(c);
      } else if (d < second) {
        second = d;
      }
    }
    out.nearest[i] = best_at;
    out.d_nearest[i] = best;
    out.d_second[i] = second;
    out.cost += best;
  }
  return out;
}

}  // namespace

KMedianSolution KMedianLocalSearch(const Metric& metric,
                                   const std::vector<Point>& points, int k,
                                   const KMedianOptions& options) {
  KMedianSolution solution;
  if (points.empty()) return solution;
  FKC_CHECK_GT(k, 0) << "k-median needs at least one center";
  const size_t n = points.size();
  const size_t kk = std::min<size_t>(static_cast<size_t>(k), n);

  // Full pairwise distances through the SoA kernels: one bulk-built pool,
  // then every point's distance row from one DistanceRows, which reads the
  // pool once per tile of rows (bit-identical to per-pair Distance by the
  // kernel contract, so the solver is deterministic at any width). A
  // FromPoints pool's slot i is point i.
  const ColoredPool pool = ColoredPool::FromPoints(points);
  std::vector<double> dist(n * n);
  pool.DistanceRows(metric, points, dist.data());

  // Gonzalez seeds: spread-out medoids make the local search start near a
  // good max-distance cover, which is also a decent sum-distance start.
  const GonzalezResult seeds =
      GonzalezKCenter(metric, pool, static_cast<int>(kk));
  std::vector<int> centers(seeds.head_indices.begin(),
                           seeds.head_indices.end());
  std::sort(centers.begin(), centers.end());
  Assignment assignment = Assign(dist, n, centers);

  const int max_rounds =
      options.max_rounds > 0 ? options.max_rounds
                             : 2 * static_cast<int>(kk) + 8;
  std::vector<char> is_center(n, 0);
  for (int c : centers) is_center[static_cast<size_t>(c)] = 1;
  for (int round = 0; round < max_rounds; ++round) {
    // Best-improvement single swap: evaluate every (center out, point in)
    // pair against the current assignment; removal of a point's nearest
    // medoid costs d_second, any other removal keeps d_nearest, and the
    // incoming medoid caps both at dist[i][in].
    double best_cost = assignment.cost;
    int best_out = -1;
    int best_in = -1;
    for (size_t c = 0; c < centers.size(); ++c) {
      for (size_t in = 0; in < n; ++in) {
        if (is_center[in]) continue;
        double cost = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double keep = assignment.nearest[i] == static_cast<int>(c)
                                  ? assignment.d_second[i]
                                  : assignment.d_nearest[i];
          cost += std::min(keep, dist[i * n + in]);
        }
        // Strict improvement with lowest (outgoing, incoming) tie-break:
        // scanning in ascending order and requiring `<` makes the chosen
        // swap independent of floating-point ties' scan order.
        if (cost < best_cost) {
          best_cost = cost;
          best_out = static_cast<int>(c);
          best_in = static_cast<int>(in);
        }
      }
    }
    if (best_out < 0) break;  // local optimum
    is_center[static_cast<size_t>(centers[best_out])] = 0;
    is_center[static_cast<size_t>(best_in)] = 1;
    centers[static_cast<size_t>(best_out)] = best_in;
    std::sort(centers.begin(), centers.end());
    assignment = Assign(dist, n, centers);
  }

  solution.centers.reserve(centers.size());
  for (int c : centers) solution.centers.push_back(points[static_cast<size_t>(c)]);
  solution.cost = assignment.cost;
  return solution;
}

}  // namespace fkc
