#include "sequential/jones_fair_center.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "matching/capacitated_matching.h"
#include "sequential/gonzalez.h"

namespace fkc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// What the solve knows of the heads the traversal has selected so far: each
// head's insertion distance and, filled from the distance rows Gonzalez
// computes anyway, its distance to the nearest point of each color and that
// point's index (head h, color c at h * ell + c).
struct HeadTable {
  int ell = 0;
  std::vector<double> insertion;  // delta_h; +inf for head 0
  std::vector<double> nearest_distance;
  std::vector<int> nearest_index;

  size_t heads() const { return insertion.size(); }
};

// Radius tests on a HeadTable: does the prefix of heads with insertion
// distance > 2*rho match to color slots with balls of radius rho? The
// buffers Feasible uses are kept across tests.
class RadiusTester {
 public:
  RadiusTester(const HeadTable& table, const ColorConstraint& constraint)
      : table_(table),
        constraint_(constraint),
        load_(constraint.ell()),
        visited_(constraint.ell()) {}

  // Feasibility alone, by augmenting paths over the colors' capacities:
  // each head first takes a color within rho that has spare capacity (a
  // greedy assignment, which usually covers the prefix), and only when
  // none has does it search for a chain of heads to move. Exact, and it
  // builds no graph, so the per-head tests of the stop rule stay cheap on
  // small pools.
  bool Feasible(double rho) {
    const size_t prefix = Prefix(rho);
    assigned_.assign(prefix, -1);
    std::fill(load_.begin(), load_.end(), 0);
    for (size_t h = 0; h < prefix; ++h) {
      std::fill(visited_.begin(), visited_.end(), false);
      if (!Augment(h, rho)) return false;
    }
    return true;
  }

  // The pool index of each prefix head's center at a feasible rho, in head
  // order: the nearest point of the color MaximumCapacitatedMatching
  // assigns the head.
  std::vector<int> Centers(double rho) const {
    const size_t prefix = Prefix(rho);
    std::vector<std::vector<int>> allowed(prefix);
    for (size_t h = 0; h < prefix; ++h) {
      for (int c = 0; c < table_.ell; ++c) {
        if (Allowed(h, c, rho)) allowed[h].push_back(c);
      }
    }
    const CapacitatedMatchingResult matching =
        MaximumCapacitatedMatching(allowed, constraint_);
    FKC_CHECK(matching.Saturates(static_cast<int>(prefix)));
    std::vector<int> centers;
    for (size_t h = 0; h < prefix; ++h) {
      const int point_index =
          table_.nearest_index[h * table_.ell + matching.assigned_color[h]];
      FKC_CHECK_GE(point_index, 0);
      centers.push_back(point_index);
    }
    return centers;
  }

 private:
  // Maximal prefix with delta_h > 2*rho; delta_0 = +inf, so the prefix is
  // empty only where 2*rho overflows.
  size_t Prefix(double rho) const {
    size_t prefix = 0;
    while (prefix < table_.heads() &&
           table_.insertion[prefix] > 2.0 * rho) {
      ++prefix;
    }
    return prefix;
  }

  bool Allowed(size_t h, int c, double rho) const {
    return constraint_.cap(c) > 0 &&
           table_.nearest_distance[h * table_.ell + c] <= rho;
  }

  // Assigns head h a color: one within rho that has spare capacity, else
  // one whose slot a head already on it gives up by moving, in turn, to a
  // color not yet visited in this search. Colors are visited only when
  // full, and a failed search changes nothing.
  bool Augment(size_t h, double rho) {
    for (int c = 0; c < table_.ell; ++c) {
      if (load_[c] < constraint_.cap(c) && Allowed(h, c, rho)) {
        assigned_[h] = c;
        ++load_[c];
        return true;
      }
    }
    for (int c = 0; c < table_.ell; ++c) {
      if (visited_[c] || !Allowed(h, c, rho)) continue;
      visited_[c] = true;
      for (size_t g = 0; g < assigned_.size(); ++g) {
        if (assigned_[g] == c && Augment(g, rho)) {
          assigned_[h] = c;
          return true;
        }
      }
    }
    return false;
  }

  const HeadTable& table_;
  const ColorConstraint& constraint_;
  std::vector<int> assigned_;  // per prefix head: its color, or -1
  std::vector<int> load_;      // per color: heads assigned to it
  std::vector<char> visited_;  // per color: reached in this search
};

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

  // Gonzalez scans the pool once per head into rows the solve keeps (a
  // float32 shadow's, within gonzalez.row_error, on a large pool), and its
  // head pass over each row fills the head's color table; the final radius
  // is the traversal's when the centers are a prefix of the heads, and
  // reads the rows again for the centers that are heads otherwise.
  const size_t heads_wanted = std::min(static_cast<size_t>(k), pool.size());
  const size_t stride = pool.slot_count();
  const std::unique_ptr<double[]> rows(new double[heads_wanted * stride]);
  HeadTable table;
  table.ell = ell;
  table.nearest_distance.reserve(heads_wanted * ell);
  table.nearest_index.reserve(heads_wanted * ell);
  RadiusTester tester(table, constraint);

  // Candidate radii where feasibility can flip: head-to-color distances and
  // prefix breakpoints delta_h / 2 (and 0, for the degenerate exact case),
  // collected head by head. `top` is the largest of them.
  std::vector<double> candidates = {0.0};
  candidates.reserve(1 + heads_wanted * (ell + 1));
  double top = 0.0;
  const auto add_candidate = [&](double rho) {
    candidates.push_back(rho);
    top = std::max(top, rho);
  };
  // Set when the traversal stops early: every radius <= `stop_radius` is
  // infeasible, and the answer lies among the candidates above it.
  double stop_radius = -1.0;
  double insertion = kInf;
  const GonzalezResult gonzalez = GonzalezKCenter(
      metric, pool, k, /*first_index=*/0,
      [&](const GonzalezHead& head) {
        table.insertion.push_back(insertion);
        if (std::isfinite(insertion)) add_candidate(insertion / 2.0);
        insertion = head.next_distance;
        table.nearest_distance.insert(table.nearest_distance.end(),
                                      head.color_distance,
                                      head.color_distance + ell);
        table.nearest_index.insert(table.nearest_index.end(),
                                   head.color_index, head.color_index + ell);
        for (int c = 0; c < ell; ++c) {
          if (std::isfinite(head.color_distance[c])) {
            add_candidate(head.color_distance[c]);
          }
        }

        // The stop rule (see the header): with the next head's insertion
        // distance delta known, stop once delta/2 is infeasible and the
        // largest candidate so far is feasible.
        if (table.heads() == heads_wanted) return true;
        const double half = head.next_distance / 2.0;
        if (!(half >= std::numeric_limits<double>::min()) ||
            tester.Feasible(half) || !tester.Feasible(top)) {
          return true;
        }
        stop_radius = half;
        return false;
      },
      rows.get(), ell);

  // Feasibility is monotone in rho: binary search for the smallest feasible
  // candidate. A full traversal first checks that the largest one is.
  if (stop_radius >= 0.0) {
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&](double rho) { return rho <= stop_radius; }),
        candidates.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (stop_radius < 0.0 && !tester.Feasible(candidates.back())) {
    return Status::Infeasible(
        "no head can be matched to any color with spare capacity");
  }
  size_t lo = 0;
  size_t hi = candidates.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (tester.Feasible(candidates[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::vector<int> centers = tester.Centers(candidates[lo]);

  FairCenterSolution solution;
  solution.centers.reserve(centers.size());
  for (int index : centers) solution.centers.push_back(pool.At(index));
  solution.shadow_rows = gonzalez.shadow_rows;
  solution.resolved_pairs = gonzalez.resolved_pairs;

  // The final radius. Centers that are, as a set, the first p heads have
  // the traversal's own: every point's distance to them is the fold of
  // those heads' rows, whose farthest point is head p's insertion distance
  // (the coverage radius when p is every head), resolved exactly.
  std::vector<int> sorted = centers;
  std::sort(sorted.begin(), sorted.end());
  const size_t p = centers.size();
  if (p <= gonzalez.head_indices.size()) {
    std::vector<int> prefix(gonzalez.head_indices.begin(),
                            gonzalez.head_indices.begin() + p);
    std::sort(prefix.begin(), prefix.end());
    if (prefix == sorted) {
      solution.radius = p < gonzalez.head_indices.size()
                            ? gonzalez.insertion_distances[p]
                            : gonzalez.coverage_radius;
      return solution;
    }
  }
  // Otherwise a center that is a head reuses its kept row, and the others
  // get one DistanceRows tile.
  std::vector<const double*> center_rows(centers.size(), nullptr);
  std::vector<Point> others;
  for (size_t c = 0; c < centers.size(); ++c) {
    const auto head = std::find(gonzalez.head_indices.begin(),
                                gonzalez.head_indices.end(), centers[c]);
    if (head != gonzalez.head_indices.end()) {
      center_rows[c] = rows.get() + (head - gonzalez.head_indices.begin()) *
                                        stride;
    } else {
      others.push_back(solution.centers[c]);
    }
  }
  std::vector<double> tile(others.size() * stride);
  if (!others.empty()) pool.DistanceRows(metric, others, tile.data());
  for (size_t c = 0, o = 0; c < centers.size(); ++c) {
    if (center_rows[c] == nullptr) center_rows[c] = tile.data() + o++ * stride;
  }
  solution.radius =
      ResolvedClusteringRadius(metric, pool, solution.centers, center_rows,
                               gonzalez.row_error, &solution.resolved_pairs);
  return solution;
}

}  // namespace fkc
