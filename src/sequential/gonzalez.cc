#include "sequential/gonzalez.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "metric/shadow_pool.h"
#include "metric/simd_kernels.h"

namespace fkc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Resolves the decisions of a head pass over a shadow row exactly
// (gonzalez.h): the candidates of each decision are the slots within twice
// the shadow's error of its shadow answer, and Metric::Distance decides
// among them under the head pass's own rules.
class Resolver {
 public:
  Resolver(const Metric& metric, const ColoredPool& pool, int ell)
      : metric_(metric),
        pool_(pool),
        ell_(ell),
        bound_(ell + 1),
        count_(ell) {
    point_.coords.resize(pool.dim());
  }

  int64_t pairs() const { return pairs_; }

  // Head j's pass over its shadow row left `farthest` and the color table;
  // `heads` holds heads 0..j. Replaces both with the exact rows' answers,
  // writing each resolved point's exact distance into `nearest` and `row`.
  // False, with the answers unusable, when a decision has more than
  // ShadowPool::kMaxCandidates candidates.
  bool Resolve(const std::vector<Point>& heads, double error, double* row,
               double* nearest, const int* position, const int* color,
               size_t stride, simd::Farthest* farthest,
               double* color_distance, int* color_index) {
    const double margin = 2.0 * error;
    const double far_bound = farthest->distance - margin;
    if (ell_ > 0) {
      // A color with no member keeps its (+inf, -1) entry: no candidates.
      for (int c = 0; c < ell_; ++c) {
        bound_[c] = color_distance[c] < kInf ? color_distance[c] + margin
                                             : -kInf;
      }
      bound_[ell_] = -kInf;  // the sentinel of slots that are no point
      std::fill(count_.begin(), count_.end(), size_t{0});
    }
    // At most kMaxCandidates per decision, so more than that many per
    // decision on average is already too many.
    const size_t limit = ShadowPool::kMaxCandidates * (ell_ + 1);
    candidates_.resize(limit);
    const size_t found = ShadowPool::Candidates(
        row, nearest, ell_ > 0 ? color : nullptr, bound_.data(), stride,
        far_bound, limit, candidates_.data());
    if (found > limit) return false;
    far_.clear();
    near_.clear();
    for (size_t c = 0; c < found; ++c) {
      const size_t s = candidates_[c];
      if (nearest[s] >= far_bound) {
        if (far_.size() == ShadowPool::kMaxCandidates) return false;
        far_.push_back(s);
      }
      if (ell_ > 0 && row[s] <= bound_[color[s]]) {
        if (count_[color[s]]++ == ShadowPool::kMaxCandidates) return false;
        near_.push_back(s);
      }
    }
    *farthest = ShadowPool::ResolveFarthest(metric_, pool_, heads, position,
                                            far_.data(), far_.size(), nearest,
                                            &pairs_);
    if (ell_ > 0) {
      std::fill(color_distance, color_distance + ell_, kInf);
      std::fill(color_index, color_index + ell_, -1);
      for (size_t s : near_) {
        pool_.CopyCoordinates(static_cast<size_t>(position[s]),
                              point_.coords.data());
        ++pairs_;
        row[s] = metric_.Distance(heads.back(), point_);
        simd::internal::KeepNearestColor(row, position, color, s,
                                         color_distance, color_index);
      }
    }
    return true;
  }

 private:
  const Metric& metric_;
  const ColoredPool& pool_;
  const int ell_;
  Point point_;                 // the color candidate being resolved
  std::vector<double> bound_;   // per color (and the sentinel): its bound
  std::vector<size_t> count_;   // per color: its candidates
  std::vector<size_t> candidates_;  // the candidate scan's slots
  std::vector<size_t> far_;     // slots that may be the farthest point
  std::vector<size_t> near_;    // slots that may be their color's nearest
  int64_t pairs_ = 0;
};

}  // namespace

GonzalezResult GonzalezKCenter(const Metric& metric, const ColoredPool& pool,
                               int k, int first_index,
                               const GonzalezHeadFn& on_head, double* rows,
                               int ell) {
  GonzalezResult result;
  if (pool.empty() || k <= 0) return result;
  FKC_CHECK_GE(first_index, 0);
  FKC_CHECK_LT(first_index, static_cast<int>(pool.size()));
  FKC_CHECK_GE(ell, 0);

  const int n = static_cast<int>(pool.size());
  const int heads_wanted = std::min(k, n);
  const size_t stride = pool.slot_count();

  // Per slot: the distance from its point to the current head set, the
  // point's position and its color. A slot that holds no point of the set
  // has -inf, position -1 and color `ell`, the table's sentinel entry.
  std::vector<double> nearest(stride);
  std::vector<int> position(stride, -1);
  std::vector<int> color(ell > 0 ? stride : 0, ell);
  for (int i = 0; i < n; ++i) {
    position[pool.slot(i)] = i;
    if (ell > 0) {
      FKC_CHECK(pool.color(i) >= 0 && pool.color(i) < ell)
          << "color " << pool.color(i) << " outside [0, " << ell << ")";
      color[pool.slot(i)] = pool.color(i);
    }
  }
  std::vector<double> color_distance(ell + 1);
  std::vector<int> color_index(ell + 1);
  std::vector<double> own_row(rows == nullptr ? stride : 0);
  const simd::HeadPassKernel head_pass = simd::ActiveKernels().head_pass;
  std::optional<ShadowPool> shadow = ShadowPool::Create(metric, pool);
  bool on_shadow = shadow.has_value();
  std::optional<Resolver> resolver;
  if (on_shadow) resolver.emplace(metric, pool, ell);
  std::vector<Point> heads;  // the shadow's heads so far, for the resolver
  int delivered = 0;         // heads `on_head` has seen

  // One traversal from head 0; false when a shadow resolution gives up, so
  // the caller runs it again on exact rows.
  const auto traverse = [&]() -> bool {
    std::fill(nearest.begin(), nearest.end(), -kInf);
    for (int i = 0; i < n; ++i) nearest[pool.slot(i)] = kInf;
    heads.clear();
    int next_head = first_index;
    double next_distance = kInf;
    for (int j = 0; j < heads_wanted; ++j) {
      if (j < static_cast<int>(result.head_indices.size())) {
        // A replay on exact rows: the shadow resolved these heads exactly.
        FKC_CHECK_EQ(result.head_indices[j], next_head);
      } else {
        result.head_indices.push_back(next_head);
        result.insertion_distances.push_back(next_distance);
      }
      Point head = pool.At(next_head);
      double* const row = rows != nullptr ? rows + j * stride : own_row.data();
      const ScanOrder order =
          j % 2 == 0 ? ScanOrder::kForward : ScanOrder::kBackward;
      if (on_shadow) {
        shadow->Row(pool.slot(next_head), order, row);
        ++result.shadow_rows;
        heads.push_back(std::move(head));
      } else {
        pool.DistanceRow(metric, head, row, order);
      }
      std::fill(color_distance.begin(), color_distance.end() - 1, kInf);
      std::fill(color_index.begin(), color_index.end(), -1);
      color_distance.back() = -kInf;
      simd::Farthest farthest =
          head_pass(row, position.data(), ell > 0 ? color.data() : nullptr,
                    stride, nearest.data(), color_distance.data(),
                    color_index.data());
      if (on_shadow &&
          !resolver->Resolve(heads, shadow->error(), row, nearest.data(),
                             position.data(), color.data(), stride, &farthest,
                             color_distance.data(), color_index.data())) {
        return false;
      }
      next_distance = farthest.distance;
      next_head = farthest.position;
      if (j >= delivered) {
        ++delivered;
        if (on_head && !on_head({next_distance, color_distance.data(),
                                 color_index.data()})) {
          break;
        }
      }
      if (next_head == -1) break;  // all points coincide with the heads
    }
    result.coverage_radius = next_distance;
    return true;
  };
  while (!traverse()) on_shadow = false;

  result.row_error = on_shadow ? shadow->error() : 0.0;
  result.resolved_pairs = resolver ? resolver->pairs() : 0;
  return result;
}

GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points, int k,
                               int first_index) {
  return GonzalezKCenter(metric, ColoredPool::FromPoints(points), k,
                         first_index);
}

std::vector<Point> HeadPoints(const std::vector<Point>& points,
                              const GonzalezResult& result) {
  std::vector<Point> heads;
  heads.reserve(result.head_indices.size());
  for (int idx : result.head_indices) heads.push_back(points[idx]);
  return heads;
}

}  // namespace fkc
