// Vectorized distance kernels over the dim-major CoordinatePool layout,
// with runtime CPU dispatch.
//
// Layout of the code. A KernelSet holds every kernel of one vector width:
// one row per norm (norm[], indexed by Norm) of exact, bounded, tile and
// shadow scans, so a built-in metric (NormMetric, metric.h) reads the row
// of its Norm; and the head pass and twin row. The scalar set
// (simd_kernels_scalar.cc) is the reference every width is tested
// against. The AVX2 and AVX-512 sets share one body per kernel family
// (simd_kernels_vector.h), templated on a lane-ops struct that spells the
// family's vector operations in one ISA's intrinsics and fixes its unroll
// shapes; each ISA file holds only that struct, in an anonymous namespace,
// and its set. So every instantiation of a body has internal linkage, and
// the linker never merges one ISA's body into the other's set
// (tools/check_kernel_symbols.py checks what each ISA object exports).
// Only the ISA files are built with -mavx2/-mavx512f, and ActiveKernels()
// picks the widest set the running CPU reports (cpuid), so one binary runs
// everywhere; non-x86 builds have the scalar set only.
//
// Kernel contract — bit-identical lane-per-pair accumulation:
//   out[i] = metric(query, column i of `data`) for i in [0, count), where
//   `data` is a dim-major matrix (row d starts at data + d * stride) and
//   every row is readable (not meaningful) up to RoundUpToLanes(count)
//   doubles. Kernels store only the count live lanes. A CoordinatePool is
//   scanned one block at a time: each block's live span ends at least one
//   lane width before the end of its row (the row slack), so the contract
//   holds wherever in the block the span starts.
// Each SIMD lane owns exactly one (query, point) pair and accumulates that
// pair's terms over dimensions in ascending order, as the scalar loop
// does. Vector width therefore changes only *which pairs run together*,
// never any pair's rounding, so every width returns bit-identical doubles
// (tests/simd_kernel_test.cc). The kernel files are compiled with FP
// contraction off: a fused multiply-add would skip the intermediate
// rounding of the scalar `sum += diff * diff`.
//
// Bounded scans (`within`) serve callers that only need the pairs within
// `bound`: out[i] is the exact distance wherever d <= bound, and
// !(out[i] <= bound) everywhere else. The caller turns the bound into a
// cutoff once per scan (CutoffOf): for Euclidean the smallest double s
// with fl(sqrt(s)) > bound, otherwise the smallest double past bound. The
// kernel abandons a lane block once every live lane's running partial
// (sum of squares, sum of absolute differences, or max) is at or past the
// cutoff, testing every kBoundCheckDims dimensions. This is exact: every
// term is non-negative, and under round-to-nearest fl(a + t) >= a for
// t >= 0 (max never decreases either), and fl(sqrt) is monotone, so a lane
// at or past the cutoff ends past `bound`, and so does its stored value.
// Lanes of a block that is not abandoned run to the last dimension, so
// every in-range lane is bit-identical to the exact kernel. A NaN partial
// is never past the cutoff, and a bound of +inf or NaN gives a NaN cutoff,
// so those scans run to completion. The exact kernels are the same bodies
// with the check compiled out.
//
// Tile scans (`tile`) score several queries against one block:
// out[r * out_stride + i] = metric(queries[r], column i). A pass over a
// covtype coreset (~9,900 points, d = 54) streams ~4.3 MB, more than L2,
// so one pass per query is bound by memory traffic. A tile kernel loads
// each lane chunk of a block row once for up to tile_rows queries held in
// registers; a call with more rows runs them tile after tile over the
// same block, still in cache. Each lane still owns one pair with the same
// operations in the same order, so every distance is bit-identical to the
// single-row kernel of any width. The same row slack contract holds.
//
// Shadow scans (`shadow`) score a float query against the float columns
// of a pool's float32 twin (coordinate_pool.h, read by shadow_pool.h) with
// the same terms in float arithmetic, one pair per lane in ascending
// dimension order, and widen each result into the double out[i]: the same
// bits at every width. Float rows are readable up to
// RoundUpToShadowLanes(count) floats, the widest set's float vector.
//
// Twin rows (twin_row) write a pool's twin: the float of each
// coordinate's difference to the twin's reference, or 0 where that
// difference is NaN or outside float's range (every width masks it so, so
// each conversion is defined), and the largest |difference| (+inf when one
// is NaN), exact and so the same at every width. They read and write only
// the count live lanes.
//
// Head passes (head_pass) do the bookkeeping of one Gonzalez head over the
// distance row DistanceRow filled for it (gonzalez.h), reading each slot
// once. For every slot s in [0, count), in any order:
//   - nearest[s] = row[s] < nearest[s] ? row[s] : nearest[s], the fold of
//     the row into the distances to the heads so far (a select, so a NaN
//     row entry leaves nearest[s] as it was);
//   - the farthest point is the largest folded nearest[s] above 0, ties to
//     the lowest position[s]; NaN never wins, and neither does a slot that
//     is no point of the set, since the caller holds -inf there;
//   - with a color column, each color keeps its nearest point: color[s] is
//     an index into color_distance / color_index, and (row[s], position[s])
//     replaces entry c = color[s] when row[s] < color_distance[c], or when
//     they are equal and position[s] < color_index[c]. The caller fills
//     entry c with (+inf, -1) for each of its ell colors, so an entry ends
//     as its color's smallest distance at the lowest position (NaN and +inf
//     never enter), and entry ell with (-inf, -1), the sentinel its
//     non-member slots point at: nothing replaces it.
// Both rules pick a minimum of (distance, position) pairs, so the answer
// does not depend on which slots run together: every width returns the
// same bits. A vector pass tests each lane against its own color's entry
// (one gather per vector) with row[s] <= entry, and only the rare lanes
// that pass run the exact update, one at a time in slot order.
#ifndef FKC_METRIC_SIMD_KERNELS_H_
#define FKC_METRIC_SIMD_KERNELS_H_

#include <cstddef>
#include <vector>

#include "metric/coordinate_pool.h"

namespace fkc {
namespace simd {

/// out[i] = distance(query, data column i); see the file comment for the
/// layout and padding contract.
using DistanceKernel = void (*)(const double* query, const double* data,
                                size_t stride, size_t dim, size_t count,
                                double* out);

/// Bounded scan: out[i] is exact wherever the distance is <= bound, and
/// !(out[i] <= bound) elsewhere, given the bound's `cutoff`
/// (SquaredDistanceCutoff for Euclidean, DistanceCutoff otherwise); see the
/// file comment.
using BoundedDistanceKernel = void (*)(const double* query, const double* data,
                                       size_t stride, size_t dim, size_t count,
                                       double cutoff, double* out);

/// Tile scan: out[r * out_stride + i] = distance(queries[r], data column i)
/// for every r in [0, rows) and i in [0, count), each bit-identical to the
/// DistanceKernel's; see the file comment. `rows` may exceed the set's
/// tile_rows: the kernel then runs one tile after another over the block.
using TileKernel = void (*)(const double* const* queries, size_t rows,
                            const double* data, size_t stride, size_t dim,
                            size_t count, size_t out_stride, double* out);

/// Shadow scan: out[i] = distance(query, float column i of `data`),
/// computed in float and widened; see the file comment.
using ShadowKernel = void (*)(const float* query, const float* data,
                              size_t stride, size_t dim, size_t count,
                              double* out);

/// The farthest point of a head pass: its folded distance and its
/// position, or {0, -1} when no point lies farther than 0.
struct Farthest {
  double distance;
  int position;
};

/// Head pass over `count` slots: folds `row` into `nearest`, returns the
/// farthest point, and, when `color` is not null, keeps each color's nearest
/// point in color_distance / color_index (ell + 1 entries, the last the
/// (-inf, -1) sentinel); see the file comment. `position` is -1 and
/// nearest[s] -inf at a slot that is no point of the set.
using HeadPassKernel = Farthest (*)(const double* row, const int* position,
                                    const int* color, size_t count,
                                    double* nearest, double* color_distance,
                                    int* color_index);

/// Twin row: twin[i] = float(row[i] - reference), or 0 where that
/// difference is NaN or outside float's range, for i in [0, count);
/// returns the largest of `extent` and every |row[i] - reference|, or +inf
/// when one is NaN. See the file comment.
using TwinRowKernel = double (*)(const double* row, double reference,
                                 size_t count, float* twin, double extent);

/// The most rows any set holds in one tile.
constexpr size_t kMaxTileRows = 8;

/// The norm of a built-in metric: the index of its row in KernelSet::norm.
enum class Norm { kEuclidean, kManhattan, kChebyshev };
constexpr size_t kNormCount = 3;

/// One norm's exact, bounded, tile and shadow kernels.
struct NormKernels {
  DistanceKernel exact;
  BoundedDistanceKernel within;
  TileKernel tile;
  ShadowKernel shadow;
};

/// Every kernel of one vector width: a row of kernels per norm, the head
/// pass and the twin row.
struct KernelSet {
  const char* name;  ///< "scalar", "avx2", "avx512"
  size_t lanes;      ///< pairs processed per vector
  size_t tile_rows;  ///< queries a tile kernel holds at once (<= kMaxTileRows)
  NormKernels norm[kNormCount];  ///< indexed by Norm
  HeadPassKernel head_pass;
  TwinRowKernel twin_row;

  const NormKernels& Of(Norm n) const {
    return norm[static_cast<size_t>(n)];
  }
};

/// Cutoff of a Euclidean bounded scan: the smallest double s with
/// fl(sqrt(s)) > bound (0 for a negative bound; NaN for +inf or NaN).
double SquaredDistanceCutoff(double bound);

/// Cutoff of a Manhattan or Chebyshev bounded scan: the smallest double past
/// bound (NaN for +inf or NaN).
double DistanceCutoff(double bound);

/// The cutoff a bounded kernel of `norm` takes for `bound`.
double CutoffOf(Norm norm, double bound);

/// A bounded kernel tests its block against the cutoff after every
/// kBoundCheckDims-th dimension, except the last (the block ends there
/// anyway). Each abandoned block costs one mispredicted branch, so a test
/// per dimension would cost more than the few dimensions it saves.
constexpr size_t kBoundCheckDims = 4;

/// True when a bounded kernel tests its block after dimension d of dim.
/// Static, so each kernel file keeps its own copy (see
/// simd_kernels_vector.h).
static constexpr bool IsBoundCheckDim(size_t d, size_t dim) {
  return (d + 1) % kBoundCheckDims == 0 && d + 1 < dim;
}

/// One kernel body serves both scans of a metric: `cutoff` is read only when
/// bounded, so the exact instantiation is the plain loop.
template <BoundedDistanceKernel kBody>
void ExactScan(const double* query, const double* data, size_t stride,
               size_t dim, size_t count, double* out) {
  kBody(query, data, stride, dim, count, 0.0, out);
}

/// Rows must be readable (not meaningful) up to this many doubles.
constexpr size_t RoundUpToLanes(size_t count) {
  return (count + CoordinatePool::kLaneAlign - 1) / CoordinatePool::kLaneAlign *
         CoordinatePool::kLaneAlign;
}

/// Shadow rows must be readable (not meaningful) up to this many floats:
/// whole vectors of the widest width (AVX-512), the twin's row slack.
constexpr size_t RoundUpToShadowLanes(size_t count) {
  constexpr size_t kFloats = CoordinatePool::kTwinLanes;
  return (count + kFloats - 1) / kFloats * kFloats;
}

/// The portable reference kernels; always available.
const KernelSet& ScalarKernels();

namespace internal {
// The head pass's two update rules, one candidate at a time: the scalar
// pass applies them to every slot, the vector passes to their lane
// results and to the rare lanes that pass the color filter. Defined with
// the scalar kernels, so they are built for the baseline target.

/// Replaces `*best` with `candidate` when it is farther, or as far at a
/// lower position.
void KeepFarthest(Farthest candidate, Farthest* best);

/// Replaces slot s's color entry with (row[s], position[s]) when that is
/// nearer, or as near at a lower position.
void KeepNearestColor(const double* row, const int* position,
                      const int* color, size_t s, double* color_distance,
                      int* color_index);
}  // namespace internal

/// Every kernel set compiled into this binary, scalar first. Sets beyond
/// what the running CPU supports are included (for enumeration) — check
/// CpuSupports before calling one.
std::vector<const KernelSet*> CompiledKernelSets();

/// True when the running CPU can execute `set`.
bool CpuSupports(const KernelSet& set);

/// The widest compiled set the running CPU supports. The FKC_SIMD
/// environment variable ("scalar", "avx2", "avx512") caps or forces the
/// choice (unsupported requests fall back to the widest supported set);
/// read once at first call.
const KernelSet& ActiveKernels();

}  // namespace simd
}  // namespace fkc

#endif  // FKC_METRIC_SIMD_KERNELS_H_
