// Vectorized distance kernels over the dim-major CoordinatePool layout,
// with runtime CPU dispatch.
//
// Kernel contract — bit-identical lane-per-pair accumulation:
//   out[i] = metric(query, column i of `data`) for i in [0, count), where
//   `data` is a dim-major matrix (row d starts at data + d * stride) and
//   every row is readable (not meaningful) up to RoundUpToLanes(count)
//   doubles. Kernels store only the count live lanes. A CoordinatePool is
//   scanned one block at a time: each block's live span ends at least one
//   lane width before the end of its row (the row slack), so the contract
//   holds wherever in the block the span starts.
//
// Each SIMD lane owns exactly one (query, point) pair and accumulates that
// pair's terms over dimensions in ascending order — the same per-pair
// summation order as the scalar loop. Vector width therefore changes only
// *which pairs run together*, never any pair's rounding, so scalar, AVX2,
// and AVX-512 kernels return bit-identical doubles (verified by
// tests/simd_kernel_test.cc). The kernel translation units are compiled
// with FP contraction off: a fused multiply-add would skip the
// intermediate rounding of the scalar `sum += diff * diff`.
//
// Bounded scans (the *_within kernels) serve callers that only need to know
// which pairs lie within `bound`: out[i] is the exact distance wherever
// d <= bound, and !(out[i] <= bound) everywhere else. The caller turns the
// bound into a cutoff once per scan, and the kernel abandons a lane block
// once every live lane's running partial (sum of squares, sum of absolute
// differences, or running max) is at or past the cutoff, testing every
// kBoundCheckDims dimensions:
//   - Euclidean: the smallest double s with fl(sqrt(s)) > bound;
//   - Manhattan, Chebyshev: the smallest double past bound.
// This is exact, not a heuristic. Every term is non-negative, and under
// round-to-nearest fl(a + t) >= a for t >= 0 (max never decreases either),
// so a partial never decreases along the dimensions; and fl(sqrt) is
// monotone. A lane at or past the cutoff therefore ends past `bound`, and
// so does the value stored for it. Lanes of a block that is not abandoned
// run to the last dimension, so every in-range lane is bit-identical to the
// exact kernel. A NaN partial is never past the cutoff, and a bound of
// +inf or NaN gives a NaN cutoff, so those scans run to completion. The
// exact kernels are the same bodies with the check compiled out.
//
// Tile scans (the *_tile kernels) score several queries against one block:
// out[r * out_stride + i] = metric(queries[r], column i). A pass over a
// covtype coreset (~9,900 points, d = 54) streams ~4.3 MB, more than L2, so
// one pass per query is bound by memory traffic. A tile kernel loads each
// lane chunk of a block row once and applies it to up to tile_rows queries
// held in registers (8 on AVX-512, 4 on AVX2, a constant of the set); a
// call with more rows runs them tile after tile over the same block, which
// is still in cache. Each lane still owns one (query, point) pair and
// accumulates its terms in ascending dimension order with the same
// operations, so every distance is bit-identical to the single-row kernel
// of any width. The same row slack contract holds.
//
// Shadow kernels serve the float32 twin of a pool (coordinate_pool.h,
// read as shadow rows by shadow_pool.h). A shadow kernel scores a float
// query against float columns with the same per-metric terms, in float
// arithmetic: each lane owns one pair and accumulates its terms in
// ascending dimension order, and the float result is widened into the
// double out[i]. So every width gives the same bits here too. Float rows
// are readable (not meaningful) up to RoundUpToShadowLanes(count) floats,
// the widest set's float vector.
//
// Twin rows (the twin_row kernel) write a pool's float32 twin
// (coordinate_pool.h): the float of each coordinate's difference to the
// twin's reference, or 0 where that difference is NaN or outside float's
// range (every width masks it the same way, so each conversion is defined
// and the floats do not depend on the width), and the largest |difference|
// (+inf when one is NaN). A maximum is exact, so it too is the same at
// every width. They read and write only the count live lanes.
//
// Head passes (the head_pass kernel) do the bookkeeping of one Gonzalez
// head over the distance row DistanceRow filled for it (gonzalez.h); no
// metric is involved, and the pass reads each slot once. For every slot s
// in [0, count), in any order:
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
//
// One binary runs everywhere: only the AVX2/AVX-512 translation units are
// built with -mavx2/-mavx512f, and ActiveKernels() selects the widest
// variant the running CPU reports (cpuid via __builtin_cpu_supports),
// falling back to the always-present scalar set on non-x86 builds.
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

/// One exact, one bounded, one tile and one shadow kernel per built-in
/// metric, the head pass and the twin row, all of one vector width.
struct KernelSet {
  const char* name;  ///< "scalar", "avx2", "avx512"
  size_t lanes;      ///< pairs processed per vector
  size_t tile_rows;  ///< queries a tile kernel holds at once (<= kMaxTileRows)
  DistanceKernel euclidean;
  DistanceKernel manhattan;
  DistanceKernel chebyshev;
  BoundedDistanceKernel euclidean_within;
  BoundedDistanceKernel manhattan_within;
  BoundedDistanceKernel chebyshev_within;
  TileKernel euclidean_tile;
  TileKernel manhattan_tile;
  TileKernel chebyshev_tile;
  ShadowKernel euclidean_shadow;
  ShadowKernel manhattan_shadow;
  ShadowKernel chebyshev_shadow;
  HeadPassKernel head_pass;
  TwinRowKernel twin_row;
};

/// Cutoff of a Euclidean bounded scan: the smallest double s with
/// fl(sqrt(s)) > bound (0 for a negative bound; NaN for +inf or NaN).
double SquaredDistanceCutoff(double bound);

/// Cutoff of a Manhattan or Chebyshev bounded scan: the smallest double past
/// bound (NaN for +inf or NaN).
double DistanceCutoff(double bound);

/// A bounded kernel tests its block against the cutoff after every
/// kBoundCheckDims-th dimension, except the last (the block ends there
/// anyway). Each abandoned block costs one mispredicted branch, so a test
/// per dimension would cost more than the few dimensions it saves.
constexpr size_t kBoundCheckDims = 4;

/// True when a bounded kernel tests its block after dimension d of dim.
constexpr bool IsBoundCheckDim(size_t d, size_t dim) {
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
