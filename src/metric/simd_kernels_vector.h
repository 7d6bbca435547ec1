// The kernel bodies the AVX2 and AVX-512 sets share (simd_kernels.h).
// Internal: only simd_kernels_avx2.cc and simd_kernels_avx512.cc include
// it. Each body is a template on `Ops`, the lane-ops struct an ISA file
// defines in an anonymous namespace: its vector types (Double, Float,
// 64-bit Index, the lane bitmask Mask with kAllLanes, the twin row's NaN
// flags Unordered), its width (kLanes, kFloatLanes) and unroll shapes
// (kScanChains, kTileRows, kShadowChains), and its operations, overloaded
// per vector type: Set1, Load, Store, StoreAligned, StoreTail (the low
// `rem` lanes), Sub, Add, Mul, Sqrt, Max, Min, Abs; the lane bitmasks
// PastCutoff and LiveLanes; WidenLow / WidenHigh (a Float's halves as
// Doubles); StoreTwin (the masked float conversion) and NoneUnordered,
// OrUnordered, AnyUnordered; LoadPositions, KeepFarther (the farthest-lane
// select) and NearerColorLanes (the color-entry gather and compare).
//
// A function of external linkage called from here, where a call is not
// inlined (every call at -O0), would be emitted as a weak copy in each
// ISA object, and the linker would keep one for both sets. So the bodies
// call no non-template inline function (IsBoundCheckDim is static) and no
// std:: function template.
#ifndef FKC_METRIC_SIMD_KERNELS_VECTOR_H_
#define FKC_METRIC_SIMD_KERNELS_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "metric/simd_kernels.h"

namespace fkc {
namespace simd {
namespace vec {

// A pair's term for one dimension, from its two coordinates, and its
// final step, on Double lanes (exact kernels) or Float lanes (shadow
// ones). The Chebyshev max returns `best` when equal or unordered, like
// the scalar `if (diff > best) best = diff`.
template <typename Ops, Norm kNorm, typename V>
inline V Step(V acc, V qd, V pts) {
  const V diff = Ops::Sub(qd, pts);
  if constexpr (kNorm == Norm::kEuclidean) {
    return Ops::Add(acc, Ops::Mul(diff, diff));
  } else if constexpr (kNorm == Norm::kManhattan) {
    return Ops::Add(acc, Ops::Abs(diff));
  } else {
    return Ops::Max(Ops::Abs(diff), acc);
  }
}

template <typename Ops, Norm kNorm, typename V>
inline V Finish(V acc) {
  return kNorm == Norm::kEuclidean ? Ops::Sqrt(acc) : acc;
}

// Stores the block's `count - i0` live lanes (all unless it is the tail).
template <typename Ops>
inline void StoreLanes(double* out, size_t i0, size_t count,
                       typename Ops::Double v) {
  if (i0 + Ops::kLanes <= count) {
    Ops::Store(out + i0, v);
  } else {
    Ops::StoreTail(out + i0, count - i0, v);
  }
}

// One query against every column. With kScanChains = 2, two vectors per
// dim pass amortize the query broadcast and keep two independent
// accumulation chains in flight, which matters at high dim where a single
// add chain leaves the FPU idle; the rest runs one vector at a time.
// Unrolling changes which pairs run together, never any pair's rounding.
template <typename Ops, Norm kNorm, bool kBounded>
void Scan(const double* query, const double* data, size_t stride,
          size_t dim, size_t count, double cutoff, double* out) {
  static_assert(Ops::kScanChains == 1 || Ops::kScanChains == 2);
  using D = typename Ops::Double;
  using Mask = typename Ops::Mask;
  constexpr size_t kLanes = Ops::kLanes;
  const D cut = Ops::Set1(cutoff);
  size_t i = 0;
  if constexpr (Ops::kScanChains == 2) {
    for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
      D acc0 = Ops::Set1(0.0);
      D acc1 = Ops::Set1(0.0);
      for (size_t d = 0; d < dim; ++d) {
        const D qd = Ops::Set1(query[d]);
        const double* row = data + d * stride + i;
        acc0 = Step<Ops, kNorm>(acc0, qd, Ops::Load(row));
        acc1 = Step<Ops, kNorm>(acc1, qd, Ops::Load(row + kLanes));
        if constexpr (kBounded) {
          if (IsBoundCheckDim(d, dim) &&
              (Ops::PastCutoff(acc0, cut) & Ops::PastCutoff(acc1, cut)) ==
                  Ops::kAllLanes) {
            break;
          }
        }
      }
      Ops::Store(out + i, Finish<Ops, kNorm>(acc0));
      Ops::Store(out + i + kLanes, Finish<Ops, kNorm>(acc1));
    }
  }
  for (; i < count; i += kLanes) {
    const Mask dead =
        static_cast<Mask>(Ops::kAllLanes & ~Ops::LiveLanes(i, count));
    D acc = Ops::Set1(0.0);
    for (size_t d = 0; d < dim; ++d) {
      acc = Step<Ops, kNorm>(acc, Ops::Set1(query[d]),
                             Ops::Load(data + d * stride + i));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (Ops::PastCutoff(acc, cut) | dead) == Ops::kAllLanes) {
          break;
        }
      }
    }
    StoreLanes<Ops>(out, i, count, Finish<Ops, kNorm>(acc));
  }
}

// Widens kFloatLanes float results into out[i, ...), storing the live ones.
template <typename Ops>
inline void StoreWidened(double* out, size_t i, size_t count,
                         typename Ops::Float v) {
  StoreLanes<Ops>(out, i, count, Ops::WidenLow(v));
  if (i + Ops::kLanes < count) {
    StoreLanes<Ops>(out, i + Ops::kLanes, count, Ops::WidenHigh(v));
  }
}

// A float query against every float column: kShadowChains independent
// chains per step keep the adds in flight, then one chain per vector.
template <typename Ops, Norm kNorm>
void Shadow(const float* query, const float* data, size_t stride,
            size_t dim, size_t count, double* out) {
  using F = typename Ops::Float;
  constexpr size_t kFloats = Ops::kFloatLanes;
  constexpr size_t kChains = Ops::kShadowChains;
  size_t i = 0;
  for (; i + kChains * kFloats <= count; i += kChains * kFloats) {
    F acc[kChains];
    for (size_t c = 0; c < kChains; ++c) acc[c] = Ops::Set1(0.0f);
    for (size_t d = 0; d < dim; ++d) {
      const F qd = Ops::Set1(query[d]);
      const float* row = data + d * stride + i;
      for (size_t c = 0; c < kChains; ++c) {
        acc[c] = Step<Ops, kNorm>(acc[c], qd, Ops::Load(row + c * kFloats));
      }
    }
    for (size_t c = 0; c < kChains; ++c) {
      StoreWidened<Ops>(out, i + c * kFloats, count,
                        Finish<Ops, kNorm>(acc[c]));
    }
  }
  for (; i < count; i += kFloats) {
    F acc = Ops::Set1(0.0f);
    for (size_t d = 0; d < dim; ++d) {
      acc = Step<Ops, kNorm>(acc, Ops::Set1(query[d]),
                             Ops::Load(data + d * stride + i));
    }
    StoreWidened<Ops>(out, i, count, Finish<Ops, kNorm>(acc));
  }
}

// The first largest of a vector's lanes, as std::max_element finds it.
template <typename Ops>
inline double LargestLane(const double* lanes) {
  const double* first = lanes;
  const double* const last = lanes + Ops::kLanes;
  const double* largest = first;
  while (++first != last) {
    if (*largest < *first) largest = first;
  }
  return *largest;
}

// The twin row one vector at a time (NaN and out-of-range lanes masked to
// 0 before or by the conversion), then the scalar loop for the last lanes.
template <typename Ops>
double TwinRow(const double* row, double reference, size_t count,
               float* twin, double extent) {
  using D = typename Ops::Double;
  constexpr size_t kLanes = Ops::kLanes;
  // Constants, so no numeric_limits call is left to a -O0 build.
  constexpr double kFloatMax = std::numeric_limits<float>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const D r = Ops::Set1(reference);
  const D max = Ops::Set1(kFloatMax);
  D most = Ops::Set1(extent);
  typename Ops::Unordered nan = Ops::NoneUnordered();
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const D diff = Ops::Sub(Ops::Load(row + i), r);
    const D a = Ops::Abs(diff);
    Ops::StoreTwin(twin + i, diff, a, max);
    most = Ops::Max(a, most);  // `most` where a is NaN
    nan = Ops::OrUnordered(nan, a);
  }
  alignas(sizeof(D)) double lanes[kLanes];
  Ops::StoreAligned(lanes, most);
  extent = Ops::AnyUnordered(nan) ? kInf : LargestLane<Ops>(lanes);
  return ScalarKernels().twin_row(row + i, reference, count - i, twin + i,
                                  extent);
}

// kRows queries against every column: two-vector chunks (2 * kRows
// accumulators) while they fit, then masked one-vector chunks. Each row
// load serves all kRows queries.
template <typename Ops, Norm kNorm, size_t kRows>
void TileRows(const double* const* queries, const double* data,
              size_t stride, size_t dim, size_t count, size_t out_stride,
              double* out) {
  using D = typename Ops::Double;
  constexpr size_t kLanes = Ops::kLanes;
  size_t i = 0;
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
    D acc0[kRows];
    D acc1[kRows];
    for (size_t r = 0; r < kRows; ++r) {
      acc0[r] = Ops::Set1(0.0);
      acc1[r] = Ops::Set1(0.0);
    }
    for (size_t d = 0; d < dim; ++d) {
      const double* row = data + d * stride + i;
      const D pts0 = Ops::Load(row);
      const D pts1 = Ops::Load(row + kLanes);
      for (size_t r = 0; r < kRows; ++r) {
        const D qd = Ops::Set1(queries[r][d]);
        acc0[r] = Step<Ops, kNorm>(acc0[r], qd, pts0);
        acc1[r] = Step<Ops, kNorm>(acc1[r], qd, pts1);
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      Ops::Store(out + r * out_stride + i, Finish<Ops, kNorm>(acc0[r]));
      Ops::Store(out + r * out_stride + i + kLanes,
                 Finish<Ops, kNorm>(acc1[r]));
    }
  }
  for (; i < count; i += kLanes) {
    D acc[kRows];
    for (size_t r = 0; r < kRows; ++r) acc[r] = Ops::Set1(0.0);
    for (size_t d = 0; d < dim; ++d) {
      const D pts = Ops::Load(data + d * stride + i);
      for (size_t r = 0; r < kRows; ++r) {
        acc[r] = Step<Ops, kNorm>(acc[r], Ops::Set1(queries[r][d]), pts);
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      StoreLanes<Ops>(out + r * out_stride, i, count,
                      Finish<Ops, kNorm>(acc[r]));
    }
  }
}

using TileBody = void (*)(const double* const* queries, const double* data,
                          size_t stride, size_t dim, size_t count,
                          size_t out_stride, double* out);

// TileRows for every row count in [1, kTileRows], indexed by count - 1.
template <typename Ops, Norm kNorm,
          typename = std::make_index_sequence<Ops::kTileRows>>
struct TileBodies;

template <typename Ops, Norm kNorm, size_t... kIndex>
struct TileBodies<Ops, kNorm, std::index_sequence<kIndex...>> {
  static constexpr TileBody kBody[] = {&TileRows<Ops, kNorm, kIndex + 1>...};
};

template <typename Ops, Norm kNorm>
void Tile(const double* const* queries, size_t rows, const double* data,
          size_t stride, size_t dim, size_t count, size_t out_stride,
          double* out) {
  constexpr size_t kTileRows = Ops::kTileRows;
  for (size_t first = 0; first < rows; first += kTileRows) {
    const size_t tile = rows - first < kTileRows ? rows - first : kTileRows;
    TileBodies<Ops, kNorm>::kBody[tile - 1](queries + first, data, stride,
                                            dim, count, out_stride,
                                            out + first * out_stride);
  }
}

// Per-lane farthest points over kLanes slots, one lane per slot: the rule
// of internal::KeepFarthest, lane by lane.
template <typename Ops>
struct FarthestLanes {
  typename Ops::Double distance = Ops::Set1(0.0);
  typename Ops::Index position = Ops::Set1(int64_t{-1});

  Farthest Reduce() const {
    alignas(sizeof(distance)) double d[Ops::kLanes];
    alignas(sizeof(position)) int64_t p[Ops::kLanes];
    Ops::StoreAligned(d, distance);
    Ops::StoreAligned(p, position);
    Farthest best = {0.0, -1};
    for (size_t l = 0; l < Ops::kLanes; ++l) {
      internal::KeepFarthest({d[l], static_cast<int>(p[l])}, &best);
    }
    return best;
  }
};

// The head pass over the kLanes slots from s: folds the row into
// `nearest`, keeps the farthest per lane, and sends the lanes that may
// improve their color's nearest point (row <= its entry; see
// simd_kernels.h) through the exact update in slot order.
template <typename Ops, bool kColors>
inline void HeadPassLanes(const double* row, const int* position,
                          const int* color, size_t s, double* nearest,
                          double* color_distance, int* color_index,
                          FarthestLanes<Ops>* farthest) {
  const auto d = Ops::Load(row + s);
  const auto m = Ops::Min(d, Ops::Load(nearest + s));
  Ops::Store(nearest + s, m);
  Ops::KeepFarther(m, Ops::LoadPositions(position + s), &farthest->distance,
                   &farthest->position);
  if constexpr (kColors) {
    unsigned lanes = Ops::NearerColorLanes(d, color + s, color_distance);
    for (; lanes != 0; lanes &= lanes - 1) {
      internal::KeepNearestColor(row, position, color,
                                 s + static_cast<size_t>(__builtin_ctz(lanes)),
                                 color_distance, color_index);
    }
  }
}

// Two sets of lanes keep two compare chains in flight; the slots past the
// last full vector run the scalar pass.
template <typename Ops, bool kColors>
Farthest HeadPassVector(const double* row, const int* position,
                        const int* color, size_t count, double* nearest,
                        double* color_distance, int* color_index) {
  constexpr size_t kLanes = Ops::kLanes;
  FarthestLanes<Ops> even;
  FarthestLanes<Ops> odd;
  size_t s = 0;
  for (; s + 2 * kLanes <= count; s += 2 * kLanes) {
    HeadPassLanes<Ops, kColors>(row, position, color, s, nearest,
                                color_distance, color_index, &even);
    HeadPassLanes<Ops, kColors>(row, position, color, s + kLanes, nearest,
                                color_distance, color_index, &odd);
  }
  if (s + kLanes <= count) {
    HeadPassLanes<Ops, kColors>(row, position, color, s, nearest,
                                color_distance, color_index, &even);
    s += kLanes;
  }
  // The same rule, lane by lane.
  Ops::KeepFarther(odd.distance, odd.position, &even.distance, &even.position);
  Farthest farthest = even.Reduce();
  if (s < count) {
    const Farthest tail = ScalarKernels().head_pass(
        row + s, position + s, kColors ? color + s : nullptr, count - s,
        nearest + s, color_distance, color_index);
    internal::KeepFarthest(tail, &farthest);
  }
  return farthest;
}

template <typename Ops>
Farthest HeadPass(const double* row, const int* position, const int* color,
                  size_t count, double* nearest, double* color_distance,
                  int* color_index) {
  return color != nullptr
             ? HeadPassVector<Ops, true>(row, position, color, count, nearest,
                                         color_distance, color_index)
             : HeadPassVector<Ops, false>(row, position, color, count,
                                          nearest, color_distance,
                                          color_index);
}

template <typename Ops, Norm kNorm>
constexpr NormKernels NormKernelsOf() {
  return {ExactScan<Scan<Ops, kNorm, false>>, Scan<Ops, kNorm, true>,
          Tile<Ops, kNorm>, Shadow<Ops, kNorm>};
}

/// The kernel set of one vector width.
template <typename Ops>
constexpr KernelSet VectorKernelSet() {
  return {Ops::kName, Ops::kLanes, Ops::kTileRows,
          {NormKernelsOf<Ops, Norm::kEuclidean>(),
           NormKernelsOf<Ops, Norm::kManhattan>(),
           NormKernelsOf<Ops, Norm::kChebyshev>()},
          HeadPass<Ops>, TwinRow<Ops>};
}

}  // namespace vec
}  // namespace simd
}  // namespace fkc

#endif  // FKC_METRIC_SIMD_KERNELS_VECTOR_H_
