// AVX-512 kernels: 8 pairs per 512-bit vector, lane-per-pair. Compiled with
// -mavx512f -ffp-contract=off (see CMakeLists.txt); never executed unless
// ActiveKernels() saw cpuid report AVX-512F. No FMA anywhere — the scalar
// path rounds after the multiply and after the add, and these kernels must
// match it bit for bit.
#include "metric/simd_kernels.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace fkc {
namespace simd {
namespace {

constexpr size_t kLanes = 8;

// Mask with the low `rem` (1..7) lanes live, for the final partial store.
inline __mmask8 TailMask(size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

// Bitwise |v| (clears the sign bit; exact for subnormals). GCC's
// _mm512_abs_pd routes through an undefined-value intrinsic that trips
// -Wmaybe-uninitialized, so spell out the and-not.
inline __m512d Abs(__m512d v) {
  const __m512i sign = _mm512_set1_epi64(INT64_MIN);
  return _mm512_castsi512_pd(
      _mm512_andnot_si512(sign, _mm512_castpd_si512(v)));
}

inline __m512 Abs(__m512 v) {
  const __m512i sign = _mm512_set1_epi32(INT32_MIN);
  return _mm512_castsi512_ps(
      _mm512_andnot_si512(sign, _mm512_castps_si512(v)));
}

// Lanes of the block starting at pair i0 that hold live pairs.
inline __mmask8 LiveLanes(size_t i0, size_t count) {
  return i0 + kLanes <= count ? static_cast<__mmask8>(0xFF)
                              : TailMask(count - i0);
}

// Lanes whose partial is at or past the cutoff (never a NaN partial).
inline __mmask8 PastCutoff(__m512d partial, __m512d cutoff) {
  return _mm512_cmp_pd_mask(partial, cutoff, _CMP_GE_OQ);
}

// Stores the block's live lanes (all eight unless it is the tail).
inline void StoreLanes(double* out, size_t i0, size_t count, __m512d v) {
  if (i0 + kLanes <= count) {
    _mm512_storeu_pd(out + i0, v);
  } else {
    _mm512_mask_storeu_pd(out + i0, TailMask(count - i0), v);
  }
}

// One policy per metric: a pair's per-dimension term, given the pair's
// coordinate difference (Add), and its final step, on eight double lanes
// for the exact kernels and on sixteen float lanes for the shadow ones.
// Every kernel below applies them in ascending dimension order, one pair
// per lane.
struct EuclideanTerm {
  static __m512d Add(__m512d acc, __m512d diff) {
    return _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
  }
  static __m512 Add(__m512 acc, __m512 diff) {
    return _mm512_add_ps(acc, _mm512_mul_ps(diff, diff));
  }
  static __m512d Finish(__m512d acc) { return _mm512_sqrt_pd(acc); }
  static __m512 Finish(__m512 acc) { return _mm512_sqrt_ps(acc); }
};

struct ManhattanTerm {
  static __m512d Add(__m512d acc, __m512d diff) {
    return _mm512_add_pd(acc, Abs(diff));
  }
  static __m512 Add(__m512 acc, __m512 diff) {
    return _mm512_add_ps(acc, Abs(diff));
  }
  static __m512d Finish(__m512d acc) { return acc; }
  static __m512 Finish(__m512 acc) { return acc; }
};

// max(|diff|, best): returns `best` when equal or unordered, matching the
// scalar `if (diff > best) best = diff`.
struct ChebyshevTerm {
  static __m512d Add(__m512d best, __m512d diff) {
    return _mm512_max_pd(Abs(diff), best);
  }
  static __m512 Add(__m512 best, __m512 diff) {
    return _mm512_max_ps(Abs(diff), best);
  }
  static __m512d Finish(__m512d best) { return best; }
  static __m512 Finish(__m512 best) { return best; }
};

// A pair's term from its two coordinates.
template <typename Term>
inline __m512d Step(__m512d acc, __m512d qd, __m512d pts) {
  return Term::Add(acc, _mm512_sub_pd(qd, pts));
}

template <typename Term>
inline __m512 Step(__m512 acc, __m512 qd, __m512 pts) {
  return Term::Add(acc, _mm512_sub_ps(qd, pts));
}

// One query against every column. Two vectors (16 pairs) per dim pass:
// amortizes the query broadcast and keeps two independent accumulation
// chains in flight, which matters at high dim where a single add chain
// leaves the FPU idle. Unrolling changes which pairs run together, never
// any pair's rounding.
template <typename Term, bool kBounded>
void ScanAvx512(const double* query, const double* data, size_t stride,
                size_t dim, size_t count, double cutoff, double* out) {
  const __m512d cut = _mm512_set1_pd(cutoff);
  size_t i = 0;
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(query[d]);
      const double* row = data + d * stride + i;
      acc0 = Step<Term>(acc0, qd, _mm512_loadu_pd(row));
      acc1 = Step<Term>(acc1, qd, _mm512_loadu_pd(row + kLanes));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc0, cut) & PastCutoff(acc1, cut)) == 0xFF) break;
      }
    }
    _mm512_storeu_pd(out + i, Term::Finish(acc0));
    _mm512_storeu_pd(out + i + kLanes, Term::Finish(acc1));
  }
  for (; i < count; i += kLanes) {
    const __mmask8 dead = static_cast<__mmask8>(~LiveLanes(i, count));
    __m512d acc = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      acc = Step<Term>(acc, _mm512_set1_pd(query[d]),
                       _mm512_loadu_pd(data + d * stride + i));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc, cut) | dead) == 0xFF) break;
      }
    }
    StoreLanes(out, i, count, Term::Finish(acc));
  }
}

// Widens sixteen float results into out[i, i + 16), storing the live lanes.
inline void StoreWidened(double* out, size_t i, size_t count, __m512 v) {
  StoreLanes(out, i, count, _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
  if (i + kLanes < count) {
    const __m256 high = _mm256_castpd_ps(
        _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
    StoreLanes(out, i + kLanes, count, _mm512_cvtps_pd(high));
  }
}

// A float query against every float column: four independent 16-lane
// chains per 64 columns keep the adds in flight, then one chain per 16.
template <typename Term>
void ShadowAvx512(const float* query, const float* data, size_t stride,
                  size_t dim, size_t count, double* out) {
  constexpr size_t kFloats = 16;
  constexpr size_t kChains = 4;
  size_t i = 0;
  for (; i + kChains * kFloats <= count; i += kChains * kFloats) {
    __m512 acc[kChains];
    for (size_t c = 0; c < kChains; ++c) acc[c] = _mm512_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      const __m512 qd = _mm512_set1_ps(query[d]);
      const float* row = data + d * stride + i;
      for (size_t c = 0; c < kChains; ++c) {
        acc[c] = Step<Term>(acc[c], qd, _mm512_loadu_ps(row + c * kFloats));
      }
    }
    for (size_t c = 0; c < kChains; ++c) {
      StoreWidened(out, i + c * kFloats, count, Term::Finish(acc[c]));
    }
  }
  for (; i < count; i += kFloats) {
    __m512 acc = _mm512_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      acc = Step<Term>(acc, _mm512_set1_ps(query[d]),
                       _mm512_loadu_ps(data + d * stride + i));
    }
    StoreWidened(out, i, count, Term::Finish(acc));
  }
}

// The twin row eight lanes at a time (NaN and out-of-range lanes masked to
// 0 by the conversion), then the scalar loop for the last lanes.
double TwinRow(const double* row, double reference, size_t count,
               float* twin, double extent) {
  const __m512d r = _mm512_set1_pd(reference);
  const __m512d max = _mm512_set1_pd(std::numeric_limits<float>::max());
  __m512d most = _mm512_set1_pd(extent);
  __mmask8 nan = 0;
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const __m512d diff = _mm512_sub_pd(_mm512_loadu_pd(row + i), r);
    const __m512d a = Abs(diff);
    const __mmask8 in_range = _mm512_cmp_pd_mask(a, max, _CMP_LE_OQ);
    _mm256_storeu_ps(twin + i, _mm512_maskz_cvtpd_ps(in_range, diff));
    most = _mm512_max_pd(a, most);  // `most` where a is NaN
    nan |= _mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q);
  }
  alignas(64) double lanes[kLanes];
  _mm512_store_pd(lanes, most);
  extent = nan != 0 ? std::numeric_limits<double>::infinity()
                    : *std::max_element(lanes, lanes + kLanes);
  return ScalarKernels().twin_row(row + i, reference, count - i, twin + i,
                                  extent);
}

constexpr size_t kTileRows = 8;

// kRows queries against every column: 16-lane chunks (2 * kRows
// accumulators) while they fit, then masked 8-lane chunks. Each row load
// serves all kRows queries.
template <typename Term, size_t kRows>
void TileRowsAvx512(const double* const* queries, const double* data,
                    size_t stride, size_t dim, size_t count, size_t out_stride,
                    double* out) {
  size_t i = 0;
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
    __m512d acc0[kRows];
    __m512d acc1[kRows];
    for (size_t r = 0; r < kRows; ++r) {
      acc0[r] = _mm512_setzero_pd();
      acc1[r] = _mm512_setzero_pd();
    }
    for (size_t d = 0; d < dim; ++d) {
      const double* row = data + d * stride + i;
      const __m512d pts0 = _mm512_loadu_pd(row);
      const __m512d pts1 = _mm512_loadu_pd(row + kLanes);
      for (size_t r = 0; r < kRows; ++r) {
        const __m512d qd = _mm512_set1_pd(queries[r][d]);
        acc0[r] = Step<Term>(acc0[r], qd, pts0);
        acc1[r] = Step<Term>(acc1[r], qd, pts1);
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      _mm512_storeu_pd(out + r * out_stride + i, Term::Finish(acc0[r]));
      _mm512_storeu_pd(out + r * out_stride + i + kLanes,
                       Term::Finish(acc1[r]));
    }
  }
  for (; i < count; i += kLanes) {
    __m512d acc[kRows];
    for (size_t r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d pts = _mm512_loadu_pd(data + d * stride + i);
      for (size_t r = 0; r < kRows; ++r) {
        acc[r] = Step<Term>(acc[r], _mm512_set1_pd(queries[r][d]), pts);
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      StoreLanes(out + r * out_stride, i, count, Term::Finish(acc[r]));
    }
  }
}

using TileBody = void (*)(const double* const* queries, const double* data,
                          size_t stride, size_t dim, size_t count,
                          size_t out_stride, double* out);

template <typename Term, size_t... kIndex>
constexpr std::array<TileBody, sizeof...(kIndex)> TileBodies(
    std::index_sequence<kIndex...>) {
  return {&TileRowsAvx512<Term, kIndex + 1>...};
}

template <typename Term>
void TileAvx512(const double* const* queries, size_t rows, const double* data,
                size_t stride, size_t dim, size_t count, size_t out_stride,
                double* out) {
  static constexpr std::array<TileBody, kTileRows> kBodies =
      TileBodies<Term>(std::make_index_sequence<kTileRows>());
  for (size_t first = 0; first < rows; first += kTileRows) {
    kBodies[std::min(kTileRows, rows - first) - 1](
        queries + first, data, stride, dim, count, out_stride,
        out + first * out_stride);
  }
}

// Per-lane farthest points over 8 slots, one lane per slot: the rule of
// internal::KeepFarthest, lane by lane.
struct FarthestLanes {
  __m512d distance = _mm512_setzero_pd();
  __m512i position = _mm512_set1_epi64(-1);

  void Keep(__m512d m, __m512i pos) {
    const __mmask8 wins =
        _mm512_cmp_pd_mask(m, distance, _CMP_GT_OQ) |
        (_mm512_cmp_pd_mask(m, distance, _CMP_EQ_OQ) &
         _mm512_cmplt_epi64_mask(pos, position));
    distance = _mm512_mask_mov_pd(distance, wins, m);
    position = _mm512_mask_mov_epi64(position, wins, pos);
  }

  Farthest Reduce() const {
    alignas(64) double d[kLanes];
    alignas(64) int64_t p[kLanes];
    _mm512_store_pd(d, distance);
    _mm512_store_si512(p, position);
    Farthest best = {0.0, -1};
    for (size_t l = 0; l < kLanes; ++l) {
      internal::KeepFarthest({d[l], static_cast<int>(p[l])}, &best);
    }
    return best;
  }
};

// The head pass over the 8 slots from s: folds the row into `nearest`,
// keeps the farthest per lane, and sends the lanes that may improve their
// color's nearest point (row <= its entry; see the header) through the
// exact update in slot order.
template <bool kColors>
inline void HeadPassLanes(const double* row, const int* position,
                          const int* color, size_t s, double* nearest,
                          double* color_distance, int* color_index,
                          FarthestLanes* farthest) {
  const __m512d d = _mm512_loadu_pd(row + s);
  const __m512d m = _mm512_min_pd(d, _mm512_loadu_pd(nearest + s));
  _mm512_storeu_pd(nearest + s, m);
  farthest->Keep(m, _mm512_cvtepi32_epi64(_mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(position + s))));
  if constexpr (kColors) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(color + s));
    unsigned lanes = _mm512_cmp_pd_mask(
        d, _mm512_i32gather_pd(c, color_distance, 8), _CMP_LE_OQ);
    for (; lanes != 0; lanes &= lanes - 1) {
      internal::KeepNearestColor(row, position, color,
                                 s + static_cast<size_t>(__builtin_ctz(lanes)),
                                 color_distance, color_index);
    }
  }
}

// Two independent sets of lanes per 16 slots keep two compare chains in
// flight; the tail past the last full vector runs the scalar pass.
template <bool kColors>
Farthest HeadPassAvx512(const double* row, const int* position,
                        const int* color, size_t count, double* nearest,
                        double* color_distance, int* color_index) {
  FarthestLanes even;
  FarthestLanes odd;
  size_t s = 0;
  for (; s + 2 * kLanes <= count; s += 2 * kLanes) {
    HeadPassLanes<kColors>(row, position, color, s, nearest, color_distance,
                           color_index, &even);
    HeadPassLanes<kColors>(row, position, color, s + kLanes, nearest,
                           color_distance, color_index, &odd);
  }
  if (s + kLanes <= count) {
    HeadPassLanes<kColors>(row, position, color, s, nearest, color_distance,
                           color_index, &even);
    s += kLanes;
  }
  even.Keep(odd.distance, odd.position);  // the same rule, lane by lane
  Farthest farthest = even.Reduce();
  if (s < count) {
    const Farthest tail = ScalarKernels().head_pass(
        row + s, position + s, kColors ? color + s : nullptr, count - s,
        nearest + s, color_distance, color_index);
    internal::KeepFarthest(tail, &farthest);
  }
  return farthest;
}

Farthest HeadPass(const double* row, const int* position, const int* color,
                  size_t count, double* nearest, double* color_distance,
                  int* color_index) {
  return color != nullptr
             ? HeadPassAvx512<true>(row, position, color, count, nearest,
                                    color_distance, color_index)
             : HeadPassAvx512<false>(row, position, color, count, nearest,
                                     color_distance, color_index);
}

const KernelSet kAvx512Set = {
    "avx512",
    kLanes,
    kTileRows,
    ExactScan<ScanAvx512<EuclideanTerm, false>>,
    ExactScan<ScanAvx512<ManhattanTerm, false>>,
    ExactScan<ScanAvx512<ChebyshevTerm, false>>,
    ScanAvx512<EuclideanTerm, true>,
    ScanAvx512<ManhattanTerm, true>,
    ScanAvx512<ChebyshevTerm, true>,
    TileAvx512<EuclideanTerm>,
    TileAvx512<ManhattanTerm>,
    TileAvx512<ChebyshevTerm>,
    ShadowAvx512<EuclideanTerm>,
    ShadowAvx512<ManhattanTerm>,
    ShadowAvx512<ChebyshevTerm>,
    HeadPass,
    TwinRow};

}  // namespace

namespace internal {
const KernelSet& Avx512KernelSetImpl() { return kAvx512Set; }
}  // namespace internal

}  // namespace simd
}  // namespace fkc

#endif  // __AVX512F__
