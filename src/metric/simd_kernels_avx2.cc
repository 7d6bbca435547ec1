// AVX2 kernels: 4 pairs per 256-bit vector, lane-per-pair. Compiled with
// -mavx2 -ffp-contract=off (see CMakeLists.txt); never executed unless
// ActiveKernels() saw cpuid report AVX2. No FMA anywhere — the scalar path
// rounds after the multiply and after the add, and these kernels must
// match it bit for bit.
#include "metric/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

namespace fkc {
namespace simd {
namespace {

constexpr size_t kLanes = 4;

// Lane mask for a tail of `rem` (1..3) live pairs.
inline __m256i TailMask(size_t rem) {
  alignas(32) long long mask[kLanes] = {0, 0, 0, 0};
  for (size_t i = 0; i < rem; ++i) mask[i] = -1;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(mask));
}

inline __m256d Abs(__m256d v) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  return _mm256_andnot_pd(sign_mask, v);
}

inline __m256 Abs(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

// Bit i set when lane i is live in the block starting at pair i0.
inline int LiveLanes(size_t i0, size_t count) {
  return i0 + kLanes <= count ? 0xF : (1 << (count - i0)) - 1;
}

// Bit i set when lane i's partial is at or past the cutoff (never for NaN).
inline int PastCutoff(__m256d partial, __m256d cutoff) {
  return _mm256_movemask_pd(_mm256_cmp_pd(partial, cutoff, _CMP_GE_OQ));
}

// Stores the block's `count - i0` live lanes (all four unless it is the
// tail).
inline void StoreLanes(double* out, size_t i0, size_t count, __m256d v) {
  if (i0 + kLanes <= count) {
    _mm256_storeu_pd(out + i0, v);
  } else {
    _mm256_maskstore_pd(out + i0, TailMask(count - i0), v);
  }
}

// One policy per metric: a pair's per-dimension term, given the pair's
// coordinate difference (Add) or its two coordinates (Step), and its final
// step, on four double lanes for the exact kernels and on eight float lanes
// for the shadow ones. Every kernel below applies them in ascending
// dimension order, one pair per lane.
struct EuclideanTerm {
  static __m256d Add(__m256d acc, __m256d diff) {
    return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  static __m256 Add(__m256 acc, __m256 diff) {
    return _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  static __m256d Finish(__m256d acc) { return _mm256_sqrt_pd(acc); }
  static __m256 Finish(__m256 acc) { return _mm256_sqrt_ps(acc); }
};

struct ManhattanTerm {
  static __m256d Add(__m256d acc, __m256d diff) {
    return _mm256_add_pd(acc, Abs(diff));
  }
  static __m256 Add(__m256 acc, __m256 diff) {
    return _mm256_add_ps(acc, Abs(diff));
  }
  static __m256d Finish(__m256d acc) { return acc; }
  static __m256 Finish(__m256 acc) { return acc; }
};

// max(|diff|, best): returns `best` when equal or unordered, matching the
// scalar `if (diff > best) best = diff`.
struct ChebyshevTerm {
  static __m256d Add(__m256d best, __m256d diff) {
    return _mm256_max_pd(Abs(diff), best);
  }
  static __m256 Add(__m256 best, __m256 diff) {
    return _mm256_max_ps(Abs(diff), best);
  }
  static __m256d Finish(__m256d best) { return best; }
  static __m256 Finish(__m256 best) { return best; }
};

template <typename Term>
inline __m256d Step(__m256d acc, __m256d qd, __m256d pts) {
  return Term::Add(acc, _mm256_sub_pd(qd, pts));
}

template <typename Term>
inline __m256 Step(__m256 acc, __m256 qd, __m256 pts) {
  return Term::Add(acc, _mm256_sub_ps(qd, pts));
}

// One query against every column, one vector of pairs at a time.
template <typename Term, bool kBounded>
void ScanAvx2(const double* query, const double* data, size_t stride,
              size_t dim, size_t count, double cutoff, double* out) {
  const __m256d cut = _mm256_set1_pd(cutoff);
  for (size_t i = 0; i < count; i += kLanes) {
    const int dead = 0xF & ~LiveLanes(i, count);
    __m256d acc = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      acc = Step<Term>(acc, _mm256_set1_pd(query[d]),
                       _mm256_loadu_pd(data + d * stride + i));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc, cut) | dead) == 0xF) break;
      }
    }
    StoreLanes(out, i, count, Term::Finish(acc));
  }
}

// Widens eight float results into out[i, i + 8), storing the live lanes.
inline void StoreWidened(double* out, size_t i, size_t count, __m256 v) {
  StoreLanes(out, i, count, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
  if (i + kLanes < count) {
    StoreLanes(out, i + kLanes, count,
               _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
}

// A float query against every float column: four independent 8-lane
// chains per 32 columns keep the adds in flight, then one chain per 8.
template <typename Term>
void ShadowAvx2(const float* query, const float* data, size_t stride,
                size_t dim, size_t count, double* out) {
  constexpr size_t kFloats = 8;
  constexpr size_t kChains = 4;
  size_t i = 0;
  for (; i + kChains * kFloats <= count; i += kChains * kFloats) {
    __m256 acc[kChains];
    for (size_t c = 0; c < kChains; ++c) acc[c] = _mm256_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      const __m256 qd = _mm256_set1_ps(query[d]);
      const float* row = data + d * stride + i;
      for (size_t c = 0; c < kChains; ++c) {
        acc[c] = Step<Term>(acc[c], qd, _mm256_loadu_ps(row + c * kFloats));
      }
    }
    for (size_t c = 0; c < kChains; ++c) {
      StoreWidened(out, i + c * kFloats, count, Term::Finish(acc[c]));
    }
  }
  for (; i < count; i += kFloats) {
    __m256 acc = _mm256_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      acc = Step<Term>(acc, _mm256_set1_ps(query[d]),
                       _mm256_loadu_ps(data + d * stride + i));
    }
    StoreWidened(out, i, count, Term::Finish(acc));
  }
}

// The twin row four lanes at a time (NaN and out-of-range lanes masked to
// 0 before the conversion), then the scalar loop for the last lanes.
double TwinRow(const double* row, double reference, size_t count,
               float* twin, double extent) {
  const __m256d r = _mm256_set1_pd(reference);
  const __m256d max = _mm256_set1_pd(std::numeric_limits<float>::max());
  __m256d most = _mm256_set1_pd(extent);
  __m256d nan = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(row + i), r);
    const __m256d a = Abs(diff);
    const __m256d in_range = _mm256_cmp_pd(a, max, _CMP_LE_OQ);
    _mm_storeu_ps(twin + i, _mm256_cvtpd_ps(_mm256_and_pd(diff, in_range)));
    most = _mm256_max_pd(a, most);  // `most` where a is NaN
    nan = _mm256_or_pd(nan, _mm256_cmp_pd(a, a, _CMP_UNORD_Q));
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, most);
  extent = _mm256_movemask_pd(nan) != 0
               ? std::numeric_limits<double>::infinity()
               : *std::max_element(lanes, lanes + kLanes);
  return ScalarKernels().twin_row(row + i, reference, count - i, twin + i,
                                  extent);
}

constexpr size_t kTileRows = 4;

// kRows queries against every column: 8-lane chunks (2 * kRows
// accumulators, which with the two row vectors fill the 16 registers)
// while they fit, then masked 4-lane chunks. Each row load serves all kRows
// queries.
template <typename Term, size_t kRows>
void TileRowsAvx2(const double* const* queries, const double* data,
                  size_t stride, size_t dim, size_t count, size_t out_stride,
                  double* out) {
  size_t i = 0;
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
    __m256d acc0[kRows];
    __m256d acc1[kRows];
    for (size_t r = 0; r < kRows; ++r) {
      acc0[r] = _mm256_setzero_pd();
      acc1[r] = _mm256_setzero_pd();
    }
    for (size_t d = 0; d < dim; ++d) {
      const double* row = data + d * stride + i;
      const __m256d pts0 = _mm256_loadu_pd(row);
      const __m256d pts1 = _mm256_loadu_pd(row + kLanes);
      for (size_t r = 0; r < kRows; ++r) {
        const __m256d qd = _mm256_set1_pd(queries[r][d]);
        acc0[r] = Step<Term>(acc0[r], qd, pts0);
        acc1[r] = Step<Term>(acc1[r], qd, pts1);
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      _mm256_storeu_pd(out + r * out_stride + i, Term::Finish(acc0[r]));
      _mm256_storeu_pd(out + r * out_stride + i + kLanes,
                       Term::Finish(acc1[r]));
    }
  }
  for (; i < count; i += kLanes) {
    __m256d acc[kRows];
    for (size_t r = 0; r < kRows; ++r) acc[r] = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m256d pts = _mm256_loadu_pd(data + d * stride + i);
      for (size_t r = 0; r < kRows; ++r) {
        acc[r] = Step<Term>(acc[r], _mm256_set1_pd(queries[r][d]), pts);
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
  return {&TileRowsAvx2<Term, kIndex + 1>...};
}

template <typename Term>
void TileAvx2(const double* const* queries, size_t rows, const double* data,
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

// Per-lane farthest points over 4 slots, one lane per slot: the rule of
// internal::KeepFarthest, lane by lane (positions widened to 64 bits, so
// one mask serves both blends).
struct FarthestLanes {
  __m256d distance = _mm256_setzero_pd();
  __m256i position = _mm256_set1_epi64x(-1);

  void Keep(__m256d m, __m256i pos) {
    const __m256d wins = _mm256_or_pd(
        _mm256_cmp_pd(m, distance, _CMP_GT_OQ),
        _mm256_and_pd(_mm256_cmp_pd(m, distance, _CMP_EQ_OQ),
                      _mm256_castsi256_pd(_mm256_cmpgt_epi64(position, pos))));
    distance = _mm256_blendv_pd(distance, m, wins);
    position = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(position), _mm256_castsi256_pd(pos), wins));
  }

  Farthest Reduce() const {
    alignas(32) double d[kLanes];
    alignas(32) long long p[kLanes];
    _mm256_store_pd(d, distance);
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), position);
    Farthest best = {0.0, -1};
    for (size_t l = 0; l < kLanes; ++l) {
      internal::KeepFarthest({d[l], static_cast<int>(p[l])}, &best);
    }
    return best;
  }
};

// The head pass over the 4 slots from s: folds the row into `nearest`,
// keeps the farthest per lane, and sends the lanes that may improve their
// color's nearest point (row <= its entry; see the header) through the
// exact update in slot order.
template <bool kColors>
inline void HeadPassLanes(const double* row, const int* position,
                          const int* color, size_t s, double* nearest,
                          double* color_distance, int* color_index,
                          FarthestLanes* farthest) {
  const __m256d d = _mm256_loadu_pd(row + s);
  const __m256d m = _mm256_min_pd(d, _mm256_loadu_pd(nearest + s));
  _mm256_storeu_pd(nearest + s, m);
  farthest->Keep(m, _mm256_cvtepi32_epi64(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(position + s))));
  if constexpr (kColors) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(color + s));
    // The masked form with every lane on: GCC's plain gather starts from
    // an undefined vector and trips -Wmaybe-uninitialized.
    const __m256d entry = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), color_distance, c,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
    unsigned lanes = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(d, entry, _CMP_LE_OQ)));
    for (; lanes != 0; lanes &= lanes - 1) {
      internal::KeepNearestColor(row, position, color,
                                 s + static_cast<size_t>(__builtin_ctz(lanes)),
                                 color_distance, color_index);
    }
  }
}

// Two independent sets of lanes per 8 slots keep two compare chains in
// flight; the tail past the last full vector runs the scalar pass.
template <bool kColors>
Farthest HeadPassAvx2(const double* row, const int* position,
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
             ? HeadPassAvx2<true>(row, position, color, count, nearest,
                                  color_distance, color_index)
             : HeadPassAvx2<false>(row, position, color, count, nearest,
                                   color_distance, color_index);
}

const KernelSet kAvx2Set = {
    "avx2",
    kLanes,
    kTileRows,
    ExactScan<ScanAvx2<EuclideanTerm, false>>,
    ExactScan<ScanAvx2<ManhattanTerm, false>>,
    ExactScan<ScanAvx2<ChebyshevTerm, false>>,
    ScanAvx2<EuclideanTerm, true>,
    ScanAvx2<ManhattanTerm, true>,
    ScanAvx2<ChebyshevTerm, true>,
    TileAvx2<EuclideanTerm>,
    TileAvx2<ManhattanTerm>,
    TileAvx2<ChebyshevTerm>,
    ShadowAvx2<EuclideanTerm>,
    ShadowAvx2<ManhattanTerm>,
    ShadowAvx2<ChebyshevTerm>,
    HeadPass,
    TwinRow};

}  // namespace

namespace internal {
const KernelSet& Avx2KernelSetImpl() { return kAvx2Set; }
}  // namespace internal

}  // namespace simd
}  // namespace fkc

#endif  // __AVX2__
