// AVX-512 kernels: 8 pairs per 512-bit vector, lane-per-pair. Compiled with
// -mavx512f -ffp-contract=off (see CMakeLists.txt); never executed unless
// ActiveKernels() saw cpuid report AVX-512F. No FMA anywhere — the scalar
// path rounds after the multiply and after the add, and these kernels must
// match it bit for bit.
#include "metric/simd_kernels.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

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

template <bool kBounded>
void EuclideanAvx512(const double* query, const double* data, size_t stride,
                     size_t dim, size_t count, double cutoff, double* out) {
  const __m512d cut = _mm512_set1_pd(cutoff);
  // Two vectors (16 pairs) per dim pass: amortizes the query broadcast and
  // keeps two independent accumulation chains in flight, which matters at
  // high dim where a single add chain leaves the FPU idle. Each lane still
  // owns exactly one pair with ascending-dim accumulation — unrolling
  // changes which pairs run together, never any pair's rounding.
  size_t i = 0;
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(query[d]);
      const double* row = data + d * stride + i;
      const __m512d diff0 = _mm512_sub_pd(qd, _mm512_loadu_pd(row));
      const __m512d diff1 = _mm512_sub_pd(qd, _mm512_loadu_pd(row + kLanes));
      acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(diff0, diff0));
      acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(diff1, diff1));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc0, cut) & PastCutoff(acc1, cut)) == 0xFF) break;
      }
    }
    _mm512_storeu_pd(out + i, _mm512_sqrt_pd(acc0));
    _mm512_storeu_pd(out + i + kLanes, _mm512_sqrt_pd(acc1));
  }
  for (; i < count; i += kLanes) {
    const __mmask8 dead = static_cast<__mmask8>(~LiveLanes(i, count));
    __m512d acc = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(query[d]);
      const __m512d pts = _mm512_loadu_pd(data + d * stride + i);
      const __m512d diff = _mm512_sub_pd(qd, pts);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc, cut) | dead) == 0xFF) break;
      }
    }
    StoreLanes(out, i, count, _mm512_sqrt_pd(acc));
  }
}

template <bool kBounded>
void ManhattanAvx512(const double* query, const double* data, size_t stride,
                     size_t dim, size_t count, double cutoff, double* out) {
  const __m512d cut = _mm512_set1_pd(cutoff);
  size_t i = 0;
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(query[d]);
      const double* row = data + d * stride + i;
      acc0 = _mm512_add_pd(
          acc0, Abs(_mm512_sub_pd(qd, _mm512_loadu_pd(row))));
      acc1 = _mm512_add_pd(
          acc1,
          Abs(_mm512_sub_pd(qd, _mm512_loadu_pd(row + kLanes))));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc0, cut) & PastCutoff(acc1, cut)) == 0xFF) break;
      }
    }
    _mm512_storeu_pd(out + i, acc0);
    _mm512_storeu_pd(out + i + kLanes, acc1);
  }
  for (; i < count; i += kLanes) {
    const __mmask8 dead = static_cast<__mmask8>(~LiveLanes(i, count));
    __m512d acc = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(query[d]);
      const __m512d pts = _mm512_loadu_pd(data + d * stride + i);
      acc = _mm512_add_pd(acc, Abs(_mm512_sub_pd(qd, pts)));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc, cut) | dead) == 0xFF) break;
      }
    }
    StoreLanes(out, i, count, acc);
  }
}

template <bool kBounded>
void ChebyshevAvx512(const double* query, const double* data, size_t stride,
                     size_t dim, size_t count, double cutoff, double* out) {
  const __m512d cut = _mm512_set1_pd(cutoff);
  size_t i = 0;
  for (; i + 2 * kLanes <= count; i += 2 * kLanes) {
    __m512d best0 = _mm512_setzero_pd();
    __m512d best1 = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(query[d]);
      const double* row = data + d * stride + i;
      // max(diff, best): returns `best` when equal or unordered, matching
      // the scalar `if (diff > best) best = diff`.
      best0 = _mm512_max_pd(
          Abs(_mm512_sub_pd(qd, _mm512_loadu_pd(row))), best0);
      best1 = _mm512_max_pd(
          Abs(_mm512_sub_pd(qd, _mm512_loadu_pd(row + kLanes))),
          best1);
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(best0, cut) & PastCutoff(best1, cut)) == 0xFF) break;
      }
    }
    _mm512_storeu_pd(out + i, best0);
    _mm512_storeu_pd(out + i + kLanes, best1);
  }
  for (; i < count; i += kLanes) {
    const __mmask8 dead = static_cast<__mmask8>(~LiveLanes(i, count));
    __m512d best = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(query[d]);
      const __m512d pts = _mm512_loadu_pd(data + d * stride + i);
      const __m512d diff = Abs(_mm512_sub_pd(qd, pts));
      best = _mm512_max_pd(diff, best);
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(best, cut) | dead) == 0xFF) break;
      }
    }
    StoreLanes(out, i, count, best);
  }
}

const KernelSet kAvx512Set = {
    "avx512",
    kLanes,
    ExactScan<EuclideanAvx512<false>>,
    ExactScan<ManhattanAvx512<false>>,
    ExactScan<ChebyshevAvx512<false>>,
    EuclideanAvx512<true>,
    ManhattanAvx512<true>,
    ChebyshevAvx512<true>};

}  // namespace

namespace internal {
const KernelSet& Avx512KernelSetImpl() { return kAvx512Set; }
}  // namespace internal

}  // namespace simd
}  // namespace fkc

#endif  // __AVX512F__
