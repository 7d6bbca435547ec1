// AVX2 kernels: 4 pairs per 256-bit vector, lane-per-pair. Compiled with
// -mavx2 -ffp-contract=off (see CMakeLists.txt); never executed unless
// ActiveKernels() saw cpuid report AVX2. No FMA anywhere — the scalar path
// rounds after the multiply and after the add, and these kernels must
// match it bit for bit.
#include "metric/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

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

template <bool kBounded>
void EuclideanAvx2(const double* query, const double* data, size_t stride,
                   size_t dim, size_t count, double cutoff, double* out) {
  const __m256d cut = _mm256_set1_pd(cutoff);
  for (size_t i = 0; i < count; i += kLanes) {
    const int dead = 0xF & ~LiveLanes(i, count);
    __m256d acc = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m256d qd = _mm256_set1_pd(query[d]);
      const __m256d pts = _mm256_loadu_pd(data + d * stride + i);
      const __m256d diff = _mm256_sub_pd(qd, pts);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc, cut) | dead) == 0xF) break;
      }
    }
    StoreLanes(out, i, count, _mm256_sqrt_pd(acc));
  }
}

template <bool kBounded>
void ManhattanAvx2(const double* query, const double* data, size_t stride,
                   size_t dim, size_t count, double cutoff, double* out) {
  const __m256d cut = _mm256_set1_pd(cutoff);
  for (size_t i = 0; i < count; i += kLanes) {
    const int dead = 0xF & ~LiveLanes(i, count);
    __m256d acc = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m256d qd = _mm256_set1_pd(query[d]);
      const __m256d pts = _mm256_loadu_pd(data + d * stride + i);
      acc = _mm256_add_pd(acc, Abs(_mm256_sub_pd(qd, pts)));
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(acc, cut) | dead) == 0xF) break;
      }
    }
    StoreLanes(out, i, count, acc);
  }
}

template <bool kBounded>
void ChebyshevAvx2(const double* query, const double* data, size_t stride,
                   size_t dim, size_t count, double cutoff, double* out) {
  const __m256d cut = _mm256_set1_pd(cutoff);
  for (size_t i = 0; i < count; i += kLanes) {
    const int dead = 0xF & ~LiveLanes(i, count);
    __m256d best = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m256d qd = _mm256_set1_pd(query[d]);
      const __m256d pts = _mm256_loadu_pd(data + d * stride + i);
      const __m256d diff = Abs(_mm256_sub_pd(qd, pts));
      // max(diff, best): returns `best` when equal or unordered, matching
      // the scalar `if (diff > best) best = diff`.
      best = _mm256_max_pd(diff, best);
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) &&
            (PastCutoff(best, cut) | dead) == 0xF) break;
      }
    }
    StoreLanes(out, i, count, best);
  }
}

const KernelSet kAvx2Set = {
    "avx2",
    kLanes,
    ExactScan<EuclideanAvx2<false>>,
    ExactScan<ManhattanAvx2<false>>,
    ExactScan<ChebyshevAvx2<false>>,
    EuclideanAvx2<true>,
    ManhattanAvx2<true>,
    ChebyshevAvx2<true>};

}  // namespace

namespace internal {
const KernelSet& Avx2KernelSetImpl() { return kAvx2Set; }
}  // namespace internal

}  // namespace simd
}  // namespace fkc

#endif  // __AVX2__
