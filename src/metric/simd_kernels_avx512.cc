// AVX-512 kernels: 8 pairs per 512-bit vector, lane-per-pair. Compiled with
// -mavx512f -ffp-contract=off (see CMakeLists.txt); never executed unless
// ActiveKernels() saw cpuid report AVX-512F. No FMA anywhere — the scalar
// path rounds after the multiply and after the add, and these kernels must
// match it bit for bit. The kernels are simd_kernels_vector.h's bodies.
#include "metric/simd_kernels.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cstdint>

#include "metric/simd_kernels_vector.h"

namespace fkc {
namespace simd {
namespace {

struct Avx512Ops {
  using Double = __m512d;
  using Float = __m512;
  using Index = __m512i;
  using Mask = __mmask8;
  using Unordered = __mmask8;
  static constexpr const char* kName = "avx512";
  static constexpr size_t kLanes = 8;
  static constexpr size_t kFloatLanes = 16;
  static constexpr size_t kScanChains = 2;
  static constexpr size_t kTileRows = 8;
  static constexpr size_t kShadowChains = 4;
  static constexpr Mask kAllLanes = 0xFF;
  static Double Set1(double x) { return _mm512_set1_pd(x); }
  static Float Set1(float x) { return _mm512_set1_ps(x); }
  static Index Set1(int64_t x) { return _mm512_set1_epi64(x); }
  static Double Load(const double* p) { return _mm512_loadu_pd(p); }
  static Float Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(double* p, Double v) { _mm512_storeu_pd(p, v); }
  static void StoreAligned(double* p, Double v) { _mm512_store_pd(p, v); }
  static void StoreAligned(int64_t* p, Index v) { _mm512_store_si512(p, v); }
  // The low `rem` (1..7) lanes.
  static Mask TailMask(size_t rem) {
    return static_cast<Mask>((1u << rem) - 1u);
  }
  static void StoreTail(double* p, size_t rem, Double v) {
    _mm512_mask_storeu_pd(p, TailMask(rem), v);
  }
  static Double Sub(Double a, Double b) { return _mm512_sub_pd(a, b); }
  static Float Sub(Float a, Float b) { return _mm512_sub_ps(a, b); }
  static Double Add(Double a, Double b) { return _mm512_add_pd(a, b); }
  static Float Add(Float a, Float b) { return _mm512_add_ps(a, b); }
  static Double Mul(Double a, Double b) { return _mm512_mul_pd(a, b); }
  static Float Mul(Float a, Float b) { return _mm512_mul_ps(a, b); }
  static Double Sqrt(Double v) { return _mm512_sqrt_pd(v); }
  static Float Sqrt(Float v) { return _mm512_sqrt_ps(v); }
  static Double Max(Double a, Double b) { return _mm512_max_pd(a, b); }
  static Float Max(Float a, Float b) { return _mm512_max_ps(a, b); }
  static Double Min(Double a, Double b) { return _mm512_min_pd(a, b); }
  // Bitwise |v| (clears the sign bit; exact for subnormals). GCC's
  // _mm512_abs_pd routes through an undefined-value intrinsic that trips
  // -Wmaybe-uninitialized, so spell out the and-not.
  static Double Abs(Double v) {
    return _mm512_castsi512_pd(_mm512_andnot_si512(
        _mm512_set1_epi64(INT64_MIN), _mm512_castpd_si512(v)));
  }
  static Float Abs(Float v) {
    return _mm512_castsi512_ps(_mm512_andnot_si512(
        _mm512_set1_epi32(INT32_MIN), _mm512_castps_si512(v)));
  }
  // Lanes whose partial is at or past the cutoff.
  static Mask PastCutoff(Double partial, Double cutoff) {
    return _mm512_cmp_pd_mask(partial, cutoff, _CMP_GE_OQ);
  }
  // Lanes of the block starting at pair i0 that hold live pairs.
  static Mask LiveLanes(size_t i0, size_t count) {
    return i0 + kLanes <= count ? kAllLanes : TailMask(count - i0);
  }
  static Double WidenLow(Float v) {
    return _mm512_cvtps_pd(_mm512_castps512_ps256(v));
  }
  static Double WidenHigh(Float v) {
    return _mm512_cvtps_pd(_mm256_castpd_ps(
        _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
  }
  // twin = float(diff) where |diff| = a <= max, else 0: the conversion
  // zeroes the other lanes.
  static void StoreTwin(float* twin, Double diff, Double a, Double max) {
    const Mask in_range = _mm512_cmp_pd_mask(a, max, _CMP_LE_OQ);
    _mm256_storeu_ps(twin, _mm512_maskz_cvtpd_ps(in_range, diff));
  }
  static Unordered NoneUnordered() { return 0; }
  static Unordered OrUnordered(Unordered nan, Double a) {
    return nan | _mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q);
  }
  static bool AnyUnordered(Unordered nan) { return nan != 0; }
  static Index LoadPositions(const int* p) {
    return _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static void KeepFarther(Double m, Index pos, Double* distance,
                          Index* position) {
    const Mask wins = _mm512_cmp_pd_mask(m, *distance, _CMP_GT_OQ) |
                      (_mm512_cmp_pd_mask(m, *distance, _CMP_EQ_OQ) &
                       _mm512_cmplt_epi64_mask(pos, *position));
    *distance = _mm512_mask_mov_pd(*distance, wins, m);
    *position = _mm512_mask_mov_epi64(*position, wins, pos);
  }
  static unsigned NearerColorLanes(Double d, const int* color,
                                   const double* color_distance) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(color));
    return _mm512_cmp_pd_mask(d, _mm512_i32gather_pd(c, color_distance, 8),
                              _CMP_LE_OQ);
  }
};

constexpr KernelSet kAvx512Set = vec::VectorKernelSet<Avx512Ops>();

}  // namespace

namespace internal {
const KernelSet& Avx512KernelSetImpl() { return kAvx512Set; }
}  // namespace internal

}  // namespace simd
}  // namespace fkc

#endif  // __AVX512F__
