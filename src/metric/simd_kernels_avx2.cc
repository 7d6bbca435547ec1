// AVX2 kernels: 4 pairs per 256-bit vector, lane-per-pair. Compiled with
// -mavx2 -ffp-contract=off (see CMakeLists.txt); never executed unless
// ActiveKernels() saw cpuid report AVX2. No FMA anywhere — the scalar path
// rounds after the multiply and after the add, and these kernels must
// match it bit for bit. The kernels are simd_kernels_vector.h's bodies.
#include "metric/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "metric/simd_kernels_vector.h"

namespace fkc {
namespace simd {
namespace {

struct Avx2Ops {
  using Double = __m256d;
  using Float = __m256;
  using Index = __m256i;
  using Mask = int;
  using Unordered = __m256d;
  static constexpr const char* kName = "avx2";
  static constexpr size_t kLanes = 4;
  static constexpr size_t kFloatLanes = 8;
  static constexpr size_t kScanChains = 1;
  static constexpr size_t kTileRows = 4;
  static constexpr size_t kShadowChains = 4;
  static constexpr Mask kAllLanes = 0xF;
  static Double Set1(double x) { return _mm256_set1_pd(x); }
  static Float Set1(float x) { return _mm256_set1_ps(x); }
  static Index Set1(int64_t x) { return _mm256_set1_epi64x(x); }
  static Double Load(const double* p) { return _mm256_loadu_pd(p); }
  static Float Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(double* p, Double v) { _mm256_storeu_pd(p, v); }
  static void StoreAligned(double* p, Double v) { _mm256_store_pd(p, v); }
  static void StoreAligned(int64_t* p, Index v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  // Stores the low `rem` (1..3) lanes.
  static void StoreTail(double* p, size_t rem, Double v) {
    alignas(32) long long mask[kLanes] = {0, 0, 0, 0};
    for (size_t i = 0; i < rem; ++i) mask[i] = -1;
    _mm256_maskstore_pd(
        p, _mm256_load_si256(reinterpret_cast<const __m256i*>(mask)), v);
  }
  static Double Sub(Double a, Double b) { return _mm256_sub_pd(a, b); }
  static Float Sub(Float a, Float b) { return _mm256_sub_ps(a, b); }
  static Double Add(Double a, Double b) { return _mm256_add_pd(a, b); }
  static Float Add(Float a, Float b) { return _mm256_add_ps(a, b); }
  static Double Mul(Double a, Double b) { return _mm256_mul_pd(a, b); }
  static Float Mul(Float a, Float b) { return _mm256_mul_ps(a, b); }
  static Double Sqrt(Double v) { return _mm256_sqrt_pd(v); }
  static Float Sqrt(Float v) { return _mm256_sqrt_ps(v); }
  static Double Max(Double a, Double b) { return _mm256_max_pd(a, b); }
  static Float Max(Float a, Float b) { return _mm256_max_ps(a, b); }
  static Double Min(Double a, Double b) { return _mm256_min_pd(a, b); }
  static Double Abs(Double v) { return _mm256_andnot_pd(Set1(-0.0), v); }
  static Float Abs(Float v) { return _mm256_andnot_ps(Set1(-0.0f), v); }
  // Bit i set when lane i's partial is at or past the cutoff.
  static Mask PastCutoff(Double partial, Double cutoff) {
    return _mm256_movemask_pd(_mm256_cmp_pd(partial, cutoff, _CMP_GE_OQ));
  }
  // Bit i set when lane i is live in the block starting at pair i0.
  static Mask LiveLanes(size_t i0, size_t count) {
    return i0 + kLanes <= count ? kAllLanes : (1 << (count - i0)) - 1;
  }
  static Double WidenLow(Float v) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  }
  static Double WidenHigh(Float v) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }
  // twin = float(diff) where |diff| = a <= max, else 0: the lanes are
  // masked before the conversion.
  static void StoreTwin(float* twin, Double diff, Double a, Double max) {
    const Double in_range = _mm256_cmp_pd(a, max, _CMP_LE_OQ);
    _mm_storeu_ps(twin, _mm256_cvtpd_ps(_mm256_and_pd(diff, in_range)));
  }
  static Unordered NoneUnordered() { return _mm256_setzero_pd(); }
  static Unordered OrUnordered(Unordered nan, Double a) {
    return _mm256_or_pd(nan, _mm256_cmp_pd(a, a, _CMP_UNORD_Q));
  }
  static bool AnyUnordered(Unordered nan) {
    return _mm256_movemask_pd(nan) != 0;
  }
  // Positions widened to 64 bits, so one mask serves both blends.
  static Index LoadPositions(const int* p) {
    return _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void KeepFarther(Double m, Index pos, Double* distance,
                          Index* position) {
    const Double wins = _mm256_or_pd(
        _mm256_cmp_pd(m, *distance, _CMP_GT_OQ),
        _mm256_and_pd(
            _mm256_cmp_pd(m, *distance, _CMP_EQ_OQ),
            _mm256_castsi256_pd(_mm256_cmpgt_epi64(*position, pos))));
    *distance = _mm256_blendv_pd(*distance, m, wins);
    *position = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(*position), _mm256_castsi256_pd(pos), wins));
  }
  static unsigned NearerColorLanes(Double d, const int* color,
                                   const double* color_distance) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(color));
    // The masked form with every lane on: GCC's plain gather starts from
    // an undefined vector and trips -Wmaybe-uninitialized.
    const Double entry = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), color_distance, c,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(d, entry, _CMP_LE_OQ)));
  }
};

constexpr KernelSet kAvx2Set = vec::VectorKernelSet<Avx2Ops>();

}  // namespace

namespace internal {
const KernelSet& Avx2KernelSetImpl() { return kAvx2Set; }
}  // namespace internal

}  // namespace simd
}  // namespace fkc

#endif  // __AVX2__
