// Portable reference kernels + runtime CPU dispatch. This translation unit
// is built with the project's baseline flags (no -mavx*), so the scalar
// path — and the dispatch logic itself — runs on any target.
#include "metric/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/logging.h"

namespace fkc {
namespace simd {

namespace internal {
// Defined in the per-ISA translation units; only referenced when the build
// compiled them in (CMake defines FKC_HAVE_AVX2 / FKC_HAVE_AVX512F).
const KernelSet& Avx2KernelSetImpl();
const KernelSet& Avx512KernelSetImpl();
}  // namespace internal

namespace {

// Dimension-outer, point-inner traversal: each pass streams one contiguous
// row, and out[i] carries pair i's running sum — ascending-dimension
// accumulation per pair, exactly like the scalar Distance loop (and
// auto-vectorizable without changing any pair's rounding). A bounded scan
// walks the points in blocks of kLaneAlign so it can abandon one block at a
// time; the exact scan takes them all as one block.
template <bool kBounded>
size_t ScalarBlock(size_t count) {
  return kBounded ? CoordinatePool::kLaneAlign : count;
}

// True when every partial of the block is at or past the cutoff (a NaN
// partial never is).
inline bool AllPastCutoff(const double* partial, size_t n, double cutoff) {
  for (size_t i = 0; i < n; ++i) {
    if (!(partial[i] >= cutoff)) return false;
  }
  return true;
}

// One policy per metric: a pair's per-dimension term, given the pair's
// coordinate difference (Add) or its two coordinates (Step), and its final
// step, in double for the exact kernels and in float for the shadow ones.
struct EuclideanTerm {
  template <typename T>
  static T Add(T acc, T diff) {
    return acc + diff * diff;
  }
  template <typename T>
  static T Step(T acc, T qd, T x) {
    return Add(acc, qd - x);
  }
  template <typename T>
  static T Finish(T acc) {
    return std::sqrt(acc);
  }
};

struct ManhattanTerm {
  template <typename T>
  static T Add(T acc, T diff) {
    return acc + std::fabs(diff);
  }
  template <typename T>
  static T Step(T acc, T qd, T x) {
    return Add(acc, qd - x);
  }
  template <typename T>
  static T Finish(T acc) {
    return acc;
  }
};

struct ChebyshevTerm {
  template <typename T>
  static T Add(T best, T diff) {
    const T a = std::fabs(diff);
    return a > best ? a : best;
  }
  template <typename T>
  static T Step(T best, T qd, T x) {
    return Add(best, qd - x);
  }
  template <typename T>
  static T Finish(T best) {
    return best;
  }
};

template <typename Term, bool kBounded>
void ScanScalar(const double* query, const double* data, size_t stride,
                size_t dim, size_t count, double cutoff, double* out) {
  const size_t block = ScalarBlock<kBounded>(count);
  for (size_t first = 0; first < count; first += block) {
    const size_t n = std::min(block, count - first);
    double* acc = out + first;
    std::fill(acc, acc + n, 0.0);
    for (size_t d = 0; d < dim; ++d) {
      const double* row = data + d * stride + first;
      const double qd = query[d];
      for (size_t i = 0; i < n; ++i) acc[i] = Term::Step(acc[i], qd, row[i]);
      if constexpr (kBounded) {
        if (IsBoundCheckDim(d, dim) && AllPastCutoff(acc, n, cutoff)) break;
      }
    }
    for (size_t i = 0; i < n; ++i) acc[i] = Term::Finish(acc[i]);
  }
}

// The exact scan's traversal in float, over chunks of one block's lanes
// whose running sums stay on the stack.
template <typename Term>
void ShadowScalar(const float* query, const float* data, size_t stride,
                  size_t dim, size_t count, double* out) {
  constexpr size_t kChunk = CoordinatePool::kBlockLanes;
  float acc[kChunk];
  for (size_t first = 0; first < count; first += kChunk) {
    const size_t n = std::min(kChunk, count - first);
    std::fill(acc, acc + n, 0.0f);
    for (size_t d = 0; d < dim; ++d) {
      const float* row = data + d * stride + first;
      const float qd = query[d];
      for (size_t i = 0; i < n; ++i) acc[i] = Term::Step(acc[i], qd, row[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      out[first + i] = static_cast<double>(Term::Finish(acc[i]));
    }
  }
}

// The dimension-outer traversal of the single-row scan, with every query
// of the tile applied to row d while it is in L1: each output row carries
// its pairs' running sums, in ascending dimension order.
constexpr size_t kScalarTileRows = kMaxTileRows;

template <typename Term>
void TileScalar(const double* const* queries, size_t rows, const double* data,
                size_t stride, size_t dim, size_t count, size_t out_stride,
                double* out) {
  for (size_t first = 0; first < rows; first += kScalarTileRows) {
    const size_t tile = std::min(kScalarTileRows, rows - first);
    double* tile_out = out + first * out_stride;
    for (size_t r = 0; r < tile; ++r) {
      std::fill(tile_out + r * out_stride, tile_out + r * out_stride + count,
                0.0);
    }
    for (size_t d = 0; d < dim; ++d) {
      const double* row = data + d * stride;
      for (size_t r = 0; r < tile; ++r) {
        const double qd = queries[first + r][d];
        double* acc = tile_out + r * out_stride;
        for (size_t i = 0; i < count; ++i) {
          acc[i] = Term::Step(acc[i], qd, row[i]);
        }
      }
    }
    for (size_t r = 0; r < tile; ++r) {
      double* acc = tile_out + r * out_stride;
      for (size_t i = 0; i < count; ++i) acc[i] = Term::Finish(acc[i]);
    }
  }
}

// The head pass, one slot at a time in slot order: the fold is a select,
// not a branch, so a pass does not mispredict on the ~half of the points
// the new head is nearer to.
template <bool kColors>
Farthest HeadPassScalar(const double* row, const int* position,
                        const int* color, size_t count, double* nearest,
                        double* color_distance, int* color_index) {
  Farthest farthest = {0.0, -1};
  for (size_t s = 0; s < count; ++s) {
    const double m = row[s] < nearest[s] ? row[s] : nearest[s];
    nearest[s] = m;
    internal::KeepFarthest({m, position[s]}, &farthest);
    if constexpr (kColors) {
      internal::KeepNearestColor(row, position, color, s, color_distance,
                                 color_index);
    }
  }
  return farthest;
}

Farthest HeadPass(const double* row, const int* position, const int* color,
                  size_t count, double* nearest, double* color_distance,
                  int* color_index) {
  return color != nullptr
             ? HeadPassScalar<true>(row, position, color, count, nearest,
                                    color_distance, color_index)
             : HeadPassScalar<false>(row, position, color, count, nearest,
                                     color_distance, color_index);
}

double TwinRow(const double* row, double reference, size_t count,
               float* twin, double extent) {
  constexpr double kMax = std::numeric_limits<float>::max();
  int nan = 0;
  for (size_t i = 0; i < count; ++i) {
    const double diff = row[i] - reference;
    const double a = std::fabs(diff);
    twin[i] = a <= kMax ? static_cast<float>(diff) : 0.0f;
    extent = a > extent ? a : extent;
    nan |= a != a;
  }
  return nan != 0 ? std::numeric_limits<double>::infinity() : extent;
}

uint64_t BitsOf(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleOf(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

const KernelSet kScalarSet = {
    "scalar",
    1,
    kScalarTileRows,
    {{ExactScan<ScanScalar<EuclideanTerm, false>>,
      ScanScalar<EuclideanTerm, true>, TileScalar<EuclideanTerm>,
      ShadowScalar<EuclideanTerm>},
     {ExactScan<ScanScalar<ManhattanTerm, false>>,
      ScanScalar<ManhattanTerm, true>, TileScalar<ManhattanTerm>,
      ShadowScalar<ManhattanTerm>},
     {ExactScan<ScanScalar<ChebyshevTerm, false>>,
      ScanScalar<ChebyshevTerm, true>, TileScalar<ChebyshevTerm>,
      ShadowScalar<ChebyshevTerm>}},
    HeadPass,
    TwinRow};

bool CpuHasAvx2() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool CpuHasAvx512f() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

const KernelSet* PickActive() {
  const char* env = std::getenv("FKC_SIMD");
  const std::string want = env == nullptr ? "" : env;
  if (want == "scalar") return &kScalarSet;
  const KernelSet* best = &kScalarSet;
  bool matched = want.empty();
  for (const KernelSet* set : CompiledKernelSets()) {
    if (want == set->name) matched = true;  // known name, maybe unsupported
    if (!CpuSupports(*set)) continue;
    if (want == set->name) return set;  // exact requested match
    // A named-but-unsupported request falls back to the widest set.
    if (set->lanes > best->lanes) best = set;
  }
  // Loud fallback: a typo like FKC_SIMD=Scalar silently running AVX-512
  // would make any scalar-vs-SIMD comparison vacuous.
  if (!matched) {
    FKC_LOG(Warning) << "unrecognized FKC_SIMD='" << want
                     << "' (compiled sets: scalar"
#ifdef FKC_HAVE_AVX2
                     << ", avx2"
#endif
#ifdef FKC_HAVE_AVX512F
                     << ", avx512"
#endif
                     << "); using widest supported set '" << best->name << "'";
  }
  return best;
}

}  // namespace

namespace internal {

void KeepFarthest(Farthest candidate, Farthest* best) {
  if (candidate.distance > best->distance ||
      (candidate.distance == best->distance &&
       candidate.position < best->position)) {
    *best = candidate;
  }
}

void KeepNearestColor(const double* row, const int* position,
                      const int* color, size_t s, double* color_distance,
                      int* color_index) {
  const int c = color[s];
  if (row[s] < color_distance[c] ||
      (row[s] == color_distance[c] && position[s] < color_index[c])) {
    color_distance[c] = row[s];
    color_index[c] = position[s];
  }
}

}  // namespace internal

double SquaredDistanceCutoff(double bound) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(bound < kInf)) return std::numeric_limits<double>::quiet_NaN();
  if (bound < 0.0) return 0.0;  // fl(sqrt(0)) = 0 is already past it
  // fl(sqrt) is monotone, so the cutoff is one boundary in the ordered
  // doubles, and the bit patterns of non-negative doubles order like their
  // values: one ulp is one bit pattern. When bound^2 is a finite normal the
  // boundary lies an ulp or two above it (fl(sqrt(fl(b * b))) == b there,
  // so the first test normally fails): step onto it.
  const double square = bound * bound;
  if (square >= std::numeric_limits<double>::min() && square < kInf) {
    uint64_t bits = BitsOf(square);
    if (std::sqrt(square) > bound) {
      while (std::sqrt(DoubleOf(bits - 1)) > bound) --bits;
    } else {
      do {
        ++bits;
      } while (!(std::sqrt(DoubleOf(bits)) > bound));
    }
    return DoubleOf(bits);
  }
  // A subnormal or overflowing square: bisect the bit patterns of [0, +inf]
  // (fl(sqrt(+inf)) > bound).
  uint64_t lo = 0;
  uint64_t hi = BitsOf(kInf);
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (std::sqrt(DoubleOf(mid)) > bound) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return DoubleOf(lo);
}

double DistanceCutoff(double bound) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(bound < kInf)) return std::numeric_limits<double>::quiet_NaN();
  // The next double up: +-0 goes to the smallest subnormal, a positive
  // value one bit pattern up, a negative one (down to -inf) one down.
  if (bound == 0.0) return std::numeric_limits<double>::denorm_min();
  const uint64_t bits = BitsOf(bound);
  return DoubleOf(bound > 0.0 ? bits + 1 : bits - 1);
}

double CutoffOf(Norm norm, double bound) {
  return norm == Norm::kEuclidean ? SquaredDistanceCutoff(bound)
                                  : DistanceCutoff(bound);
}

const KernelSet& ScalarKernels() { return kScalarSet; }

std::vector<const KernelSet*> CompiledKernelSets() {
  std::vector<const KernelSet*> sets = {&kScalarSet};
#ifdef FKC_HAVE_AVX2
  sets.push_back(&internal::Avx2KernelSetImpl());
#endif
#ifdef FKC_HAVE_AVX512F
  sets.push_back(&internal::Avx512KernelSetImpl());
#endif
  return sets;
}

bool CpuSupports(const KernelSet& set) {
  if (std::strcmp(set.name, "scalar") == 0) return true;
  if (std::strcmp(set.name, "avx2") == 0) return CpuHasAvx2();
  if (std::strcmp(set.name, "avx512") == 0) return CpuHasAvx512f();
  return false;
}

const KernelSet& ActiveKernels() {
  static const KernelSet* active = PickActive();
  return *active;
}

}  // namespace simd
}  // namespace fkc
