#include "core/options_io.h"

#include <climits>
#include <cmath>

namespace fkc {

Status ReadColorCaps(CheckpointReader* reader, std::vector<int>* caps) {
  int64_t ell = 0;
  FKC_RETURN_IF_ERROR(reader->NextInt(&ell));
  if (ell < 1 || ell > kMaxCheckpointColors) {
    return Status::InvalidArgument("implausible color count in checkpoint");
  }
  caps->assign(static_cast<size_t>(ell), 0);
  int64_t total_k = 0;
  for (int& cap : *caps) {
    int64_t value = 0;
    FKC_RETURN_IF_ERROR(reader->NextInt(&value));
    if (value < 0) {
      return Status::InvalidArgument("negative cap in checkpoint");
    }
    // Bounded before the narrowing, and k = sum of caps must fit the int
    // ColorConstraint keeps it in.
    if (value > INT_MAX || total_k + value > INT_MAX) {
      return Status::InvalidArgument("caps in checkpoint sum past INT_MAX");
    }
    cap = static_cast<int>(value);
    total_k += value;
  }
  if (total_k < 1) {
    return Status::InvalidArgument("all-zero caps in checkpoint");
  }
  return Status::OK();
}

void WriteColorCaps(std::ostringstream* out, const ColorConstraint& c) {
  *out << c.ell() << ' ';
  for (int cap : c.caps()) *out << cap << ' ';
}

Status ValidateSlidingWindowOptions(const SlidingWindowOptions& options) {
  if (options.window_size < 1) {
    return Status::InvalidArgument("window_size must be >= 1");
  }
  if (!std::isfinite(options.delta) || options.delta <= 0.0) {
    return Status::InvalidArgument("delta must be finite and > 0");
  }
  if (!std::isfinite(options.beta) || !(options.beta >= kMinBeta)) {
    return Status::InvalidArgument(
        "beta must be finite and >= 1e-6 (guess ladder ratio is 1 + beta)");
  }
  const int variant = static_cast<int>(options.variant);
  if (variant < 0 || variant > 1) {
    return Status::InvalidArgument("unknown core variant");
  }
  if (!options.adaptive_range) {
    if (!std::isfinite(options.d_min) || !std::isfinite(options.d_max) ||
        options.d_min <= 0.0 || options.d_max < options.d_min) {
      return Status::InvalidArgument(
          "fixed-range mode requires finite 0 < d_min <= d_max");
    }
    // Bound the ladder the constructor will materialize from this range:
    // log_{1+beta}(d) is the rung index, one GuessStructure per rung.
    constexpr double kMaxExponent = static_cast<double>(kMaxLadderExponent);
    const double log_base = std::log1p(options.beta);
    if (std::fabs(std::log(options.d_min)) / log_base > kMaxExponent ||
        std::fabs(std::log(options.d_max)) / log_base > kMaxExponent) {
      return Status::InvalidArgument(
          "fixed-range guess ladder exceeds the exponent bound");
    }
  }
  return Status::OK();
}

void WriteSlidingWindowOptions(std::ostringstream* out,
                               const SlidingWindowOptions& options) {
  *out << options.window_size << ' ';
  WriteCheckpointDouble(out, options.beta);
  WriteCheckpointDouble(out, options.delta);
  *out << static_cast<int>(options.variant) << ' '
       << (options.adaptive_range ? 1 : 0) << ' ';
  WriteCheckpointDouble(out, options.d_min);
  WriteCheckpointDouble(out, options.d_max);
  // The adaptive slack is fixed at one exponent; the token keeps the bytes.
  *out << 1 << ' ' << (options.warm_start_new_guesses ? 1 : 0) << ' ';
}

Status ReadSlidingWindowOptions(CheckpointReader* reader,
                                SlidingWindowOptions* out) {
  int64_t variant = 0, adaptive = 0, slack = 0, warm = 0;
  FKC_RETURN_IF_ERROR(reader->NextInt(&out->window_size));
  FKC_RETURN_IF_ERROR(reader->NextDouble(&out->beta));
  FKC_RETURN_IF_ERROR(reader->NextDouble(&out->delta));
  FKC_RETURN_IF_ERROR(reader->NextInt(&variant));
  FKC_RETURN_IF_ERROR(reader->NextInt(&adaptive));
  FKC_RETURN_IF_ERROR(reader->NextDouble(&out->d_min));
  FKC_RETURN_IF_ERROR(reader->NextDouble(&out->d_max));
  FKC_RETURN_IF_ERROR(reader->NextInt(&slack));
  FKC_RETURN_IF_ERROR(reader->NextInt(&warm));
  if (variant < 0 || variant > 1) {
    return Status::InvalidArgument("bad variant in checkpoint");
  }
  out->variant = static_cast<CoreVariant>(variant);
  out->adaptive_range = adaptive != 0;
  if (slack != 1) {
    return Status::InvalidArgument("adaptive slack other than 1 in checkpoint");
  }
  out->warm_start_new_guesses = warm != 0;
  return ValidateSlidingWindowOptions(*out);
}

bool SameCheckpointedOptions(const SlidingWindowOptions& a,
                             const SlidingWindowOptions& b) {
  // Doubles compare by value representation (what the hex-float round trip
  // preserves); NaN never validates, so bitwise concerns do not arise.
  return a.window_size == b.window_size && a.beta == b.beta &&
         a.delta == b.delta && a.variant == b.variant &&
         a.adaptive_range == b.adaptive_range && a.d_min == b.d_min &&
         a.d_max == b.d_max &&
         a.warm_start_new_guesses == b.warm_start_new_guesses;
}

}  // namespace fkc
