// Checkpoint I/O and validation for SlidingWindowOptions and the objective
// tag, shared by the core window checkpoint's text header (fkc-checkpoint-v2)
// and the serving layer's fleet formats (fkc-shards-v2/v3 and the
// incremental deltas): one writer, one reader, and one validator, so the
// field order, the hex-float encoding, and the notion of "plausible
// options" cannot drift between layers.
#ifndef FKC_CORE_OPTIONS_IO_H_
#define FKC_CORE_OPTIONS_IO_H_

#include <sstream>
#include <vector>

#include "common/checkpoint_io.h"
#include "common/status.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/color_constraint.h"

namespace fkc {

/// Upper bound on any guess-ladder rung exponent a checkpoint may carry (or
/// a fixed distance range may imply). Any honest exponent is tiny — |e| well
/// under the double exponent range — so values past this are corruption, not
/// configuration; they must be rejected before the int64 -> int narrowing
/// (which would alias modulo 2^32 into plausible rungs) and before the
/// one-GuessStructure-per-rung allocation blow-up. One constant shared by
/// the options validator, the core checkpoint reader, and the serving-layer
/// fleet formats, so the bound cannot drift between layers.
constexpr int64_t kMaxLadderExponent = 1 << 12;

/// The finest guess ladder a window accepts. From 1 + kMinBeta on, every
/// finite positive distance lies within the ladder's exponent range and
/// consecutive rungs differ by far more than its rounding tolerance, so a
/// rung lookup takes a step or two; a finer ratio (a forged beta of 5e-324
/// reads as a ratio of 1) would walk the ladder for minutes.
constexpr double kMinBeta = 1e-6;

/// Upper bound on a plausible checkpointed color count.
constexpr int64_t kMaxCheckpointColors = 1 << 20;

/// Reads and validates the "<ell> <caps...>" constraint block shared by the
/// core checkpoint and the serving layer's fleet/delta formats: ell in
/// [1, kMaxCheckpointColors], no negative cap, at least one positive cap
/// (an all-zero constraint would abort the window constructor downstream),
/// and caps summing to at most INT_MAX (ColorConstraint's precondition).
Status ReadColorCaps(CheckpointReader* reader, std::vector<int>* caps);

/// Writes the constraint block ReadColorCaps reads.
void WriteColorCaps(std::ostringstream* out, const ColorConstraint& c);

/// Rejects options that a FairCenterSlidingWindow cannot be built from —
/// the exact set the constructor would otherwise abort on via CHECK
/// (window_size >= 1, finite delta > 0, finite beta >= kMinBeta for the
/// guess ladder, variant in range, and in fixed-range mode finite bounds with
/// 0 < d_min <= d_max). Checkpoint readers run this before constructing
/// anything, so a corrupted or adversarial blob surfaces as kInvalidArgument
/// instead of a process abort. num_threads is an execution knob and is not
/// validated.
Status ValidateSlidingWindowOptions(const SlidingWindowOptions& options);

/// Writes the checkpointed option fields in the fixed field order
/// (window_size, beta, delta, variant, adaptive_range, d_min, d_max, the
/// adaptive slack, warm_start_new_guesses), hex-float doubles. The slack is
/// always the token 1: adaptive mode keeps one guess exponent above the
/// estimated range, and readers reject any other value.
/// num_threads is deliberately excluded: results are bit-identical at any
/// thread count, so it is not state.
void WriteSlidingWindowOptions(std::ostringstream* out,
                               const SlidingWindowOptions& options);

/// Reads the fields WriteSlidingWindowOptions wrote and validates them.
/// `out->num_threads` is left untouched. Fails with kInvalidArgument on
/// malformed, truncated, or implausible input.
Status ReadSlidingWindowOptions(CheckpointReader* reader,
                                SlidingWindowOptions* out);

/// True when two option sets serialize identically, i.e. agree on every
/// checkpointed field (num_threads, the execution knob, is ignored). The
/// serving layer uses this to decide whether a tenant override actually
/// deviates from the fleet template.
bool SameCheckpointedOptions(const SlidingWindowOptions& a,
                             const SlidingWindowOptions& b);

}  // namespace fkc

#endif  // FKC_CORE_OPTIONS_IO_H_
