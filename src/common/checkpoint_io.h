// Shared reader/writer for the text parts of the checkpoint formats: the
// core window checkpoint's header (fkc-checkpoint-v2) and the serving
// layer's fleet, delta, spill-file and log-segment framings.
// Whitespace-separated tokens, hex-float doubles for bit-exact round trips,
// and length-prefixed raw byte segments, which carry binary payloads such as
// the v2 window body opaquely. One parser for all of them so limit and
// float-parsing semantics cannot drift apart.
#ifndef FKC_COMMON_CHECKPOINT_IO_H_
#define FKC_COMMON_CHECKPOINT_IO_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "common/status.h"

namespace fkc {

/// Sequential position-based reader over a checkpoint string. Typed token
/// extraction plus raw segments; every method fails with kInvalidArgument on
/// malformed or truncated input.
class CheckpointReader {
 public:
  /// `bytes` must outlive the reader.
  explicit CheckpointReader(const std::string& bytes) : bytes_(bytes) {}

  Status NextToken(std::string* out);
  Status NextInt(int64_t* out);
  Status NextDouble(double* out);  ///< strtod semantics: %a hex floats exact

  /// Bytes left to read. Every serialized element occupies at least one
  /// byte, so readers use this to bound element counts before resizing —
  /// a forged count in a tiny blob must fail, not allocate gigabytes.
  size_t Remaining() const { return bytes_.size() - pos_; }

  /// A length-prefixed raw byte segment: "<len> <len bytes>". The bytes may
  /// contain anything, including whitespace.
  Status NextRaw(std::string* out, size_t limit = 1u << 30);
  /// The same segment as a view into the reader's bytes, without a copy.
  Status NextRaw(std::string_view* out, size_t limit = 1u << 30);

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
  }
  void SkipSpace();
  /// A non-negative count bounded by `limit` (rejects implausible sizes
  /// before any allocation): a raw segment's length.
  Status NextSize(size_t* out, size_t limit);

  const std::string& bytes_;
  size_t pos_ = 0;
};

/// Writes `value` as a hex float ("%a"), the exact inverse of NextDouble,
/// followed by the token separator.
void WriteCheckpointDouble(std::ostringstream* out, double value);

/// Writes a raw byte segment in the length-prefixed form NextRaw reads.
void WriteCheckpointRaw(std::ostringstream* out, const std::string& bytes);
/// The same segment, appended to a string.
void WriteCheckpointRaw(std::string* out, std::string_view bytes);
/// The same segment, whose `size` bytes `fill(out)` appends to `out` in
/// place (FKC_CHECKed), so a large segment is written once, into the
/// string that holds it, with no buffer to copy from.
template <typename Fill>
void WriteCheckpointRaw(std::string* out, size_t size, Fill&& fill) {
  *out += std::to_string(size);
  *out += ' ';
  out->reserve(out->size() + size + 1);
  const size_t start = out->size();
  fill(out);
  FKC_CHECK_EQ(out->size() - start, size);
  *out += ' ';
}

}  // namespace fkc

#endif  // FKC_COMMON_CHECKPOINT_IO_H_
