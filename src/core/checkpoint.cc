// Checkpoint serialization for FairCenterSlidingWindow (declared in
// fair_center_sliding_window.h).
//
// fkc-checkpoint-v2 (written and read): a short text header — the magic,
// then the options and color-cap tokens of core/options_io, shared with the
// serving layer's fleet formats — followed by one length-prefixed binary
// body (WriteCheckpointRaw / NextRaw). The body is little-endian and
// fixed-width:
//
//   i64 now, u64 next_id
//   adaptive only: u32 bucket count, then per bucket i32 exponent, i64 seen
//   u32 dim, u32 row count, then per row: dim f64 coordinates (raw bits),
//     u32 color, i64 arrival, u64 id — one row per distinct stored point
//     (the last point, entries, representatives, orphans), ascending arrival
//   u32 last point row (0xffffffff: none)
//   u32 guess count, then per guess: i32 exponent, v-entries, v-orphans,
//     c-entries, c-orphans; an entry list is a u32 count of
//     (u32 attractor row, u32 representative count, u32 rows...), a point
//     list a u32 count of u32 rows.
//
// The guesses reference overlapping subsets of the window's arena, so each
// distinct point is written (and validated) once and referenced by index:
// the writer dumps the referenced arena rows in slot order, which is
// arrival order, and the reader fills the restored window's arena straight
// from the table, so a row index is a slot.
//
// The reader validates everything it reads before constructing: a
// corrupted or adversarial blob must surface as kInvalidArgument, never as
// a CHECK abort downstream.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/checkpoint_io.h"
#include "common/logging.h"
#include "core/fair_center_sliding_window.h"
#include "core/options_io.h"

namespace fkc {
namespace {

constexpr const char* kMagicV2 = "fkc-checkpoint-v2";

/// Row reference meaning "no point" (the last point of an empty window);
/// the arena's "no slot", since a row index is a slot.
constexpr uint32_t kNoRow = PointArena::kNoSlot;

/// Upper bound on a plausible point dimension.
constexpr size_t kMaxDimension = 1u << 20;

/// Restore copies each attractor's coordinates into its guess's coordinate
/// pool, so a row referenced as the attractor of many families costs dim
/// coordinates per reference while the reference costs 8 body bytes. This
/// budget keeps those copies linear in the body length. Honest windows copy
/// well under one coordinate per body byte.
constexpr size_t kMaxCopiedCoordsPerBodyByte = 16;

// --- Binary body primitives: fixed-width little-endian, via memcpy. ---

/// True when doubles are stored little-endian, so the body's coordinate
/// bytes are their in-memory bytes.
constexpr bool kLittleEndianHost =
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;
#else
    false;
#endif

/// Appends to the checkpoint string, which is reserved up front to hold the
/// whole body (WriteCheckpointRaw's in-place form), so each byte is written
/// once. Fields gather in a small staging buffer, so the string sees one
/// append per few kilobytes; Finish appends what is left.
class BodyWriter {
 public:
  explicit BodyWriter(std::string* out) : out_(out) {}

  void U32(uint32_t value) { Put<4>(value); }
  void U64(uint64_t value) { Put<8>(value); }
  void I32(int32_t value) { U32(static_cast<uint32_t>(value)); }
  void I64(int64_t value) { U64(static_cast<uint64_t>(value)); }
  void F64(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  /// `n` doubles' raw bits: one bounds check and one block copy on a
  /// little-endian host, one field at a time elsewhere.
  void F64s(const double* values, size_t n) {
    if constexpr (kLittleEndianHost) {
      Bytes(reinterpret_cast<const char*>(values), n * sizeof(double));
    } else {
      for (size_t i = 0; i < n; ++i) F64(values[i]);
    }
  }
  void Finish() {
    out_->append(staged_, used_);
    used_ = 0;
  }

 private:
  template <size_t N>
  void Put(uint64_t value) {
    char buf[N];
    for (size_t i = 0; i < N; ++i) {
      buf[i] = static_cast<char>(value >> (8 * i));
    }
    Bytes(buf, N);
  }

  void Bytes(const char* bytes, size_t n) {
    if (used_ + n > sizeof(staged_)) {
      Finish();
      if (n > sizeof(staged_)) {
        out_->append(bytes, n);
        return;
      }
    }
    std::memcpy(staged_ + used_, bytes, n);
    used_ += n;
  }

  std::string* out_;
  char staged_[4096];
  size_t used_ = 0;
};

/// Reads with a sticky error: once a read runs past the end (or a count
/// cannot fit in what is left), every later read returns 0 and status()
/// reports the first failure. Counts fail before any allocation sized by
/// them, and 0 ends every loop, so callers check status() only where a
/// value read is about to be trusted.
class BodyReader {
 public:
  explicit BodyReader(std::string_view bytes) : bytes_(bytes) {}

  const Status& status() const { return status_; }
  size_t Remaining() const { return bytes_.size() - pos_; }

  uint32_t U32() { return static_cast<uint32_t>(Take<4>()); }
  uint64_t U64() { return Take<8>(); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    const uint64_t bits = U64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  /// A u32 element count whose elements occupy at least `min_bytes` each:
  /// a count the remaining body cannot hold fails here (and reads as 0).
  uint32_t Count(size_t min_bytes) {
    const uint32_t count = U32();
    if (count > Remaining() / min_bytes) {
      Fail("implausible count in checkpoint");
      return 0;
    }
    return count;
  }

 private:
  template <size_t N>
  uint64_t Take() {
    if (Remaining() < N) {
      Fail("truncated checkpoint body");
      return 0;
    }
    unsigned char buf[N];
    std::memcpy(buf, bytes_.data() + pos_, N);
    pos_ += N;
    uint64_t value = 0;
    for (size_t i = 0; i < N; ++i) {
      value |= static_cast<uint64_t>(buf[i]) << (8 * i);
    }
    return value;
  }

  void Fail(const char* message) {
    if (status_.ok()) status_ = Status::InvalidArgument(message);
    pos_ = bytes_.size();
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  Status status_;
};

// --- Validation. ---

// Per-point validation context: `ell` bounds the color (an out-of-range
// color would index out of the constraint's cap table).
struct PointBounds {
  int64_t ell = 0;
  int64_t now = 0;  ///< restored clock; stored arrivals may not exceed it
  std::optional<uint64_t> max_id;  ///< largest id read; next_id must exceed it
};

// One row of the point table as read, before it joins the arena. Every row
// has the table's dimension by layout.
struct PointFields {
  const double* coords;
  size_t dim;
  int color;
  int64_t arrival;
  uint64_t id;
};

Status CheckPoint(const PointFields& p, PointBounds* bounds) {
  // No honest window holds a zero-dimension point (the coordinate pools
  // abort on empty points long before serialization), and restoring one
  // would hit the same abort while rebuilding the pools.
  if (p.dim == 0) {
    return Status::InvalidArgument("zero-dimension point in checkpoint");
  }
  for (size_t d = 0; d < p.dim; ++d) {
    if (!std::isfinite(p.coords[d])) {
      return Status::InvalidArgument("non-finite coordinate in checkpoint");
    }
  }
  if (p.color < 0 || p.color >= bounds->ell) {
    return Status::InvalidArgument("point color outside constraint range");
  }
  // Arrivals are stamped from the window clock, so no stored arrival can
  // exceed the serialized now_ — a forged future arrival would never expire.
  if (p.arrival < 0 || p.arrival > bounds->now) {
    return Status::InvalidArgument("arrival outside the restored clock");
  }
  bounds->max_id = std::max(bounds->max_id.value_or(0), p.id);
  return Status::OK();
}

Status CheckEntries(const AttractorList& entries, const PointArena& arena) {
  for (size_t i = 0; i < entries.size(); ++i) {
    const int64_t arrival = arena.arrival(entries.attractor(i));
    // Every writer appends entries in arrival order and removes only the
    // oldest, and the restored coordinate pools expire by dropping their
    // front: entries out of order would desynchronize pool and entries.
    if (i > 0 && arrival <= arena.arrival(entries.attractor(i - 1))) {
      return Status::InvalidArgument(
          "attractor entries not ascending by arrival in checkpoint");
    }
    // A representative is its attractor or a later arrival attracted to it.
    // The expiry watermark reads only each list's front attractor, so an
    // older representative would be missed by expiry.
    bool older = false;
    entries.ForEachRep(
        i, [&](Slot rep) { older = older || arena.arrival(rep) < arrival; });
    if (older) {
      return Status::InvalidArgument(
          "representative older than its attractor in checkpoint");
    }
  }
  return Status::OK();
}

// --- Decoded state, filled by the reader, installed by DeserializeState. ---

struct DecodedGuess {
  int64_t exponent = 0;
  AttractorList v_entries, c_entries;
  std::vector<Slot> v_orphans, c_orphans;
};

struct DecodedState {
  int64_t now = 0;
  uint64_t next_id = 0;
  PointArena arena;
  Slot last = kNoRow;
  std::vector<std::pair<int64_t, int64_t>> buckets;
  std::vector<DecodedGuess> guesses;
};

// --- Reader. ---

Status ReadTableRows(BodyReader* body, PointBounds* bounds,
                     PointArena* arena) {
  const uint32_t dim = body->U32();
  if (dim > kMaxDimension) {
    return Status::InvalidArgument("implausible point dimension");
  }
  const uint32_t count = body->Count(8 * static_cast<size_t>(dim) + 20);
  FKC_RETURN_IF_ERROR(body->status());
  arena->Reset(dim, count);
  std::vector<double> coords(dim);
  for (uint32_t r = 0; r < count; ++r) {
    for (double& x : coords) x = body->F64();
    // Saturated, not wrapped: CheckPoint rejects it against ell either way.
    const int color = static_cast<int>(
        std::min<uint32_t>(body->U32(), std::numeric_limits<int>::max()));
    const int64_t arrival = body->I64();
    const uint64_t id = body->U64();
    FKC_RETURN_IF_ERROR(
        CheckPoint({coords.data(), dim, color, arrival, id}, bounds));
    // One row per distinct point, in the order ids and arrivals are
    // issued: a repeated id would make two rows claim one identity.
    if (r > 0 && (arrival <= arena->arrival(r - 1) || id <= arena->id(r - 1))) {
      return Status::InvalidArgument(
          "point table rows not ascending by arrival and id");
    }
    arena->Add(coords.data(), dim, color, arrival, id);
  }
  return body->status();
}

/// The structural rule of one family of one guess: a row is at most one
/// entry's attractor, and at most one representative or orphan. Each
/// arrival enters a family once, as a new attractor that is its own
/// representative or as one entry's representative. Expiry and Cleanup
/// only move a representative to the orphans or drop it, and the swap and
/// cap eviction only drop one, so no honest family references a row twice
/// in either role. Marks are stamped with the family's number, so the
/// check costs one pass over the references.
///
/// The rule is per family, so it does not stop one row from being the
/// attractor of every family: each attractor reference is also charged
/// its dimension against the copy budget (kMaxCopiedCoordsPerBodyByte).
class FamilyRefs {
 public:
  FamilyRefs(size_t rows, size_t dim, size_t copy_budget)
      : attractor_(rows, 0), member_(rows, 0), dim_(dim),
        copy_budget_(copy_budget) {}

  void NextFamily() { ++family_; }

  Status Attractor(Slot row) {
    FKC_RETURN_IF_ERROR(Mark(row, &attractor_));
    if (dim_ > copy_budget_) {
      return Status::InvalidArgument(
          "implausible attractor references in checkpoint");
    }
    copy_budget_ -= dim_;
    return Status::OK();
  }
  Status Member(Slot row) { return Mark(row, &member_); }

 private:
  Status Mark(Slot row, std::vector<uint32_t>* marks) {
    if (row >= marks->size()) {
      return Status::InvalidArgument("point row outside the table");
    }
    if ((*marks)[row] == family_) {
      return Status::InvalidArgument(
          "point row referenced twice in one family in checkpoint");
    }
    (*marks)[row] = family_;
    return Status::OK();
  }

  uint32_t family_ = 0;
  std::vector<uint32_t> attractor_, member_;
  size_t dim_;
  size_t copy_budget_;  ///< coordinates restore may still copy
};

Status ReadRowList(BodyReader* body, FamilyRefs* refs,
                   std::vector<Slot>* out) {
  out->resize(body->Count(4));
  for (Slot& row : *out) {
    row = body->U32();
    FKC_RETURN_IF_ERROR(refs->Member(row));
  }
  return Status::OK();
}

Status ReadEntryList(BodyReader* body, FamilyRefs* refs, AttractorList* out) {
  const uint32_t count = body->Count(8);
  for (uint32_t e = 0; e < count; ++e) {
    const Slot attractor = body->U32();
    FKC_RETURN_IF_ERROR(refs->Attractor(attractor));
    out->Push(attractor);
    const uint32_t reps = body->Count(4);
    for (uint32_t r = 0; r < reps; ++r) {
      const Slot rep = body->U32();
      FKC_RETURN_IF_ERROR(refs->Member(rep));
      out->AppendRep(e, rep);
    }
  }
  return Status::OK();
}

Status ReadBody(std::string_view bytes, bool adaptive, PointBounds* bounds,
                DecodedState* state) {
  BodyReader body(bytes);
  state->now = body.I64();
  state->next_id = body.U64();
  if (state->now < 0) {
    return Status::InvalidArgument("negative clock in checkpoint");
  }
  // Every arrival adds 1 to the clock and to the next id, which no window
  // runs near 2^63: past 2^62 either is forged, and later arrivals would
  // overflow the clock or wrap the ids below the stored ones.
  if (state->now > (int64_t{1} << 62) ||
      state->next_id > (uint64_t{1} << 62)) {
    return Status::InvalidArgument("clock or next id in checkpoint past 2^62");
  }
  bounds->now = state->now;

  if (adaptive) {
    state->buckets.resize(body.Count(12));
    for (auto& [exponent, seen] : state->buckets) {
      exponent = body.I32();
      seen = body.I64();
    }
  }

  FKC_RETURN_IF_ERROR(ReadTableRows(&body, bounds, &state->arena));
  state->last = body.U32();
  if (state->last != kNoRow && state->last >= state->arena.size()) {
    return Status::InvalidArgument("point row outside the table");
  }

  FamilyRefs refs(state->arena.size(), state->arena.dim(),
                  kMaxCopiedCoordsPerBodyByte * bytes.size());
  state->guesses.resize(body.Count(20));
  for (DecodedGuess& guess : state->guesses) {
    guess.exponent = body.I32();
    refs.NextFamily();
    FKC_RETURN_IF_ERROR(ReadEntryList(&body, &refs, &guess.v_entries));
    FKC_RETURN_IF_ERROR(ReadRowList(&body, &refs, &guess.v_orphans));
    refs.NextFamily();
    FKC_RETURN_IF_ERROR(ReadEntryList(&body, &refs, &guess.c_entries));
    FKC_RETURN_IF_ERROR(ReadRowList(&body, &refs, &guess.c_orphans));
  }
  FKC_RETURN_IF_ERROR(body.status());
  if (body.Remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in checkpoint body");
  }
  return Status::OK();
}

}  // namespace

std::string FairCenterSlidingWindow::SerializeState() const {
  std::ostringstream header;
  header << kMagicV2 << ' ';
  WriteSlidingWindowOptions(&header, options_);
  WriteColorCaps(&header, constraint_);

  // The table: the arena rows the last point and the guesses reference, in
  // slot order, so rows[s] is slot s's row.
  const std::vector<Slot> rows = NumberReferencedRows();
  const uint32_t row_count = static_cast<uint32_t>(
      rows.size() - std::count(rows.begin(), rows.end(), kNoRow));
  const size_t dim = row_count == 0 ? 0 : arena_.dim();

  const auto buckets = options_.adaptive_range
                           ? estimator_->DumpBuckets()
                           : std::vector<std::pair<int, int64_t>>{};
  const MemoryStats memory = Memory();
  // Each entry writes a representative count besides its references, and
  // TotalPoints counts every reference: attractors, representatives and
  // orphans.
  const size_t entries =
      static_cast<size_t>(memory.v_attractors + memory.c_attractors);
  const size_t references = static_cast<size_t>(memory.TotalPoints());
  // Fixed-width fields only, so the length is known before writing.
  const size_t body_size =
      16 + (options_.adaptive_range ? 4 + 12 * buckets.size() : 0) + 8 +
      row_count * (8 * dim + 20) + 8 + 20 * guesses_.size() +
      4 * (entries + references);

  std::string bytes = header.str();
  WriteCheckpointRaw(&bytes, body_size, [&](std::string* body) {
    BodyWriter out(body);
    out.I64(now_);
    out.U64(next_id_);
    if (options_.adaptive_range) {
      out.U32(static_cast<uint32_t>(buckets.size()));
      for (const auto& [exponent, seen] : buckets) {
        out.I32(exponent);
        out.I64(seen);
      }
    }
    out.U32(static_cast<uint32_t>(dim));
    out.U32(row_count);
    for (Slot s = 0; s < rows.size(); ++s) {
      if (rows[s] == kNoRow) continue;
      out.F64s(arena_.coords(s), dim);
      out.U32(static_cast<uint32_t>(arena_.color(s)));
      out.I64(arena_.arrival(s));
      out.U64(arena_.id(s));
    }
    out.U32(last_slot_ == PointArena::kNoSlot ? kNoRow : rows[last_slot_]);

    auto write_entries = [&](const AttractorList& list) {
      out.U32(static_cast<uint32_t>(list.size()));
      for (size_t e = 0; e < list.size(); ++e) {
        out.U32(rows[list.attractor(e)]);
        out.U32(list.rep_count(e));
        list.ForEachRep(e, [&](Slot rep) { out.U32(rows[rep]); });
      }
    };
    auto write_points = [&](const std::vector<Slot>& list) {
      out.U32(static_cast<uint32_t>(list.size()));
      for (Slot s : list) out.U32(rows[s]);
    };
    out.U32(static_cast<uint32_t>(guesses_.size()));
    for (const auto& [exponent, guess] : guesses_) {
      out.I32(exponent);
      write_entries(guess.v_entries());
      write_points(guess.v_orphans());
      write_entries(guess.c_entries());
      write_points(guess.c_orphans());
    }
    out.Finish();
  });
  return bytes;
}

Result<FairCenterSlidingWindow> FairCenterSlidingWindow::DeserializeState(
    const std::string& bytes, const Metric* metric,
    const FairCenterSolver* solver) {
  CheckpointReader reader(bytes);
  std::string magic;
  FKC_RETURN_IF_ERROR(reader.NextToken(&magic));
  if (magic == "fkc-checkpoint-v1") {
    return Status::InvalidArgument(
        "fkc-checkpoint-v1 is a retired format; re-checkpoint with a build "
        "that reads it");
  }
  if (magic != kMagicV2) {
    return Status::InvalidArgument("not an fkc checkpoint (bad magic '" +
                                   magic + "')");
  }

  SlidingWindowOptions options;
  FKC_RETURN_IF_ERROR(ReadSlidingWindowOptions(&reader, &options));
  std::vector<int> caps;
  FKC_RETURN_IF_ERROR(ReadColorCaps(&reader, &caps));

  PointBounds bounds;
  bounds.ell = static_cast<int64_t>(caps.size());
  DecodedState state;
  std::string_view body;
  FKC_RETURN_IF_ERROR(reader.NextRaw(&body));
  FKC_RETURN_IF_ERROR(ReadBody(body, options.adaptive_range, &bounds, &state));

  FairCenterSlidingWindow window(options, ColorConstraint(std::move(caps)),
                                 metric, solver);
  window.now_ = state.now;
  window.next_id_ = state.next_id;
  window.arena_ = std::move(state.arena);
  window.last_slot_ = state.last;

  if (options.adaptive_range) {
    std::vector<std::pair<int, int64_t>> buckets;
    buckets.reserve(state.buckets.size());
    for (const auto& [exponent, seen] : state.buckets) {
      if (exponent < -kMaxLadderExponent || exponent > kMaxLadderExponent) {
        return Status::InvalidArgument("bucket exponent out of range");
      }
      // Witness times are stamped from the clock, like arrivals; a forged
      // future witness would keep its bucket alive forever and permanently
      // inflate the adaptive guess-ladder range.
      if (seen < 0 || seen > window.now_) {
        return Status::InvalidArgument(
            "bucket witness time outside the restored clock");
      }
      buckets.emplace_back(static_cast<int>(exponent), seen);
    }
    window.estimator_->RestoreBuckets(buckets, window.now_);
  }

  window.guesses_.clear();  // fixed-range ctor pre-creates the ladder
  for (DecodedGuess& decoded : state.guesses) {
    const int64_t exponent = decoded.exponent;
    if (exponent < -kMaxLadderExponent || exponent > kMaxLadderExponent) {
      return Status::InvalidArgument("guess exponent out of range");
    }
    const double gamma = window.ladder_.Value(static_cast<int>(exponent));
    // (1+beta)^exponent under- or overflowing the double range means the
    // exponent is corrupt; a gamma of 0 or inf would abort downstream.
    if (!std::isfinite(gamma) || gamma <= 0.0) {
      return Status::InvalidArgument("guess exponent out of range");
    }
    FKC_RETURN_IF_ERROR(CheckEntries(decoded.v_entries, window.arena_));
    FKC_RETURN_IF_ERROR(CheckEntries(decoded.c_entries, window.arena_));

    GuessStructure guess(gamma, options.delta, options.window_size,
                         window.constraint_, options.variant);
    guess.RestoreState(
        std::move(decoded.v_entries), std::move(decoded.v_orphans),
        std::move(decoded.c_entries), std::move(decoded.c_orphans),
        window.arena_);
    if (!window.guesses_
             .emplace(static_cast<int>(exponent), std::move(guess))
             .second) {
      return Status::InvalidArgument("duplicate guess exponent in checkpoint");
    }
  }
  // Every stored id was issued by a past next_id_++, so the restored
  // counter must be strictly ahead of all of them — otherwise future
  // arrivals would re-issue ids that SamePoint treats as identity.
  if (bounds.max_id.has_value() && window.next_id_ <= *bounds.max_id) {
    return Status::InvalidArgument(
        "id counter behind stored point ids in checkpoint");
  }
  // last_slot_ is set on every Update and never cleared, so stored points
  // without it occur only in forged blobs — and would leave dimension()
  // unpinned (-1) while the pools hold points of a fixed dimension.
  if (window.last_slot_ == PointArena::kNoSlot && bounds.max_id.has_value()) {
    return Status::InvalidArgument(
        "stored points without a last point in checkpoint");
  }
  return window;
}

}  // namespace fkc
