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
// The guesses store overlapping copies of the same arrivals, so each
// distinct point is written (and validated) once and referenced by index.
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

/// Row reference meaning "no point" (the last point of an empty window).
constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

/// Upper bound on a plausible point dimension.
constexpr size_t kMaxDimension = 1u << 20;

// --- Binary body primitives: fixed-width little-endian, via memcpy. ---

/// Fills a buffer sized up front to the exact body length.
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
  size_t written() const { return pos_; }

 private:
  template <size_t N>
  void Put(uint64_t value) {
    FKC_CHECK_LE(pos_ + N, out_->size());
    unsigned char buf[N];
    for (size_t i = 0; i < N; ++i) {
      buf[i] = static_cast<unsigned char>(value >> (8 * i));
    }
    std::memcpy(&(*out_)[pos_], buf, N);
    pos_ += N;
  }

  std::string* out_;
  size_t pos_ = 0;
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

// One row of the point table, whose coordinates live in the table's flat
// array. Every row has the table's dimension by layout.
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

Status CheckEntries(const AttractorList& entries) {
  for (size_t i = 0; i < entries.size(); ++i) {
    const AttractorEntry& entry = entries[i];
    // Every writer appends entries in arrival order and removes only the
    // oldest, and the restored coordinate pools expire by dropping their
    // front: entries out of order would desynchronize pool and entries.
    if (i > 0 && entry.attractor.arrival <= entries[i - 1].attractor.arrival) {
      return Status::InvalidArgument(
          "attractor entries not ascending by arrival in checkpoint");
    }
    // A representative is its attractor or a later arrival attracted to it.
    // The expiry watermark reads only each list's front attractor, so an
    // older representative would be missed by expiry.
    for (const Point& rep : entry.representatives) {
      if (rep.arrival < entry.attractor.arrival) {
        return Status::InvalidArgument(
            "representative older than its attractor in checkpoint");
      }
    }
  }
  return Status::OK();
}

// --- The point table. ---

/// Calls `visit` on every stored copy, in the order the writer references
/// them: per guess, the v-entries (attractor, then its representatives),
/// v-orphans, c-entries, c-orphans.
template <typename Visit>
void ForEachStoredPoint(const std::map<int, GuessStructure>& guesses,
                        Visit&& visit) {
  auto entries = [&visit](const AttractorList& list) {
    for (const AttractorEntry& entry : list) {
      visit(entry.attractor);
      for (const Point& rep : entry.representatives) visit(rep);
    }
  };
  auto points = [&visit](const std::vector<Point>& list) {
    for (const Point& p : list) visit(p);
  };
  for (const auto& [exponent, guess] : guesses) {
    entries(guess.v_entries());
    points(guess.v_orphans());
    entries(guess.c_entries());
    points(guess.c_orphans());
  }
}

/// Distinct points of a window, one per id, ascending by id and arrival,
/// with the row of every stored copy in ForEachStoredPoint order.
struct PointTable {
  std::vector<const Point*> rows;
  std::vector<uint32_t> copy_rows;
  uint32_t last_row = kNoRow;
};

bool SameContent(const Point& a, const Point& b) {
  return a.color == b.color && a.arrival == b.arrival &&
         a.coords.size() == b.coords.size() &&
         std::memcmp(a.coords.data(), b.coords.data(),
                     a.coords.size() * sizeof(double)) == 0;
}

/// Fails when the copies cannot share one table: two copies of one id that
/// differ, or ids out of arrival order. No honest window holds either (a
/// point's id and arrival are issued together, and every stored copy is a
/// copy of an arrival), and the reader rejects both as table rows out of
/// order.
Status BuildPointTable(const std::optional<Point>& last,
                       const std::map<int, GuessStructure>& guesses,
                       PointTable* table) {
  std::vector<const Point*> copies;
  if (last.has_value()) copies.push_back(&*last);
  ForEachStoredPoint(guesses, [&copies](const Point& p) {
    copies.push_back(&p);
  });
  std::vector<std::pair<uint64_t, uint32_t>> by_id(copies.size());
  for (size_t i = 0; i < copies.size(); ++i) {
    by_id[i] = {copies[i]->id, static_cast<uint32_t>(i)};
  }
  std::sort(by_id.begin(), by_id.end());

  std::vector<uint32_t> rows_of_copies(copies.size());
  table->rows.clear();
  for (const auto& [id, copy] : by_id) {
    const Point& p = *copies[copy];
    if (!table->rows.empty() && table->rows.back()->id == id) {
      if (!SameContent(*table->rows.back(), p)) {
        return Status::InvalidArgument(
            "two different points share one id in checkpoint");
      }
    } else {
      if (!table->rows.empty() && table->rows.back()->arrival >= p.arrival) {
        return Status::InvalidArgument(
            "point ids not in arrival order in checkpoint");
      }
      table->rows.push_back(&p);
    }
    rows_of_copies[copy] = static_cast<uint32_t>(table->rows.size() - 1);
  }
  const size_t first_stored = last.has_value() ? 1 : 0;
  table->last_row = last.has_value() ? rows_of_copies[0] : kNoRow;
  table->copy_rows.assign(rows_of_copies.begin() + first_stored,
                          rows_of_copies.end());
  return Status::OK();
}

// --- Decoded state, filled by the reader, installed by DeserializeState. ---

struct DecodedGuess {
  int64_t exponent = 0;
  AttractorList v_entries, c_entries;
  std::vector<Point> v_orphans, c_orphans;
};

struct DecodedState {
  int64_t now = 0;
  uint64_t next_id = 0;
  std::optional<Point> last;
  std::vector<std::pair<int64_t, int64_t>> buckets;
  std::vector<DecodedGuess> guesses;
};

// --- Reader. ---

// The point table as read: row r's coordinates are
// coords[r * dim, (r + 1) * dim). Rows are copied out into the restored
// lists, so they are kept flat rather than as Points.
struct RowTable {
  struct Row {
    int color;
    int64_t arrival;
    uint64_t id;
  };
  size_t dim = 0;
  std::vector<double> coords;
  std::vector<Row> rows;
  /// How many coordinates references may still copy out of the table. A
  /// reference costs 4 body bytes but copies its row's coordinates, so a
  /// forged body of a few huge rows referenced many times would expand
  /// quadratically; the budget keeps restore memory linear in the body
  /// length. Honest windows copy each point a few times (well under one
  /// coordinate per body byte), far below the cap.
  size_t copy_budget = 0;
};

constexpr size_t kMaxCopiedCoordsPerBodyByte = 16;

Status ReadTableRows(BodyReader* body, PointBounds* bounds, RowTable* table) {
  const uint32_t dim = body->U32();
  if (dim > kMaxDimension) {
    return Status::InvalidArgument("implausible point dimension");
  }
  const uint32_t count = body->Count(8 * static_cast<size_t>(dim) + 20);
  FKC_RETURN_IF_ERROR(body->status());
  table->dim = dim;
  table->coords.resize(static_cast<size_t>(count) * dim);
  table->rows.resize(count);
  for (uint32_t r = 0; r < count; ++r) {
    double* coords = table->coords.data() + static_cast<size_t>(r) * dim;
    for (uint32_t d = 0; d < dim; ++d) coords[d] = body->F64();
    RowTable::Row& row = table->rows[r];
    // Saturated, not wrapped: CheckPoint rejects it against ell either way.
    row.color = static_cast<int>(std::min<uint32_t>(
        body->U32(), std::numeric_limits<int>::max()));
    row.arrival = body->I64();
    row.id = body->U64();
    FKC_RETURN_IF_ERROR(CheckPoint(
        {coords, dim, row.color, row.arrival, row.id}, bounds));
    // One row per distinct point, in the order ids and arrivals are
    // issued: a repeated id would make two rows claim one identity.
    if (r > 0 && (row.arrival <= table->rows[r - 1].arrival ||
                  row.id <= table->rows[r - 1].id)) {
      return Status::InvalidArgument(
          "point table rows not ascending by arrival and id");
    }
  }
  return body->status();
}

Status CopyRow(uint32_t r, RowTable* table, Point* out) {
  if (r >= table->rows.size()) {
    return Status::InvalidArgument("point row outside the table");
  }
  if (table->dim > table->copy_budget) {
    return Status::InvalidArgument(
        "implausible point references in checkpoint");
  }
  table->copy_budget -= table->dim;
  const double* coords = table->coords.data() + r * table->dim;
  out->coords.assign(coords, coords + table->dim);
  out->color = table->rows[r].color;
  out->arrival = table->rows[r].arrival;
  out->id = table->rows[r].id;
  return Status::OK();
}

Status ReadRowList(BodyReader* body, RowTable* table,
                   std::vector<Point>* out) {
  out->resize(body->Count(4));
  for (Point& p : *out) FKC_RETURN_IF_ERROR(CopyRow(body->U32(), table, &p));
  return Status::OK();
}

Status ReadEntryList(BodyReader* body, RowTable* table, AttractorList* out) {
  out->resize(body->Count(8));
  for (AttractorEntry& entry : *out) {
    FKC_RETURN_IF_ERROR(CopyRow(body->U32(), table, &entry.attractor));
    FKC_RETURN_IF_ERROR(ReadRowList(body, table, &entry.representatives));
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
  bounds->now = state->now;

  if (adaptive) {
    state->buckets.resize(body.Count(12));
    for (auto& [exponent, seen] : state->buckets) {
      exponent = body.I32();
      seen = body.I64();
    }
  }

  RowTable table;
  table.copy_budget = kMaxCopiedCoordsPerBodyByte * bytes.size();
  FKC_RETURN_IF_ERROR(ReadTableRows(&body, bounds, &table));
  const uint32_t last = body.U32();
  if (last != kNoRow) {
    FKC_RETURN_IF_ERROR(CopyRow(last, &table, &state->last.emplace()));
  }

  state->guesses.resize(body.Count(20));
  for (DecodedGuess& guess : state->guesses) {
    guess.exponent = body.I32();
    FKC_RETURN_IF_ERROR(ReadEntryList(&body, &table, &guess.v_entries));
    FKC_RETURN_IF_ERROR(ReadRowList(&body, &table, &guess.v_orphans));
    FKC_RETURN_IF_ERROR(ReadEntryList(&body, &table, &guess.c_entries));
    FKC_RETURN_IF_ERROR(ReadRowList(&body, &table, &guess.c_orphans));
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

  PointTable table;
  // Every reader-accepted and every streamed state shares one table.
  FKC_CHECK_OK(BuildPointTable(last_point_, guesses_, &table));
  const size_t dim = table.rows.empty() ? 0 : table.rows[0]->dimension();
  const auto buckets = options_.adaptive_range
                           ? estimator_->DumpBuckets()
                           : std::vector<std::pair<int, int64_t>>{};
  size_t entries = 0;
  for (const auto& [exponent, guess] : guesses_) {
    entries += guess.v_entries().size() + guess.c_entries().size();
  }
  // Fixed-width fields only, so the length is known before writing.
  const size_t body_size =
      16 + (options_.adaptive_range ? 4 + 12 * buckets.size() : 0) + 8 +
      table.rows.size() * (8 * dim + 20) + 8 + 20 * guesses_.size() +
      4 * (entries + table.copy_rows.size());

  std::string body(body_size, '\0');
  BodyWriter out(&body);
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
  out.U32(static_cast<uint32_t>(table.rows.size()));
  for (const Point* p : table.rows) {
    for (double x : p->coords) out.F64(x);
    out.U32(static_cast<uint32_t>(p->color));
    out.I64(p->arrival);
    out.U64(p->id);
  }
  out.U32(table.last_row);

  // Same walk as ForEachStoredPoint, so copy_rows is consumed in order.
  size_t copy = 0;
  auto write_entries = [&](const AttractorList& list) {
    out.U32(static_cast<uint32_t>(list.size()));
    for (const AttractorEntry& entry : list) {
      out.U32(table.copy_rows[copy++]);
      out.U32(static_cast<uint32_t>(entry.representatives.size()));
      for (size_t r = 0; r < entry.representatives.size(); ++r) {
        out.U32(table.copy_rows[copy++]);
      }
    }
  };
  auto write_points = [&](const std::vector<Point>& list) {
    out.U32(static_cast<uint32_t>(list.size()));
    for (size_t i = 0; i < list.size(); ++i) out.U32(table.copy_rows[copy++]);
  };
  out.U32(static_cast<uint32_t>(guesses_.size()));
  for (const auto& [exponent, guess] : guesses_) {
    out.I32(exponent);
    write_entries(guess.v_entries());
    write_points(guess.v_orphans());
    write_entries(guess.c_entries());
    write_points(guess.c_orphans());
  }
  FKC_CHECK_EQ(out.written(), body_size);

  std::string bytes = header.str();
  WriteCheckpointRaw(&bytes, body);
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
  window.last_point_ = std::move(state.last);

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
    FKC_RETURN_IF_ERROR(CheckEntries(decoded.v_entries));
    FKC_RETURN_IF_ERROR(CheckEntries(decoded.c_entries));

    GuessStructure guess(gamma, options.delta, options.window_size,
                         window.constraint_, options.variant);
    guess.RestoreState(std::move(decoded.v_entries),
                       std::move(decoded.v_orphans),
                       std::move(decoded.c_entries),
                       std::move(decoded.c_orphans));
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
  // last_point_ is set on every Update and never cleared, so stored points
  // without it occur only in forged blobs — and would leave dimension()
  // unpinned (-1) while the pools hold points of a fixed dimension.
  if (!window.last_point_.has_value() && bounds.max_id.has_value()) {
    return Status::InvalidArgument(
        "stored points without a last point in checkpoint");
  }
  return window;
}

}  // namespace fkc
