// Checkpoint serialization for FairCenterSlidingWindow (declared in
// fair_center_sliding_window.h). Format: whitespace-separated tokens,
// self-describing counts, hex-float coordinates for bit-exact round trips.
// Tokenizing, float formatting, and the options block live in
// common/checkpoint_io and core/options_io (shared with the serving layer's
// fleet checkpoint). Deserialization validates everything it reads before
// constructing: a corrupted or adversarial blob must surface as
// kInvalidArgument, never as a CHECK abort downstream.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/checkpoint_io.h"
#include "core/fair_center_sliding_window.h"
#include "core/options_io.h"

namespace fkc {
namespace {

constexpr const char* kMagic = "fkc-checkpoint-v1";

// --- Writer helpers. ---

void WritePoint(std::ostringstream* out, const Point& p) {
  *out << p.coords.size() << ' ';
  for (double x : p.coords) WriteCheckpointDouble(out, x);
  *out << p.color << ' ' << p.arrival << ' ' << p.id << ' ';
}

void WriteEntries(std::ostringstream* out, const AttractorList& entries) {
  *out << entries.size() << ' ';
  for (const AttractorEntry& entry : entries) {
    WritePoint(out, entry.attractor);
    *out << entry.representatives.size() << ' ';
    for (const Point& rep : entry.representatives) WritePoint(out, rep);
  }
}

void WritePoints(std::ostringstream* out, const std::vector<Point>& points) {
  *out << points.size() << ' ';
  for (const Point& p : points) WritePoint(out, p);
}

// --- Reader: core-specific composite extraction over CheckpointReader. ---

// Shared per-point validation context: `ell` bounds the color (an
// out-of-range color would index out of the constraint's cap table), and
// `dim` pins the coordinate dimension — the first point fixes it, every
// later point must agree, or the coordinate pools abort on Append.
struct PointBounds {
  int64_t ell = 0;
  int64_t dim = -1;  ///< -1 until the first point is read
  int64_t now = 0;   ///< restored clock; stored arrivals may not exceed it
  int64_t max_id = -1;  ///< largest point id read; next_id_ must exceed it
};

Status NextPoint(CheckpointReader* reader, PointBounds* bounds, Point* out) {
  // Every serialized coordinate occupies at least one byte, so the
  // remaining blob length bounds any honest dimension — a forged count in
  // a tiny blob fails before allocating.
  size_t dim = 0;
  FKC_RETURN_IF_ERROR(
      reader->NextSize(&dim, std::min<size_t>(1u << 20, reader->Remaining())));
  // No honest window holds a zero-dimension point (the coordinate pools
  // abort on empty points long before serialization), and restoring one
  // would hit the same abort while rebuilding the pools.
  if (dim == 0) {
    return Status::InvalidArgument("zero-dimension point in checkpoint");
  }
  if (bounds->dim < 0) bounds->dim = static_cast<int64_t>(dim);
  if (static_cast<int64_t>(dim) != bounds->dim) {
    return Status::InvalidArgument("inconsistent point dimension");
  }
  out->coords.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    FKC_RETURN_IF_ERROR(reader->NextDouble(&out->coords[d]));
    if (!std::isfinite(out->coords[d])) {
      return Status::InvalidArgument("non-finite coordinate in checkpoint");
    }
  }
  int64_t color = 0, arrival = 0, id = 0;
  FKC_RETURN_IF_ERROR(reader->NextInt(&color));
  FKC_RETURN_IF_ERROR(reader->NextInt(&arrival));
  FKC_RETURN_IF_ERROR(reader->NextInt(&id));
  if (color < 0 || color >= bounds->ell) {
    return Status::InvalidArgument("point color outside constraint range");
  }
  // Arrivals are stamped from the window clock, so no stored arrival can
  // exceed the serialized now_ — a forged future arrival would never expire.
  if (arrival < 0 || arrival > bounds->now) {
    return Status::InvalidArgument("arrival outside the restored clock");
  }
  // Ids are issued from next_id_; a negative one would alias to a huge
  // uint64 after the cast and collide with future arrivals.
  if (id < 0) {
    return Status::InvalidArgument("negative point id in checkpoint");
  }
  bounds->max_id = std::max(bounds->max_id, id);
  out->color = static_cast<int>(color);
  out->arrival = arrival;
  out->id = static_cast<uint64_t>(id);
  return Status::OK();
}

Status NextPoints(CheckpointReader* reader, PointBounds* bounds,
                  std::vector<Point>* out) {
  size_t count = 0;
  FKC_RETURN_IF_ERROR(reader->NextSize(&count, reader->Remaining()));
  out->resize(count);
  for (Point& p : *out) FKC_RETURN_IF_ERROR(NextPoint(reader, bounds, &p));
  return Status::OK();
}

Status NextEntries(CheckpointReader* reader, PointBounds* bounds,
                   AttractorList* out) {
  size_t count = 0;
  FKC_RETURN_IF_ERROR(reader->NextSize(&count, reader->Remaining()));
  for (size_t i = 0; i < count; ++i) {
    AttractorEntry& entry = out->emplace_back();
    FKC_RETURN_IF_ERROR(NextPoint(reader, bounds, &entry.attractor));
    FKC_RETURN_IF_ERROR(NextPoints(reader, bounds, &entry.representatives));
    // Every writer appends entries in arrival order and removes only the
    // oldest, and the restored coordinate pools expire by dropping their
    // front: entries out of order would desynchronize pool and entries.
    if (i > 0 && entry.attractor.arrival <= (*out)[i - 1].attractor.arrival) {
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

}  // namespace

std::string FairCenterSlidingWindow::SerializeState() const {
  std::ostringstream out;
  out << kMagic << ' ';

  WriteSlidingWindowOptions(&out, options_);
  WriteColorCaps(&out, constraint_);

  // Clocks and the latest point.
  out << now_ << ' ' << next_id_ << ' ';
  out << (last_point_.has_value() ? 1 : 0) << ' ';
  if (last_point_.has_value()) WritePoint(&out, *last_point_);

  // Adaptive-range tracker.
  if (options_.adaptive_range) {
    const auto buckets = estimator_->DumpBuckets();
    out << buckets.size() << ' ';
    for (const auto& [exponent, seen] : buckets) {
      out << exponent << ' ' << seen << ' ';
    }
  }

  // Guess structures.
  out << guesses_.size() << ' ';
  for (const auto& [exponent, guess] : guesses_) {
    out << exponent << ' ';
    WriteEntries(&out, guess.v_entries());
    WritePoints(&out, guess.v_orphans());
    WriteEntries(&out, guess.c_entries());
    WritePoints(&out, guess.c_orphans());
  }
  return out.str();
}

Result<FairCenterSlidingWindow> FairCenterSlidingWindow::DeserializeState(
    const std::string& bytes, const Metric* metric,
    const FairCenterSolver* solver) {
  CheckpointReader reader(bytes);
  std::string magic;
  FKC_RETURN_IF_ERROR(reader.NextToken(&magic));
  if (magic != kMagic) {
    return Status::InvalidArgument("not an fkc checkpoint (bad magic '" +
                                   magic + "')");
  }

  SlidingWindowOptions options;
  FKC_RETURN_IF_ERROR(ReadSlidingWindowOptions(&reader, &options));

  std::vector<int> caps;
  FKC_RETURN_IF_ERROR(ReadColorCaps(&reader, &caps));
  const size_t ell = caps.size();

  FairCenterSlidingWindow window(options, ColorConstraint(std::move(caps)),
                                 metric, solver);
  PointBounds bounds;
  bounds.ell = static_cast<int64_t>(ell);

  int64_t next_id = 0;
  FKC_RETURN_IF_ERROR(reader.NextInt(&window.now_));
  FKC_RETURN_IF_ERROR(reader.NextInt(&next_id));
  if (window.now_ < 0) {
    return Status::InvalidArgument("negative clock in checkpoint");
  }
  if (next_id < 0) {
    return Status::InvalidArgument("negative id counter in checkpoint");
  }
  window.next_id_ = static_cast<uint64_t>(next_id);
  bounds.now = window.now_;

  int64_t has_last = 0;
  FKC_RETURN_IF_ERROR(reader.NextInt(&has_last));
  if (has_last != 0) {
    Point last;
    FKC_RETURN_IF_ERROR(NextPoint(&reader, &bounds, &last));
    window.last_point_ = std::move(last);
  }

  if (options.adaptive_range) {
    size_t bucket_count = 0;
    FKC_RETURN_IF_ERROR(reader.NextSize(&bucket_count, reader.Remaining()));
    std::vector<std::pair<int, int64_t>> buckets(bucket_count);
    for (auto& [exponent, seen] : buckets) {
      int64_t e = 0;
      FKC_RETURN_IF_ERROR(reader.NextInt(&e));
      FKC_RETURN_IF_ERROR(reader.NextInt(&seen));
      if (e < -kMaxLadderExponent || e > kMaxLadderExponent) {
        return Status::InvalidArgument("bucket exponent out of range");
      }
      // Witness times are stamped from the clock, like arrivals; a forged
      // future witness would keep its bucket alive forever and permanently
      // inflate the adaptive guess-ladder range.
      if (seen < 0 || seen > window.now_) {
        return Status::InvalidArgument(
            "bucket witness time outside the restored clock");
      }
      exponent = static_cast<int>(e);
    }
    window.estimator_->RestoreBuckets(buckets, window.now_);
  }

  size_t guess_count = 0;
  FKC_RETURN_IF_ERROR(reader.NextSize(&guess_count, reader.Remaining()));
  window.guesses_.clear();  // fixed-range ctor pre-creates the ladder
  for (size_t g = 0; g < guess_count; ++g) {
    int64_t exponent = 0;
    FKC_RETURN_IF_ERROR(reader.NextInt(&exponent));
    if (exponent < -kMaxLadderExponent || exponent > kMaxLadderExponent) {
      return Status::InvalidArgument("guess exponent out of range");
    }
    const double gamma = window.ladder_.Value(static_cast<int>(exponent));
    // (1+beta)^exponent under- or overflowing the double range means the
    // exponent is corrupt; a gamma of 0 or inf would abort downstream.
    if (!std::isfinite(gamma) || gamma <= 0.0) {
      return Status::InvalidArgument("guess exponent out of range");
    }
    AttractorList v_entries, c_entries;
    std::vector<Point> v_orphans, c_orphans;
    FKC_RETURN_IF_ERROR(NextEntries(&reader, &bounds, &v_entries));
    FKC_RETURN_IF_ERROR(NextPoints(&reader, &bounds, &v_orphans));
    FKC_RETURN_IF_ERROR(NextEntries(&reader, &bounds, &c_entries));
    FKC_RETURN_IF_ERROR(NextPoints(&reader, &bounds, &c_orphans));

    GuessStructure guess(gamma, options.delta, options.window_size,
                         window.constraint_, options.variant);
    guess.RestoreState(std::move(v_entries), std::move(v_orphans),
                       std::move(c_entries), std::move(c_orphans));
    if (!window.guesses_
             .emplace(static_cast<int>(exponent), std::move(guess))
             .second) {
      return Status::InvalidArgument("duplicate guess exponent in checkpoint");
    }
  }
  // Every stored id was issued by a past next_id_++, so the restored
  // counter must be strictly ahead of all of them — otherwise future
  // arrivals would re-issue ids that SamePoint treats as identity.
  if (next_id <= bounds.max_id) {
    return Status::InvalidArgument(
        "id counter behind stored point ids in checkpoint");
  }
  // last_point_ is set on every Update and never cleared, so stored points
  // without it occur only in forged blobs — and would leave dimension()
  // unpinned (-1) while the pools hold points of a fixed dimension.
  if (!window.last_point_.has_value() && bounds.dim >= 0) {
    return Status::InvalidArgument(
        "stored points without a last point in checkpoint");
  }
  return window;
}

}  // namespace fkc
