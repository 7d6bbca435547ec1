// Checkpoint/restore tests: bit-exact round trips, behavioural equivalence
// of original and restored windows under continued streaming, golden bytes
// of the binary fkc-checkpoint-v2 format, rejection of malformed input, and
// rejection of the retired text fkc-checkpoint-v1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/checkpoint_io.h"
#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/options_io.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

FairCenterSlidingWindow MakeWindow(bool adaptive,
                                   CoreVariant variant = CoreVariant::kFull) {
  SlidingWindowOptions options;
  options.window_size = 60;
  options.delta = 1.0;
  options.variant = variant;
  options.adaptive_range = adaptive;
  if (!adaptive) {
    options.d_min = 0.1;
    options.d_max = 500.0;
  }
  return FairCenterSlidingWindow(options, ColorConstraint({2, 2}), &kMetric,
                                 &kJones);
}

void FeedRandom(FairCenterSlidingWindow* window, int count, Rng* rng) {
  for (int i = 0; i < count; ++i) {
    window->Update({rng->NextUniform(0, 200), rng->NextUniform(0, 200)},
                   static_cast<int>(rng->NextBounded(2)));
  }
}

class CheckpointTest : public ::testing::TestWithParam<bool> {};

TEST_P(CheckpointTest, RoundTripPreservesStateExactly) {
  FairCenterSlidingWindow window = MakeWindow(GetParam());
  Rng rng(7);
  FeedRandom(&window, 150, &rng);

  const std::string bytes = window.SerializeState();
  auto restored = FairCenterSlidingWindow::DeserializeState(bytes, &kMetric,
                                                            &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Identical footprint and clocks.
  EXPECT_EQ(window.Memory().ToString(),
            restored.value().Memory().ToString());
  EXPECT_EQ(window.now(), restored.value().now());
  EXPECT_EQ(window.WindowPopulation(), restored.value().WindowPopulation());

  // Identical query answers.
  QueryStats original_stats, restored_stats;
  auto original_solution = window.Query(&original_stats);
  auto restored_solution = restored.value().Query(&restored_stats);
  ASSERT_TRUE(original_solution.ok());
  ASSERT_TRUE(restored_solution.ok());
  EXPECT_DOUBLE_EQ(original_solution.value().radius,
                   restored_solution.value().radius);
  EXPECT_DOUBLE_EQ(original_stats.guess, restored_stats.guess);
  EXPECT_EQ(original_stats.coreset_size, restored_stats.coreset_size);

  // Serialization is deterministic and stable across a round trip.
  EXPECT_EQ(bytes, restored.value().SerializeState());
}

TEST_P(CheckpointTest, RestoredWindowBehavesIdenticallyGoingForward) {
  FairCenterSlidingWindow window = MakeWindow(GetParam());
  Rng rng(11);
  FeedRandom(&window, 120, &rng);

  auto restored = FairCenterSlidingWindow::DeserializeState(
      window.SerializeState(), &kMetric, &kJones);
  ASSERT_TRUE(restored.ok());

  // Feed the same continuation into both; answers must stay identical.
  Rng continuation(13);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 40; ++i) {
      const Coordinates coords = {continuation.NextUniform(0, 200),
                                  continuation.NextUniform(0, 200)};
      const int color = static_cast<int>(continuation.NextBounded(2));
      window.Update(coords, color);
      restored.value().Update(coords, color);
    }
    auto a = window.Query();
    auto b = restored.value().Query();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a.value().radius, b.value().radius) << "round " << round;
    EXPECT_EQ(a.value().centers.size(), b.value().centers.size());
    EXPECT_EQ(window.Memory().ToString(),
              restored.value().Memory().ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckpointTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "adaptive" : "fixed";
                         });

TEST(CheckpointTest, AdaptiveRestoreMatchesStepByStep) {
  // An adaptive window's derived state (the range estimator's eviction
  // watermark, the pools, the expiry watermarks) is rebuilt on restore, not
  // read. Step by step, a window restored from the previous step's blob
  // must write the live window's bytes after the same step, whether the
  // step is an arrival or a query. 1-D walks whose steps straddle the
  // ladder's buckets make some queries extend the ladder upward (k = 1
  // on odd seeds); even seeds mix two colors.
  int64_t extensions = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed);
    SlidingWindowOptions options;
    options.window_size = 6;
    options.delta = 1.0;
    options.adaptive_range = true;
    const int colors = seed % 2 == 1 ? 1 : 2;
    FairCenterSlidingWindow live(options,
                                 ColorConstraint(std::vector<int>(colors, 1)),
                                 &kMetric, &kJones);
    double x = 0.0;
    for (int t = 0; t < 120; ++t) {
      const double step =
          2.9 * std::pow(3.0, static_cast<double>(rng.NextBounded(2)));
      x += rng.NextBounded(2) != 0 ? step : -0.5 * step;
      const int color = static_cast<int>(rng.NextBounded(colors));
      for (const bool query : {false, true}) {
        auto restored = FairCenterSlidingWindow::DeserializeState(
            live.SerializeState(), &kMetric, &kJones);
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        if (query) {
          const int64_t guesses = live.Memory().guesses;
          const auto a = live.Query();
          const auto b = restored.value().Query();
          ASSERT_EQ(a.ok(), b.ok());
          if (a.ok()) {
            EXPECT_EQ(a.value().radius, b.value().radius);
          }
          extensions += live.Memory().guesses > guesses;
        } else {
          ASSERT_TRUE(live.Update({x}, color).ok());
          ASSERT_TRUE(restored.value().Update({x}, color).ok());
        }
        ASSERT_EQ(restored.value().SerializeState(), live.SerializeState())
            << "seed " << seed << " t " << t << (query ? " query" : "");
      }
    }
  }
  EXPECT_GT(extensions, 0) << "no query extended the ladder";
}

TEST(CheckpointTest, LiteVariantRoundTrips) {
  FairCenterSlidingWindow window =
      MakeWindow(true, CoreVariant::kValidationOnly);
  Rng rng(17);
  FeedRandom(&window, 100, &rng);
  auto restored = FairCenterSlidingWindow::DeserializeState(
      window.SerializeState(), &kMetric, &kJones);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().options().variant,
            CoreVariant::kValidationOnly);
  EXPECT_EQ(window.Memory().ToString(), restored.value().Memory().ToString());
}

TEST(CheckpointTest, EmptyWindowRoundTrips) {
  FairCenterSlidingWindow window = MakeWindow(true);
  auto restored = FairCenterSlidingWindow::DeserializeState(
      window.SerializeState(), &kMetric, &kJones);
  ASSERT_TRUE(restored.ok());
  auto solution = restored.value().Query();
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution.value().centers.empty());
}

TEST(CheckpointTest, RejectsGarbage) {
  auto bad = FairCenterSlidingWindow::DeserializeState("not a checkpoint",
                                                       &kMetric, &kJones);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto empty =
      FairCenterSlidingWindow::DeserializeState("", &kMetric, &kJones);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, RejectsVersionMismatch) {
  FairCenterSlidingWindow window = MakeWindow(true);
  std::string bytes = window.SerializeState();
  bytes.replace(bytes.find("v2"), 2, "v9");
  auto restored =
      FairCenterSlidingWindow::DeserializeState(bytes, &kMetric, &kJones);
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("bad magic"), std::string::npos)
      << restored.status().ToString();
}

// Every damaged blob must end in one of two ways: kInvalidArgument, or a
// window that works — it answers Query, takes further arrivals, and
// re-serializes to a blob that restores. Never an abort, and (under the
// sanitizers) never an out-of-bounds read.
void ExpectRejectedOrWorking(const std::string& bytes,
                             const std::string& label) {
  auto restored =
      FairCenterSlidingWindow::DeserializeState(bytes, &kMetric, &kJones);
  if (!restored.ok()) {
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << label;
    return;
  }
  FairCenterSlidingWindow& window = restored.value();
  ASSERT_TRUE(window.Query().ok()) << label;
  const size_t dim =
      window.dimension() < 0 ? 2 : static_cast<size_t>(window.dimension());
  Rng rng(29);
  for (int i = 0; i < 3; ++i) {
    window.Update(Coordinates(dim, rng.NextUniform(0, 200)),
                  static_cast<int>(rng.NextBounded(2)));
  }
  ASSERT_TRUE(window.Query().ok()) << label;
  EXPECT_TRUE(FairCenterSlidingWindow::DeserializeState(
                  window.SerializeState(), &kMetric, &kJones)
                  .ok())
      << label;
}

// Offset of the binary body inside a v2 blob: after the text header (magic,
// options, caps) and the body's length prefix.
size_t BodyOffset(const std::string& blob) {
  CheckpointReader reader(blob);
  std::string magic;
  SlidingWindowOptions options;
  std::vector<int> caps;
  std::string_view body;
  EXPECT_TRUE(reader.NextToken(&magic).ok());
  EXPECT_TRUE(ReadSlidingWindowOptions(&reader, &options).ok());
  EXPECT_TRUE(ReadColorCaps(&reader, &caps).ok());
  EXPECT_TRUE(reader.NextRaw(&body).ok());
  return static_cast<size_t>(body.data() - blob.data());
}

TEST_P(CheckpointTest, EveryPrefixRejectsOrRestoresAWorkingWindow) {
  FairCenterSlidingWindow window = MakeWindow(GetParam());
  Rng rng(19);
  FeedRandom(&window, 80, &rng);
  const std::string bytes = window.SerializeState();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ExpectRejectedOrWorking(bytes.substr(0, len),
                            "prefix of " + std::to_string(len) + " bytes");
    if (HasFatalFailure()) return;
  }
}

TEST_P(CheckpointTest, EveryBodyByteCorruptionRejectsOrRestoresAWorkingWindow) {
  FairCenterSlidingWindow window = MakeWindow(GetParam());
  Rng rng(19);
  FeedRandom(&window, 80, &rng);
  const std::string bytes = window.SerializeState();
  const size_t body_end = bytes.size() - 1;  // the segment's trailing space
  for (size_t pos = BodyOffset(bytes); pos < body_end; ++pos) {
    // Low and high bit flips, and the all-ones flip (a zeroed byte turns
    // into 0xff: sign bits, huge counts, out-of-table rows).
    for (const unsigned char flip : {0x01, 0x80, 0xff}) {
      std::string damaged = bytes;
      damaged[pos] = static_cast<char>(damaged[pos] ^ flip);
      ExpectRejectedOrWorking(damaged, "byte " + std::to_string(pos) +
                                           " xor " + std::to_string(flip));
      if (HasFatalFailure()) return;
    }
  }
}

// --- Hand-built binary blobs (fkc-checkpoint-v2). ---

// Little-endian writer for hand-built v2 bodies.
class V2Body {
 public:
  V2Body& U32(uint32_t v) { return Put(v, 4); }
  V2Body& I32(int32_t v) { return U32(static_cast<uint32_t>(v)); }
  V2Body& U64(uint64_t v) { return Put(v, 8); }
  V2Body& I64(int64_t v) { return U64(static_cast<uint64_t>(v)); }
  V2Body& F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return U64(bits);
  }
  V2Body& Raw(const std::string& bytes) {
    bytes_ += bytes;
    return *this;
  }
  const std::string& bytes() const { return bytes_; }

 private:
  V2Body& Put(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) bytes_ += static_cast<char>(v >> (8 * i));
    return *this;
  }
  std::string bytes_;
};

struct V2Row {
  std::vector<double> coords;
  uint32_t color = 0;
  int64_t arrival = 0;
  uint64_t id = 0;
};

struct V2Entry {
  uint32_t attractor = 0;
  std::vector<uint32_t> reps;
};

std::string EncodeEntries(const std::vector<V2Entry>& entries) {
  V2Body out;
  out.U32(static_cast<uint32_t>(entries.size()));
  for (const V2Entry& entry : entries) {
    out.U32(entry.attractor).U32(static_cast<uint32_t>(entry.reps.size()));
    for (uint32_t rep : entry.reps) out.U32(rep);
  }
  return out.bytes();
}

std::string EncodeRows(const std::vector<uint32_t>& rows) {
  V2Body out;
  out.U32(static_cast<uint32_t>(rows.size()));
  for (uint32_t row : rows) out.U32(row);
  return out.bytes();
}

// One guess: exponent, v-entries, v-orphans, c-entries, c-orphans.
std::string EncodeGuess(int32_t exponent, const std::vector<V2Entry>& v,
                        const std::vector<uint32_t>& v_orphans = {},
                        const std::vector<V2Entry>& c = {},
                        const std::vector<uint32_t>& c_orphans = {}) {
  return V2Body().I32(exponent).bytes() + EncodeEntries(v) +
         EncodeRows(v_orphans) + EncodeEntries(c) + EncodeRows(c_orphans);
}

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

// A minimal adaptive blob: {2,1} constraint, now=3, next_id=4, one
// estimator bucket, a two-row table — `older` (arrival/id 2) and `point`
// (arrival/id 3, also the last point) — and one guess holding `point` as its
// only v-attractor. Cases override one field.
struct V2Forgery {
  int64_t now = 3;
  uint64_t next_id = 4;
  int64_t bucket_seen = 3;
  uint32_t dim = 2;
  std::vector<V2Row> rows = {{{64.0, 1.0}, 0, 2, 2}, {{1.0, 1.0}, 0, 3, 3}};
  uint32_t last = 1;
  uint32_t guess_count = 1;
  std::string guesses = EncodeGuess(0, {{1, {}}});
  std::string trailing;

  std::string Blob() const {
    V2Body body;
    body.I64(now).U64(next_id).U32(1).I32(0).I64(bucket_seen);
    body.U32(dim).U32(static_cast<uint32_t>(rows.size()));
    for (const V2Row& row : rows) {
      for (double x : row.coords) body.F64(x);
      body.U32(row.color).I64(row.arrival).U64(row.id);
    }
    body.U32(last).U32(guess_count).Raw(guesses).Raw(trailing);
    return "fkc-checkpoint-v2 10 0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 1 1 2 2 1 " +
           std::to_string(body.bytes().size()) + " " + body.bytes() + " ";
  }
};

TEST(CheckpointV2Test, HandBuiltBlobsRestore) {
  // A table row no list references restores but is not written back, so
  // only the blobs that reference every row come back byte for byte.
  const struct {
    const char* label;
    V2Forgery forgery;
  } kCases[] = {
      {"minimal, `older` unreferenced", {}},
      {"two attractors in arrival order",
       [] {
         V2Forgery f;
         f.guesses = EncodeGuess(0, {{0, {}}, {1, {}}});
         return f;
       }()},
      // Representatives no older than their attractor, in either family:
      // the attractor itself, or a later arrival.
      {"v-representatives", [] {
         V2Forgery f;
         f.guesses = EncodeGuess(0, {{0, {0, 1}}});
         return f;
       }()},
      {"c-representatives", [] {
         V2Forgery f;
         f.guesses = EncodeGuess(0, {}, {}, {{0, {0, 1}}});
         return f;
       }()},
      {"orphans", [] {
         V2Forgery f;
         f.guesses = EncodeGuess(0, {{1, {}}}, {0}, {}, {0, 1});
         return f;
       }()},
      // The structural rule is per family: one row may be an attractor and
      // a representative in each.
      {"one row in both families", [] {
         V2Forgery f;
         f.guesses = EncodeGuess(0, {{0, {0, 1}}}, {}, {{0, {0, 1}}});
         return f;
       }()},
      {"empty window", [] {
         V2Forgery f;
         f.now = 0;
         f.next_id = 1;
         f.bucket_seen = 0;
         f.dim = 0;
         f.rows.clear();
         f.last = kNoRow;
         f.guess_count = 0;
         f.guesses.clear();
         return f;
       }()},
  };
  for (const auto& c : kCases) {
    const std::string blob = c.forgery.Blob();
    auto restored =
        FairCenterSlidingWindow::DeserializeState(blob, &kMetric, &kJones);
    ASSERT_TRUE(restored.ok()) << c.label << ": "
                               << restored.status().ToString();
    if (&c != &kCases[0]) {
      EXPECT_EQ(restored.value().SerializeState(), blob) << c.label;
    }
    ExpectRejectedOrWorking(blob, c.label);
  }
}

// Forged content a restored window would feed into CHECK-guarded code or
// mistake for identity — non-finite coordinates, out-of-range colors,
// future arrivals and witnesses, id counters behind stored ids, entries out
// of arrival order, aliasing guess exponents — plus row references outside
// the table, table rows out of order or repeating an id, counts the
// remaining bytes cannot hold, a row referenced twice in one role of one
// family, and attractor references whose pool copies outgrow the body.
// Every one must fail with InvalidArgument, never abort or over-allocate.
TEST(CheckpointV2Test, RejectsForgedBlobs) {
  auto with = [](auto edit) {
    V2Forgery f;
    edit(&f);
    return f.Blob();
  };
  // One 4096-dimensional row referenced 1000 times as a v-orphan. A
  // reader that copied a row per reference would expand 16 kB of
  // references into 32 MB of coordinates; no honest family holds a row
  // twice as a representative or orphan.
  const std::string blow_up = with([](V2Forgery* f) {
    f->dim = 4096;
    f->rows = {{std::vector<double>(4096, 1.0), 0, 3, 3}};
    f->last = 0;
    f->guesses = EncodeGuess(0, {{0, {}}}, std::vector<uint32_t>(1000, 0));
  });
  // The same 4096-dimensional row as the attractor of both families of
  // 1000 guesses. The per-family rule allows it, but restore copies every
  // attractor into its guess's coordinate pool, and each pool takes a
  // 128-lane block: 36 bytes per guess would ask for about 9 GB.
  const std::string shared_attractor = with([](V2Forgery* f) {
    f->dim = 4096;
    f->rows = {{std::vector<double>(4096, 1.0), 0, 3, 3}};
    f->last = 0;
    f->guess_count = 1000;
    f->guesses.clear();
    for (int32_t e = 0; e < 1000; ++e) {
      f->guesses += EncodeGuess(e, {{0, {}}}, {}, {{0, {}}});
    }
  });
  const struct {
    const char* label;
    std::string bytes;
  } kCases[] = {
      {"zero dimension", with([](V2Forgery* f) {
         f->dim = 0;
         for (V2Row& row : f->rows) row.coords.clear();
       })},
      // Three coordinates per row declared, two written: the rows misparse.
      {"dimension disagrees with the rows",
       with([](V2Forgery* f) { f->dim = 3; })},
      {"nan coordinate", with([](V2Forgery* f) {
         f->rows[1].coords[0] = std::numeric_limits<double>::quiet_NaN();
       })},
      {"infinite coordinate", with([](V2Forgery* f) {
         f->rows[0].coords[1] = std::numeric_limits<double>::infinity();
       })},
      {"color out of range", with([](V2Forgery* f) { f->rows[1].color = 2; })},
      {"color past INT_MAX",
       with([](V2Forgery* f) { f->rows[1].color = 0x80000000u; })},
      {"negative clock", with([](V2Forgery* f) { f->now = -1; })},
      {"arrival beyond the clock",
       with([](V2Forgery* f) { f->rows[1].arrival = 5; })},
      {"negative arrival", with([](V2Forgery* f) {
         f->rows[0].arrival = -1;
       })},
      {"id counter behind stored ids",
       with([](V2Forgery* f) { f->next_id = 3; })},
      {"bucket witness beyond the clock",
       with([](V2Forgery* f) { f->bucket_seen = 5; })},
      {"stored points without a last point",
       with([](V2Forgery* f) { f->last = kNoRow; })},
      {"v-entries out of arrival order", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{1, {}}, {0, {}}});
       })},
      {"c-entries out of arrival order", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{1, {}}}, {}, {{1, {}}, {0, {}}});
       })},
      {"v-entries with equal arrivals", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{0, {}}, {0, {}}});
       })},
      {"v-representative older than its attractor", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{1, {0}}});
       })},
      {"c-representative older than its attractor", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {}, {}, {{1, {1, 0}}});
       })},
      {"duplicate exponent", with([](V2Forgery* f) {
         f->guess_count = 2;
         f->guesses = EncodeGuess(0, {{1, {}}}) + EncodeGuess(0, {{1, {}}});
       })},
      {"exponent out of range", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(1 << 20, {{1, {}}});
       })},
      {"last point outside the table",
       with([](V2Forgery* f) { f->last = 2; })},
      {"attractor outside the table", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{2, {}}});
       })},
      {"representative outside the table", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{1, {7}}});
       })},
      {"orphan outside the table", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{1, {}}}, {}, {}, {kNoRow - 1});
       })},
      {"table rows out of order", with([](V2Forgery* f) {
         std::swap(f->rows[0], f->rows[1]);
         f->last = 0;
         f->guesses = EncodeGuess(0, {{0, {}}});
       })},
      {"table rows repeating an id",
       with([](V2Forgery* f) { f->rows[0].id = 3; })},
      {"table rows repeating an arrival",
       with([](V2Forgery* f) { f->rows[0].arrival = 3; })},
      // Counts far beyond the bytes left: must reject before resizing.
      {"forged guess count",
       with([](V2Forgery* f) { f->guess_count = 0x0fffffff; })},
      {"forged orphan count", with([](V2Forgery* f) {
         f->guesses = V2Body().I32(0).bytes() + EncodeEntries({{1, {}}}) +
                      V2Body().U32(0x0fffffff).bytes();
       })},
      {"forged representative count", with([](V2Forgery* f) {
         f->guesses =
             V2Body().I32(0).U32(1).U32(1).U32(0xffffffffu).bytes();
       })},
      {"trailing bytes", with([](V2Forgery* f) { f->trailing = "x"; })},
      {"reference blow-up", blow_up},
      {"one row attracting every family", shared_attractor},
      {"row representing two entries of one family", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {{0, {1}}, {1, {1}}});
       })},
      {"row both representative and orphan of one family",
       with([](V2Forgery* f) { f->guesses = EncodeGuess(0, {{1, {1}}}, {1}); })},
      {"row attracting two entries of one family", with([](V2Forgery* f) {
         f->guesses = EncodeGuess(0, {}, {}, {{0, {}}, {0, {}}});
       })},
  };
  for (const auto& c : kCases) {
    auto restored =
        FairCenterSlidingWindow::DeserializeState(c.bytes, &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << c.label;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << c.label;
  }
  // A forged row count needs its own blob: the rows follow it.
  V2Body body;
  body.I64(3).U64(4).U32(0).U32(2).U32(0x0fffffff);
  const std::string forged_rows =
      "fkc-checkpoint-v2 10 0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 1 1 2 2 1 " +
      std::to_string(body.bytes().size()) + " " + body.bytes() + " ";
  EXPECT_EQ(FairCenterSlidingWindow::DeserializeState(forged_rows, &kMetric,
                                                      &kJones)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// --- Golden bytes. ---

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(FKC_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// tests/fixtures/window_v2.bin holds the binary checkpoint of this stream's
// window; window_v1.txt the text checkpoint the last v1 build wrote for it,
// kept as a pin that the retired format is rejected.
FairCenterSlidingWindow GoldenStreamWindow() {
  FairCenterSlidingWindow window = MakeWindow(true);
  Rng rng(23);
  FeedRandom(&window, 150, &rng);
  return window;
}

void ExpectSameAnswer(FairCenterSlidingWindow* expected,
                      FairCenterSlidingWindow* actual,
                      const std::string& label) {
  EXPECT_EQ(expected->Memory().ToString(), actual->Memory().ToString())
      << label;
  auto a = expected->Query();
  auto b = actual->Query();
  ASSERT_TRUE(a.ok() && b.ok()) << label;
  EXPECT_EQ(a.value().radius, b.value().radius) << label;
  ASSERT_EQ(a.value().centers.size(), b.value().centers.size()) << label;
  for (size_t i = 0; i < a.value().centers.size(); ++i) {
    EXPECT_EQ(a.value().centers[i].id, b.value().centers[i].id) << label;
  }
}

TEST(CheckpointGoldenTest, LiveAndRestoredWindowsWriteTheV2Golden) {
  const std::string v2 = ReadFixture("window_v2.bin");
  ASSERT_EQ(v2.rfind("fkc-checkpoint-v2 ", 0), 0u);

  FairCenterSlidingWindow live = GoldenStreamWindow();
  EXPECT_EQ(live.SerializeState(), v2);

  auto from_v2 =
      FairCenterSlidingWindow::DeserializeState(v2, &kMetric, &kJones);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  EXPECT_EQ(from_v2.value().SerializeState(), v2);
  ExpectSameAnswer(&live, &from_v2.value(), "restored from v2");
}

// The text format wrote every stored copy in full, so one id could carry
// two different points; it is retired, and its fixture must fail cleanly.
TEST(CheckpointGoldenTest, RetiredV1FixtureIsRejected) {
  const std::string v1 = ReadFixture("window_v1.txt");
  ASSERT_EQ(v1.rfind("fkc-checkpoint-v1 ", 0), 0u);
  auto from_v1 =
      FairCenterSlidingWindow::DeserializeState(v1, &kMetric, &kJones);
  ASSERT_FALSE(from_v1.ok());
  EXPECT_EQ(from_v1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(from_v1.status().message().find("fkc-checkpoint-v1"),
            std::string::npos)
      << from_v1.status().ToString();
}

// The golden blob with its caps edited: a cap past INT_MAX, or caps summing
// past it, must fail with kInvalidArgument, neither aborting in
// ColorConstraint nor wrapping into a plausible constraint (a cap of
// 2^32 + 1 would read as 1).
TEST(CheckpointGoldenTest, RejectsOverflowingCaps) {
  const std::string v2 = ReadFixture("window_v2.bin");
  const std::string options =
      "fkc-checkpoint-v2 60 0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 1 1 ";
  const std::string caps = "2 2 2 ";  // two colors, two centers each
  ASSERT_EQ(v2.rfind(options + caps, 0), 0u);
  const std::string body = v2.substr(options.size() + caps.size());
  for (const char* forged :
       {"2 2147483648 2 ", "2 2147483647 2 ", "2 4294967297 2 "}) {
    auto restored = FairCenterSlidingWindow::DeserializeState(
        options + forged + body, &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << forged;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << forged;
  }
}

// The golden blob with its clock (the body's first int64, 150 arrivals)
// forged to INT64_MAX: it restored, and the next Update overflowed the
// clock into a negative one that the window's own checkpoint then refused.
// The same for the next id (the u64 after it), whose wrap put new ids below
// the stored ones.
TEST(CheckpointGoldenTest, RejectsAClockWithNoRoomToAdvance) {
  const std::string v2 = ReadFixture("window_v2.bin");
  const std::string prefix =
      "fkc-checkpoint-v2 60 0x1p+1 0x1p+0 0 1 0x0p+0 0x0p+0 1 1 2 2 2 2932 ";
  ASSERT_EQ(v2.rfind(prefix, 0), 0u);
  int64_t clock = 0;
  std::memcpy(&clock, v2.data() + prefix.size(), sizeof(clock));
  ASSERT_EQ(clock, 150);
  for (const int64_t forged :
       {std::numeric_limits<int64_t>::max(), (int64_t{1} << 62) + 1}) {
    std::string bytes = v2;
    std::memcpy(&bytes[prefix.size()], &forged, sizeof(forged));
    auto restored =
        FairCenterSlidingWindow::DeserializeState(bytes, &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << forged;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
  for (const uint64_t forged :
       {std::numeric_limits<uint64_t>::max(), (uint64_t{1} << 62) + 1}) {
    std::string bytes = v2;
    std::memcpy(&bytes[prefix.size() + sizeof(int64_t)], &forged,
                sizeof(forged));
    auto restored =
        FairCenterSlidingWindow::DeserializeState(bytes, &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << forged;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

// The golden blob with a beta the guess ladder cannot resolve (a ratio
// 1 + beta that rounds to 1): it must fail with kInvalidArgument, not
// restore into a window whose first update walks the ladder for minutes.
TEST(CheckpointGoldenTest, RejectsABetaBelowTheMinimum) {
  const std::string v2 = ReadFixture("window_v2.bin");
  const std::string head = "fkc-checkpoint-v2 60 ";
  const std::string beta = "0x1p+1 ";
  ASSERT_EQ(v2.rfind(head + beta, 0), 0u);
  const std::string rest = v2.substr(head.size() + beta.size());
  for (const char* forged : {"4.9e-324 ", "0x1p-30 ", "0 "}) {
    auto restored = FairCenterSlidingWindow::DeserializeState(
        head + forged + rest, &kMetric, &kJones);
    ASSERT_FALSE(restored.ok()) << forged;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << forged;
  }
}

}  // namespace
}  // namespace fkc
