// A seeded mutation loop over the committed checkpoint fixtures: the window
// blob (window_v2.bin), the fleet blob (replog_v2_fleet.bin) and the
// directory-backed log (replog_v2/). Each copy gets one to three mutations:
// bit flips, byte sets, binary numbers overwritten with 0, +-1e308, a
// subnormal, +-inf or NaN, text number tokens replaced by the same values,
// text tokens grown or deleted, and truncation. A copy that restores then
// takes updates, queries and a checkpoint, whose bytes must restore again.
// Nothing may abort: every malformed input fails with a Status.
//
// Copies per fixture: FKC_MUTATION_COPIES, else 3,000 in optimized builds
// and 300 otherwise (the sanitizer builds). Copy i of a fixture is seeded
// with i alone, so a failure names the copy that reproduces it.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "serving/delta_log.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace {

namespace fs = std::filesystem;
using serving::DeltaLog;
using serving::ShardManager;

const EuclideanMetric kMetric;
const JonesFairCenter kJones;

// Reported when the process aborts or is stopped (a copy that hangs):
// which fixture and copy were running.
char g_current[128] = "";

void ReportCopy(int signal) {
  const ssize_t ignored = write(2, g_current, std::strlen(g_current));
  (void)ignored;
  std::signal(signal, SIG_DFL);
  std::raise(signal);
}

int64_t Copies() {
  if (const char* env = std::getenv("FKC_MUTATION_COPIES")) {
    return std::strtoll(env, nullptr, 10);
  }
#ifdef NDEBUG
  return 3000;
#else
  return 300;
#endif
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string Fixture(const std::string& name) {
  return std::string(FKC_FIXTURE_DIR) + "/" + name;
}

// The [begin, end) of every whitespace-delimited run of printable bytes.
std::vector<std::pair<size_t, size_t>> Tokens(const std::string& bytes) {
  std::vector<std::pair<size_t, size_t>> tokens;
  size_t i = 0;
  while (i < bytes.size()) {
    while (i < bytes.size() && (bytes[i] == ' ' || bytes[i] == '\n')) ++i;
    const size_t begin = i;
    while (i < bytes.size() && bytes[i] > ' ' && bytes[i] < 0x7f) ++i;
    if (i > begin && (i == bytes.size() || bytes[i] == ' ' ||
                      bytes[i] == '\n')) {
      tokens.emplace_back(begin, i);
    }
    if (i == begin) ++i;  // a binary byte
  }
  return tokens;
}

// One to three mutations of `bytes`, drawn from `rng`.
std::string Mutate(std::string bytes, Rng* rng) {
  static const double kNumbers[] = {
      0.0,
      1e308,
      -1e308,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  static const char* const kTexts[] = {"0",    "1e308", "-1e308",
                                       "4.9e-324", "0x1p-1074", "inf",
                                       "-inf", "nan",   "-0"};
  const int count = 1 + static_cast<int>(rng->NextBounded(3));
  for (int m = 0; m < count && !bytes.empty(); ++m) {
    const size_t at = rng->NextBounded(bytes.size());
    switch (rng->NextBounded(8)) {
      case 0:  // flip a bit
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng->NextBounded(8)));
        break;
      case 1: {  // set a byte
        static const char kBytes[] = {'\0', '\xff', ' ', '9', '-', '\n'};
        bytes[at] = rng->NextBernoulli(0.5)
                        ? kBytes[rng->NextBounded(sizeof(kBytes))]
                        : static_cast<char>(rng->NextBounded(256));
        break;
      }
      case 2:  // a binary number
        if (bytes.size() >= sizeof(double)) {
          const double value = kNumbers[rng->NextBounded(7)];
          std::memcpy(&bytes[rng->NextBounded(bytes.size() - 7)], &value,
                      sizeof(value));
        }
        break;
      case 3: {  // a binary count
        static const int64_t kCounts[] = {0, -1, 1LL << 31, 1LL << 40,
                                          std::numeric_limits<int64_t>::max()};
        const int64_t value = kCounts[rng->NextBounded(5)];
        if (bytes.size() >= sizeof(value)) {
          std::memcpy(&bytes[rng->NextBounded(bytes.size() - 7)], &value,
                      sizeof(value));
        }
        break;
      }
      case 4:
      case 5:
      case 6: {  // a text token: replaced by a number, deleted or grown
        const auto tokens = Tokens(bytes);
        if (tokens.empty()) break;
        const auto [begin, end] = tokens[rng->NextBounded(tokens.size())];
        const std::string token = bytes.substr(begin, end - begin);
        std::string replacement;
        switch (rng->NextBounded(4)) {
          case 0:
            replacement = kTexts[rng->NextBounded(9)];
            break;
          case 1:
            break;  // deleted
          case 2:
            replacement = token + " " + token;
            break;
          default:
            replacement = token + std::string(1 + rng->NextBounded(12), '9');
            break;
        }
        bytes.replace(begin, end - begin, replacement);
        break;
      }
      default:  // truncate
        bytes.resize(at);
        break;
    }
  }
  return bytes;
}

// A few arrivals of the window's dimension, in colors below `ell`.
std::vector<Point> Arrivals(int64_t dimension, int ell, Rng* rng) {
  std::vector<Point> points;
  const size_t dim = dimension >= 1 && dimension <= 64
                         ? static_cast<size_t>(dimension)
                         : 2;
  for (int i = 0; i < 5; ++i) {
    Coordinates coords(dim);
    for (double& x : coords) x = rng->NextUniform(-10.0, 10.0);
    points.emplace_back(std::move(coords),
                        static_cast<int>(rng->NextBounded(ell)));
  }
  return points;
}

// Updates, queries and checkpoints a restored window; its checkpoint must
// restore.
void Exercise(FairCenterSlidingWindow* window, Rng* rng) {
  const int ell = window->constraint().ell();
  for (Point& p : Arrivals(window->dimension(), ell, rng)) {
    (void)window->Update(std::move(p));
  }
  (void)window->Query();
  (void)window->Query(ObjectiveKind::kKMedian);
  const auto again = FairCenterSlidingWindow::DeserializeState(
      window->SerializeState(), &kMetric, &kJones);
  EXPECT_TRUE(again.ok()) << g_current << again.status().ToString();
}

// The same for a restored fleet.
void Exercise(ShardManager* fleet, Rng* rng) {
  std::vector<std::string> keys = fleet->Keys();
  keys.push_back("tenant-new");
  const int ell = fleet->constraint().ell();
  for (const std::string& key : keys) {
    const FairCenterSlidingWindow* shard = fleet->shard(key);
    const int64_t dimension = shard != nullptr ? shard->dimension() : 2;
    for (Point& p : Arrivals(dimension, ell, rng)) {
      (void)fleet->Ingest(key, std::move(p));
    }
    (void)fleet->Query(key);
  }
  (void)fleet->QueryAll();
  const auto blob = fleet->CheckpointAll();
  ASSERT_TRUE(blob.ok()) << g_current << blob.status().ToString();
  const auto again = ShardManager::Restore(blob.value(), &kMetric, &kJones);
  EXPECT_TRUE(again.ok()) << g_current << again.status().ToString();
}

class CheckpointMutationTest : public testing::Test {
 protected:
  void SetUp() override {
    std::signal(SIGABRT, ReportCopy);
    std::signal(SIGTERM, ReportCopy);
#ifndef __SANITIZE_ADDRESS__
    // A forged count must fail as a Status, not take the host's memory: a
    // reader that allocates past 4 GiB fails here (AddressSanitizer keeps
    // its own limit and needs the address space).
    const rlimit limit = {rlim_t{4} << 30, rlim_t{4} << 30};
    setrlimit(RLIMIT_AS, &limit);
#endif
  }
  void TearDown() override {
    std::signal(SIGABRT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }

  // How many copies got past the reader, in the test's output.
  static void Report(const char* what, int64_t count) {
    RecordProperty(what, std::to_string(count));
    std::printf("%s: %lld of %lld copies\n", what,
                static_cast<long long>(count),
                static_cast<long long>(Copies()));
  }

  static void Mark(const char* fixture, int64_t copy) {
    std::snprintf(g_current, sizeof(g_current), "[%s copy %lld] ", fixture,
                  static_cast<long long>(copy));
  }
};

TEST_F(CheckpointMutationTest, WindowBlob) {
  const std::string original = ReadAll(Fixture("window_v2.bin"));
  ASSERT_FALSE(original.empty());
  int64_t restored = 0;
  for (int64_t copy = 0; copy < Copies(); ++copy) {
    Mark("window_v2.bin", copy);
    Rng rng(static_cast<uint64_t>(copy));
    auto window = FairCenterSlidingWindow::DeserializeState(
        Mutate(original, &rng), &kMetric, &kJones);
    if (!window.ok()) continue;
    ++restored;
    Exercise(&window.value(), &rng);
  }
  // Some mutations land where the reader cannot tell (a coordinate's low
  // bits), most where it must refuse.
  Report("restored", restored);
  EXPECT_GT(restored, 0);
  EXPECT_LT(restored, Copies());
}

TEST_F(CheckpointMutationTest, FleetBlob) {
  const std::string original = ReadAll(Fixture("replog_v2_fleet.bin"));
  ASSERT_FALSE(original.empty());
  int64_t restored = 0;
  for (int64_t copy = 0; copy < Copies(); ++copy) {
    Mark("replog_v2_fleet.bin", copy);
    Rng rng(static_cast<uint64_t>(copy));
    auto fleet =
        ShardManager::Restore(Mutate(original, &rng), &kMetric, &kJones);
    if (!fleet.ok()) continue;
    ++restored;
    Exercise(&fleet.value(), &rng);
  }
  Report("restored", restored);
  EXPECT_GT(restored, 0);
  EXPECT_LT(restored, Copies());
}

TEST_F(CheckpointMutationTest, LogDirectory) {
  // One of the log's files mutated per copy; recovery may drop the entries
  // whose framing breaks, so a copy that opens replays what is left.
  const fs::path fixture = Fixture("replog_v2");
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : fs::directory_iterator(fixture)) {
    files.emplace_back(entry.path().filename().string(),
                       ReadAll(entry.path().string()));
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 4u);
  const fs::path dir =
      fs::path(testing::TempDir()) /
      ("fkc_mutation_log_" + std::to_string(static_cast<long>(getpid())));
  int64_t replayed = 0;
  for (int64_t copy = 0; copy < Copies(); ++copy) {
    Mark("replog_v2", copy);
    Rng rng(static_cast<uint64_t>(copy));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const size_t target = rng.NextBounded(files.size());
    for (size_t f = 0; f < files.size(); ++f) {
      std::ofstream out(dir / files[f].first, std::ios::binary);
      const std::string bytes =
          f == target ? Mutate(files[f].second, &rng) : files[f].second;
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    DeltaLog log(dir.string());
    if (!log.Open().ok()) continue;
    auto fleet = log.Replay(&kMetric, &kJones);
    if (!fleet.ok()) continue;
    ++replayed;
    Exercise(&fleet.value(), &rng);
  }
  fs::remove_all(dir);
  Report("replayed", replayed);
  EXPECT_GT(replayed, 0);
}

}  // namespace
}  // namespace fkc
