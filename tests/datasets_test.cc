// Tests for the dataset substrate: generator contracts (sizes, colors,
// dimensionality, aspect-ratio bands, intrinsic dimension of rotated data),
// the CSV loader, and the registry. A doubling-dimension estimator, checked
// here first, measures the intrinsic dimension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "common/random.h"
#include "datasets/blobs.h"
#include "datasets/covtype_sim.h"
#include "datasets/csv_loader.h"
#include "datasets/higgs_sim.h"
#include "datasets/phones_sim.h"
#include "datasets/registry.h"
#include "datasets/rotated.h"
#include "metric/aspect_ratio.h"
#include "metric/metric.h"

namespace fkc {
namespace {

using datasets::BlobsOptions;
using datasets::CovtypeSimOptions;
using datasets::CsvOptions;
using datasets::GenerateBlobs;
using datasets::GenerateCovtypeSim;
using datasets::GenerateHiggsSim;
using datasets::GeneratePhonesSim;
using datasets::HiggsSimOptions;
using datasets::MakeDataset;
using datasets::ParseCsv;
using datasets::PhonesSimOptions;
using datasets::RandomRotation;
using datasets::RotateAndPad;

const EuclideanMetric kMetric;

Point P(std::initializer_list<double> coords) {
  return Point(Coordinates(coords), 0);
}

// Greedily extracts an r-net of `points`: a subset N with pairwise distances
// > r such that every point is within r of N.
std::vector<Point> GreedyNet(const Metric& metric,
                             const std::vector<Point>& points, double r) {
  std::vector<Point> net;
  for (const Point& p : points) {
    if (DistanceToSet(metric, p, net) > r) net.push_back(p);
  }
  return net;
}

// Estimates the doubling dimension of `points` as log2 of the largest number
// of (r/2)-net points inside one r-ball of the r-net, over `scales` dyadic
// scales below the diameter. Exact doubling dimension is NP-hard; this
// upper-bound-flavored estimate tracks the intrinsic dimension of the
// synthetic datasets (Figures 4 and 5).
double EstimateDoublingDimension(const Metric& metric,
                                 const std::vector<Point>& points,
                                 int scales = 6) {
  if (points.size() < 2) return 0.0;
  const double diameter = Diameter(metric, points).value();
  if (diameter <= 0.0) return 0.0;

  double worst_growth = 1.0;
  double r = diameter / 2.0;
  for (int s = 0; s < scales; ++s, r /= 2.0) {
    const std::vector<Point> coarse = GreedyNet(metric, points, r);
    const std::vector<Point> fine = GreedyNet(metric, points, r / 2.0);
    // A doubling space packs at most 2^D points with pairwise distance > r/2
    // into a ball of radius r.
    for (const Point& center : coarse) {
      int64_t inside = 0;
      for (const Point& q : fine) {
        if (metric.Distance(center, q) <= r) ++inside;
      }
      worst_growth = std::max(worst_growth, static_cast<double>(inside));
    }
    if (fine.size() == points.size()) break;  // finer scales are vacuous
  }
  return std::log2(worst_growth);
}

TEST(DoublingTest, GreedyNetCoversAndSeparates) {
  Rng rng(5);
  std::vector<Point> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back(P({rng.NextUniform(0, 10), rng.NextUniform(0, 10)}));
  }
  const double r = 2.0;
  const std::vector<Point> net = GreedyNet(kMetric, points, r);
  // Coverage: every point within r of the net.
  for (const Point& p : points) {
    EXPECT_LE(DistanceToSet(kMetric, p, net), r);
  }
  // Separation: net points pairwise > r.
  for (size_t i = 0; i < net.size(); ++i) {
    for (size_t j = i + 1; j < net.size(); ++j) {
      EXPECT_GT(kMetric.Distance(net[i], net[j]), r);
    }
  }
}

TEST(DoublingTest, LineHasLowDimension) {
  std::vector<Point> points;
  for (int i = 0; i < 200; ++i) points.push_back(P({static_cast<double>(i)}));
  const double dim = EstimateDoublingDimension(kMetric, points);
  EXPECT_LE(dim, 2.5);  // a line's doubling dimension is 1
  EXPECT_GE(dim, 0.5);
}

TEST(DoublingTest, HigherAmbientDimensionDetected) {
  Rng rng(9);
  auto cube = [&](int d) {
    std::vector<Point> points;
    for (int i = 0; i < 300; ++i) {
      Coordinates coords(d);
      for (double& x : coords) x = rng.NextUniform(0, 1);
      points.push_back(Point(coords, 0));
    }
    return EstimateDoublingDimension(kMetric, points);
  };
  const double dim1 = cube(1);
  const double dim5 = cube(5);
  EXPECT_GT(dim5, dim1 + 0.5) << "5-d cube must look higher-dimensional";
}

TEST(DoublingTest, RotationPreservesEstimate) {
  // The estimator must depend on geometry only: padding + rotation keeps it.
  Rng rng(13);
  std::vector<Point> base;
  for (int i = 0; i < 150; ++i) {
    base.push_back(P({rng.NextUniform(0, 10), rng.NextUniform(0, 10)}));
  }
  const double base_dim = EstimateDoublingDimension(kMetric, base);

  // Embed into 6 dims with an explicit rigid rotation that swaps into new
  // axes, independent of the RotateAndPad under test below.
  std::vector<Point> padded;
  for (const Point& p : base) {
    padded.push_back(P({0.0, p.coords[1], 0.0, p.coords[0], 0.0, 0.0}));
  }
  const double padded_dim = EstimateDoublingDimension(kMetric, padded);
  EXPECT_NEAR(base_dim, padded_dim, 1e-9);
}

TEST(DoublingTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(EstimateDoublingDimension(kMetric, {}), 0.0);
  EXPECT_DOUBLE_EQ(EstimateDoublingDimension(kMetric, {P({1})}), 0.0);
  EXPECT_DOUBLE_EQ(
      EstimateDoublingDimension(kMetric, {P({1}), P({1})}), 0.0);
}

TEST(BlobsTest, SizesColorsAndDimension) {
  BlobsOptions options;
  options.num_points = 500;
  options.dimension = 4;
  const auto points = GenerateBlobs(options);
  ASSERT_EQ(points.size(), 500u);
  std::set<int> colors;
  for (const Point& p : points) {
    EXPECT_EQ(p.dimension(), 4u);
    EXPECT_GE(p.color, 0);
    EXPECT_LT(p.color, options.ell);
    colors.insert(p.color);
  }
  EXPECT_EQ(colors.size(), static_cast<size_t>(options.ell));
}

TEST(BlobsTest, DeterministicPerSeed) {
  BlobsOptions options;
  options.num_points = 50;
  const auto a = GenerateBlobs(options);
  const auto b = GenerateBlobs(options);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].coords, b[i].coords);
    EXPECT_EQ(a[i].color, b[i].color);
  }
  options.seed = 7;
  const auto c = GenerateBlobs(options);
  EXPECT_NE(a[0].coords, c[0].coords);
}

TEST(BlobsTest, ColorsRoughlyBalanced) {
  BlobsOptions options;
  options.num_points = 7000;
  const auto points = GenerateBlobs(options);
  std::vector<int> counts(options.ell, 0);
  for (const Point& p : points) ++counts[p.color];
  for (int c = 0; c < options.ell; ++c) {
    EXPECT_NEAR(counts[c], 1000, 150) << "color " << c;
  }
}

TEST(RotatedTest, RotationIsOrthogonal) {
  const auto m = RandomRotation(5, 3);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      double dot = 0.0;
      for (int c = 0; c < 5; ++c) dot += m[i][c] * m[j][c];
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(RotatedTest, PreservesPairwiseDistances) {
  PhonesSimOptions options;
  options.num_points = 60;
  const auto base = GeneratePhonesSim(options);
  const auto rotated = RotateAndPad(base, 9, 11);
  ASSERT_EQ(rotated.size(), base.size());
  for (size_t i = 0; i < base.size(); i += 7) {
    for (size_t j = i + 1; j < base.size(); j += 5) {
      EXPECT_NEAR(kMetric.Distance(base[i], base[j]),
                  kMetric.Distance(rotated[i], rotated[j]), 1e-9);
    }
  }
  EXPECT_EQ(rotated[0].dimension(), 9u);
  EXPECT_EQ(rotated[0].color, base[0].color);
}

TEST(RotatedTest, IntrinsicDimensionUnchanged) {
  // The defining property behind Figure 5.
  PhonesSimOptions options;
  options.num_points = 150;
  const auto base = GeneratePhonesSim(options);
  const auto rotated = RotateAndPad(base, 12, 5);
  const double base_dim = EstimateDoublingDimension(kMetric, base);
  const double rotated_dim = EstimateDoublingDimension(kMetric, rotated);
  EXPECT_NEAR(base_dim, rotated_dim, 0.6);
}

TEST(PhonesSimTest, ShapeAndLabels) {
  PhonesSimOptions options;
  options.num_points = 2000;
  const auto points = GeneratePhonesSim(options);
  ASSERT_EQ(points.size(), 2000u);
  std::set<int> colors;
  for (const Point& p : points) {
    EXPECT_EQ(p.dimension(), 3u);
    colors.insert(p.color);
  }
  EXPECT_GE(colors.size(), 3u) << "several activities should occur";
}

TEST(PhonesSimTest, LabelsAreSticky) {
  PhonesSimOptions options;
  options.num_points = 5000;
  const auto points = GeneratePhonesSim(options);
  int changes = 0;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].color != points[i - 1].color) ++changes;
  }
  // With stickiness 0.98 expect ~2% switches, far below 50%.
  EXPECT_LT(changes, 500);
  EXPECT_GT(changes, 10);
}

TEST(PhonesSimTest, WideAspectRatio) {
  PhonesSimOptions options;
  options.num_points = 4000;
  const auto points = GeneratePhonesSim(options);
  // Subsample for the O(n^2) extrema scan.
  std::vector<Point> sample;
  for (size_t i = 0; i < points.size(); i += 4) sample.push_back(points[i]);
  const double ratio = AspectRatio(kMetric, sample).value();
  EXPECT_GT(ratio, 1e3) << "handoffs must create a wide scale range";
}

TEST(HiggsSimTest, TwoColorsAndDimension) {
  HiggsSimOptions options;
  options.num_points = 3000;
  const auto points = GenerateHiggsSim(options);
  int signal = 0;
  for (const Point& p : points) {
    EXPECT_EQ(p.dimension(), 7u);
    ASSERT_GE(p.color, 0);
    ASSERT_LE(p.color, 1);
    signal += (p.color == 0);
  }
  // Roughly the configured signal fraction.
  EXPECT_NEAR(static_cast<double>(signal) / 3000.0, 0.53, 0.05);
}

TEST(CovtypeSimTest, AmbientVsLatentDimension) {
  CovtypeSimOptions options;
  options.num_points = 400;
  const auto points = GenerateCovtypeSim(options);
  ASSERT_EQ(points.size(), 400u);
  EXPECT_EQ(points[0].dimension(), 54u);
  // Intrinsic dimension must be far below 54 (low-rank embedding).
  std::vector<Point> sample(points.begin(), points.begin() + 200);
  const double dim = EstimateDoublingDimension(kMetric, sample);
  EXPECT_LT(dim, 12.0);
}

TEST(CovtypeSimTest, CoverTypesImbalanced) {
  CovtypeSimOptions options;
  options.num_points = 7000;
  const auto points = GenerateCovtypeSim(options);
  std::vector<int> counts(options.ell, 0);
  for (const Point& p : points) ++counts[p.color];
  EXPECT_GT(counts[0], counts[6]) << "first cover types dominate";
  for (int c = 0; c < options.ell; ++c) EXPECT_GT(counts[c], 0);
}

TEST(CsvLoaderTest, ParsesColorLastColumnByDefault) {
  auto result = ParseCsv("1.5,2.5,0\n3.0,4.0,1\n");
  ASSERT_TRUE(result.ok());
  const auto& points = result.value();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].coords, Coordinates({1.5, 2.5}));
  EXPECT_EQ(points[0].color, 0);
  EXPECT_EQ(points[1].color, 1);
}

TEST(CsvLoaderTest, CustomColorColumnAndSkipLines) {
  CsvOptions options;
  options.color_column = 0;
  options.skip_lines = 1;
  auto result = ParseCsv("header,junk\n2,7.5\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].color, 2);
  EXPECT_EQ(result.value()[0].coords, Coordinates({7.5}));
}

TEST(CsvLoaderTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("1,2,0\n1,0\n").ok());
}

TEST(CsvLoaderTest, RejectsBadNumbers) {
  EXPECT_FALSE(ParseCsv("abc,0\n").ok());
  EXPECT_FALSE(ParseCsv("1.0,zebra\n").ok());
}

TEST(CsvLoaderTest, SkipsBlankLines) {
  auto result = ParseCsv("1,0\n\n2,1\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

TEST(CsvLoaderTest, MissingFileIsIoError) {
  auto result = datasets::LoadCsv("/nonexistent/file.csv");
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(RegistryTest, KnownDatasets) {
  for (const std::string& name : datasets::RealDatasetNames()) {
    auto result = MakeDataset(name, 200);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result.value().points.size(), 200u);
    EXPECT_GT(result.value().ell, 0);
  }
}

TEST(RegistryTest, ParameterizedFamilies) {
  auto blobs = MakeDataset("blobs5", 100);
  ASSERT_TRUE(blobs.ok());
  EXPECT_EQ(blobs.value().points[0].dimension(), 5u);

  auto rotated = MakeDataset("rotated9", 100);
  ASSERT_TRUE(rotated.ok());
  EXPECT_EQ(rotated.value().points[0].dimension(), 9u);
}

TEST(RegistryTest, UnknownAndMalformedNames) {
  EXPECT_EQ(MakeDataset("nope", 10).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(MakeDataset("blobsX", 10).ok());
  EXPECT_FALSE(MakeDataset("rotated1", 10).ok());  // below base dimension 3
}

// Real-dataset ingestion: a prepared CSV under FKC_DATA_DIR takes precedence
// over the simulator, short files cycle to the requested length, and the
// absence of a file falls back to the simulator with kNotFound semantics.
TEST(RegistryTest, RealCsvPreferredOverSimulatorWhenPresent) {
  const std::string dir = ::testing::TempDir() + "fkc_real_data";
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  // Prepared format: coordinates then a 0-based color in the last column.
  {
    std::ofstream csv(dir + "/higgs.csv");
    csv << "1.0,2.0,3.0,4.0,5.0,6.0,7.0,0\n"
        << "7.0,6.0,5.0,4.0,3.0,2.0,1.0,1\n"
        << "1.5,2.5,3.5,4.5,5.5,6.5,7.5,1\n";
  }

  auto direct = datasets::LoadRealDataset("higgs", 5, dir);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct.value().points.size(), 5u);  // 3 rows cycled to 5
  EXPECT_EQ(direct.value().ell, 2);
  EXPECT_EQ(direct.value().points[0].dimension(), 7u);
  EXPECT_EQ(direct.value().points[3].coords, direct.value().points[0].coords);

  // MakeDataset routes through the same file when FKC_DATA_DIR points at it.
  // Scoped so a failing assertion cannot leak the variable into later tests
  // in this binary (which also call MakeDataset).
  struct EnvGuard {
    explicit EnvGuard(const std::string& value) {
      setenv("FKC_DATA_DIR", value.c_str(), /*overwrite=*/1);
    }
    ~EnvGuard() { unsetenv("FKC_DATA_DIR"); }
  };
  {
    const EnvGuard guard(dir);
    auto via_registry = MakeDataset("higgs", 4);
    ASSERT_TRUE(via_registry.ok());
    EXPECT_EQ(via_registry.value().points[0].coords,
              direct.value().points[0].coords);
    EXPECT_EQ(via_registry.value().ell, 2);

    // No phones.csv in the directory: simulator fallback, untouched
    // semantics.
    auto fallback = MakeDataset("phones", 50);
    ASSERT_TRUE(fallback.ok());
    EXPECT_EQ(fallback.value().points.size(), 50u);
    EXPECT_EQ(fallback.value().ell, 7);
  }

  EXPECT_EQ(datasets::LoadRealDataset("phones", 10, dir).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(datasets::LoadRealDataset("blobs3", 10, dir).status().code(),
            StatusCode::kInvalidArgument);
}

// FKC_REQUIRE_REAL_DATA turns the simulator fallback into a hard error: a
// run that is supposed to report real-data numbers must not silently
// measure the statistical stand-in. "0"/unset keep the (warning) fallback.
TEST(RegistryTest, RequireRealDataForbidsSimulatorFallback) {
  const std::string dir = ::testing::TempDir() + "fkc_require_real";
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  std::remove((dir + "/higgs.csv").c_str());  // stale copy from a prior run
  setenv("FKC_DATA_DIR", dir.c_str(), /*overwrite=*/1);
  setenv("FKC_REQUIRE_REAL_DATA", "1", /*overwrite=*/1);

  auto missing = MakeDataset("higgs", 20);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The error must name the knob and the probed location so the log line
  // alone tells the operator what to fix.
  EXPECT_NE(missing.status().ToString().find("FKC_REQUIRE_REAL_DATA"),
            std::string::npos);
  EXPECT_NE(missing.status().ToString().find(dir), std::string::npos);

  // Synthetic families are unaffected: there is no real file to require.
  EXPECT_TRUE(MakeDataset("blobs3", 20).ok());

  // A prepared file satisfies the requirement.
  {
    std::ofstream csv(dir + "/higgs.csv");
    csv << "1.0,2.0,3.0,4.0,5.0,6.0,7.0,0\n"
        << "7.0,6.0,5.0,4.0,3.0,2.0,1.0,1\n";
  }
  EXPECT_TRUE(MakeDataset("higgs", 6).ok());

  setenv("FKC_REQUIRE_REAL_DATA", "0", /*overwrite=*/1);
  setenv("FKC_DATA_DIR", (dir + "/nonexistent").c_str(), /*overwrite=*/1);
  EXPECT_TRUE(MakeDataset("higgs", 6).ok());  // "0" keeps the fallback

  unsetenv("FKC_REQUIRE_REAL_DATA");
  unsetenv("FKC_DATA_DIR");
}

// The checked-in ~2k-row sample (datasets/ci_sample, see its README) keeps
// the real-CSV ingest path exercised in CI without the download script: the
// same LoadRealDataset entry the full-size prepared files go through.
TEST(RegistryTest, CheckedInCiSampleLoadsThroughRealCsvPath) {
#ifndef FKC_CI_SAMPLE_DIR
  GTEST_SKIP() << "FKC_CI_SAMPLE_DIR not configured";
#else
  auto sample = datasets::LoadRealDataset("higgs", 2500, FKC_CI_SAMPLE_DIR);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  ASSERT_EQ(sample.value().points.size(), 2500u);  // 2000 rows cycled
  EXPECT_EQ(sample.value().ell, 2);
  std::set<int> colors;
  for (const Point& p : sample.value().points) {
    ASSERT_EQ(p.dimension(), 7u);
    colors.insert(p.color);
  }
  EXPECT_EQ(colors.size(), 2u);
  // Cycling semantics: row 2000 repeats row 0.
  EXPECT_EQ(sample.value().points[2000].coords,
            sample.value().points[0].coords);
#endif
}

TEST(RegistryTest, StreamWrapsCycling) {
  auto dataset = MakeDataset("higgs", 10);
  ASSERT_TRUE(dataset.ok());
  auto stream = datasets::MakeStream(std::move(dataset).value());
  for (int i = 0; i < 25; ++i) {
    EXPECT_TRUE(stream->Next().has_value());
  }
}

}  // namespace
}  // namespace fkc
