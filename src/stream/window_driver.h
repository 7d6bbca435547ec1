// Experiment driver: feeds a stream into any number of sliding-window
// algorithms and full-window baselines, measures the paper's four indicators
// (memory in points, update time, query time, approximation ratio vs the
// best baseline radius per window), and averages them over consecutive
// query windows exactly as Section 4 prescribes.
#ifndef FKC_STREAM_WINDOW_DRIVER_H_
#define FKC_STREAM_WINDOW_DRIVER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fair_center_sliding_window.h"
#include "matroid/color_constraint.h"
#include "stream/metrics_recorder.h"
#include "stream/reference_window.h"
#include "stream/stream.h"

namespace fkc {

/// Uniform handle the driver uses to drive one competitor.
class DrivenAlgorithm {
 public:
  virtual ~DrivenAlgorithm() = default;
  virtual void Update(const Point& p) = 0;
  /// Consumes a batch of consecutive arrivals. The default unrolls into
  /// Update calls; adapters over batch-capable windows forward to their
  /// native UpdateBatch so the parallel engine sees whole batches.
  virtual void UpdateBatch(const std::vector<Point>& batch) {
    for (const Point& p : batch) Update(p);
  }
  virtual Result<FairCenterSolution> Query(QueryStats* stats) = 0;
  /// Stored points, the paper's memory unit.
  virtual int64_t MemoryPoints() const = 0;
  virtual const std::string& Name() const = 0;
  /// Baselines define the denominator of the approximation ratio.
  virtual bool IsBaseline() const = 0;
};

/// Adapter over a FairCenterSlidingWindow (any variant or preset).
class StreamingAdapter final : public DrivenAlgorithm {
 public:
  StreamingAdapter(std::string name, FairCenterSlidingWindow* window)
      : name_(std::move(name)), window_(window) {}

  void Update(const Point& p) override { window_->Update(p); }
  void UpdateBatch(const std::vector<Point>& batch) override {
    window_->UpdateBatch(batch);
  }
  Result<FairCenterSolution> Query(QueryStats* stats) override {
    return window_->Query(stats);
  }
  int64_t MemoryPoints() const override {
    return window_->Memory().TotalPoints();
  }
  const std::string& Name() const override { return name_; }
  bool IsBaseline() const override { return false; }

 private:
  std::string name_;
  FairCenterSlidingWindow* window_;
};

/// A sequential solver run on a verbatim copy of the window — how the paper
/// evaluates ChenEtAl and Jones in the sliding-window setting.
class BaselineAdapter final : public DrivenAlgorithm {
 public:
  BaselineAdapter(std::string name, const FairCenterSolver* solver,
                  const Metric* metric, ColorConstraint constraint,
                  int64_t window_size);

  void Update(const Point& p) override { window_.Update(p); }
  Result<FairCenterSolution> Query(QueryStats* stats) override;
  int64_t MemoryPoints() const override { return window_.MemoryPoints(); }
  const std::string& Name() const override { return name_; }
  bool IsBaseline() const override { return true; }

 private:
  std::string name_;
  const FairCenterSolver* solver_;
  const Metric* metric_;
  ColorConstraint constraint_;
  ReferenceWindow window_;
};

/// Final averaged measurements for one algorithm.
struct AlgorithmReport {
  std::string name;
  double mean_update_ms = 0.0;
  double mean_query_ms = 0.0;
  double mean_memory_points = 0.0;
  double mean_radius = 0.0;
  /// Mean per-window radius / best-baseline-radius; NaN without baselines.
  double mean_ratio = 0.0;
  int64_t queries = 0;
};

/// Experiment schedule.
struct DriverOptions {
  /// Total stream points fed (must exceed window_size to exercise sliding).
  int64_t stream_length = 0;
  /// Number of measured query windows at the end of the stream (the paper
  /// averages over 200 consecutive windows).
  int64_t num_queries = 200;
  /// Arrivals between consecutive measured queries.
  int64_t query_stride = 1;
  /// Arrivals delivered per UpdateBatch call. 1 reproduces the classic
  /// point-at-a-time drive; larger values exercise the batched engine.
  /// Batches are flushed early when a measured query is due, so query
  /// positions are identical at every batch size.
  int64_t update_batch_size = 1;
  /// Verify that every returned solution satisfies the color caps.
  bool check_fairness = true;
};

/// Runs registered algorithms over a stream and reports averages.
class WindowDriver {
 public:
  WindowDriver(const Metric* metric, ColorConstraint constraint,
               int64_t window_size);

  /// Registers a competitor; the driver takes ownership of the adapter.
  void Add(std::unique_ptr<DrivenAlgorithm> algorithm);

  /// Convenience wrappers.
  void AddStreaming(std::string name, FairCenterSlidingWindow* window) {
    Add(std::make_unique<StreamingAdapter>(std::move(name), window));
  }
  void AddBaseline(std::string name, const FairCenterSolver* solver);

  /// Feeds `options.stream_length` points and measures the tail windows.
  /// Radii are always evaluated against the true window contents.
  std::vector<AlgorithmReport> Run(PointStream* stream,
                                   const DriverOptions& options);

 private:
  const Metric* metric_;
  ColorConstraint constraint_;
  int64_t window_size_;
  std::vector<std::unique_ptr<DrivenAlgorithm>> algorithms_;
};

}  // namespace fkc

#endif  // FKC_STREAM_WINDOW_DRIVER_H_
