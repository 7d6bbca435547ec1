// Forwarding decorators over the library's existing seams — Metric,
// FairCenterSolver and SpillStore — used only by the traced pass. Each one
// forwards every call unchanged to the wrapped object (so answers and
// checkpoint bytes stay identical, which the benchmark verifies) and
// records, into the shared Tracer, a count of the work (distance
// evaluations by kind, spill puts/gets and bytes) and, for the coarse
// calls (Solve, Put, Get, Erase), a span. Distance calls are counted but
// not spanned: they run millions of times per run.
#ifndef FKC_PERFBENCH_DECORATORS_H_
#define FKC_PERFBENCH_DECORATORS_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "sequential/fair_center_solver.h"
#include "serving/spill_store.h"
#include "trace.h"

namespace perfbench {

class TracingMetric final : public fkc::Metric {
 public:
  /// `inner` and `tracer` must outlive this decorator.
  TracingMetric(const fkc::Metric* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  double Distance(const fkc::Point& a, const fkc::Point& b) const override {
    if (tracer_->active()) ++tracer_->counters().scalar_calls;
    return inner_->Distance(a, b);
  }
  void DistanceMany(const fkc::Point& p, const fkc::Point* const* points,
                    size_t count, double* out) const override {
    if (tracer_->active()) {
      tracer_->counters().many_pairs += static_cast<int64_t>(count);
    }
    inner_->DistanceMany(p, points, count, out);
  }
  void DistanceSoA(const fkc::Point& p, const fkc::CoordinatePool& pool,
                   double* out) const override {
    if (tracer_->active()) {
      tracer_->counters().soa_pairs += static_cast<int64_t>(pool.size());
    }
    inner_->DistanceSoA(p, pool, out);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  const fkc::Metric* inner_;
  Tracer* tracer_;
};

class TracingSolver final : public fkc::FairCenterSolver {
 public:
  TracingSolver(const fkc::FairCenterSolver* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  fkc::Result<fkc::FairCenterSolution> Solve(
      const fkc::Metric& metric, const std::vector<fkc::Point>& points,
      const fkc::ColorConstraint& constraint) const override {
    ScopedSpan span(tracer_, "solver.solve");
    return inner_->Solve(metric, points, constraint);
  }
  double ApproximationFactor() const override {
    return inner_->ApproximationFactor();
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  const fkc::FairCenterSolver* inner_;
  Tracer* tracer_;
};

class TracingSpillStore final : public fkc::serving::SpillStore {
 public:
  TracingSpillStore(std::shared_ptr<fkc::serving::SpillStore> inner,
                    Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  fkc::Status Put(const std::string& key, std::string blob) override {
    ScopedSpan span(tracer_, "spill.put");
    if (tracer_->active()) {
      ++tracer_->counters().spill_puts;
      tracer_->counters().put_bytes += static_cast<int64_t>(blob.size());
    }
    return inner_->Put(key, std::move(blob));
  }
  fkc::Result<std::string> Get(const std::string& key) const override {
    ScopedSpan span(tracer_, "spill.get");
    auto blob = inner_->Get(key);
    if (tracer_->active() && blob.ok()) {
      ++tracer_->counters().spill_gets;
      tracer_->counters().get_bytes +=
          static_cast<int64_t>(blob.value().size());
    }
    return blob;
  }
  fkc::Status Erase(const std::string& key) override {
    ScopedSpan span(tracer_, "spill.erase");
    return inner_->Erase(key);
  }
  fkc::Result<int64_t> GarbageCollect(
      const std::set<std::string>& keep) override {
    return inner_->GarbageCollect(keep);
  }
  fkc::Result<int64_t> Count() const override { return inner_->Count(); }
  const char* Name() const override { return inner_->Name(); }

 private:
  std::shared_ptr<fkc::serving::SpillStore> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // FKC_PERFBENCH_DECORATORS_H_
