// The covtype query coreset of the densest guess of a W = 10000 window
// (delta = 0.5, gamma = 27), fed 11,000 arrivals: ~9,900 points, most of
// them borrowed c-attractor columns, d = 54, 7 colors. Built once per
// process. The guess keeps its copy pool across CoresetPool calls, so the
// fixture is mutable; it gets no arrival after it is built, so every call
// lends the same copy pool unchanged.
#ifndef FKC_TESTS_COVTYPE_CORESET_H_
#define FKC_TESTS_COVTYPE_CORESET_H_

#include <cstdint>
#include <vector>

#include "core/guess_structure.h"
#include "core/point_arena.h"
#include "datasets/registry.h"
#include "metric/metric.h"
#include "sequential/color_constraint.h"

namespace fkc {

struct CovtypeCoreset {
  CovtypeCoreset()
      : dataset(datasets::MakeDataset("covtype", 30000).value()),
        constraint(ColorConstraint::Proportional(dataset.points, dataset.ell,
                                                 14)),
        guess(27.0, 0.5, 10000, constraint, CoreVariant::kFull) {
    const EuclideanMetric metric;
    for (int64_t t = 1; t <= 11000; ++t) {
      Point p = dataset.points[static_cast<size_t>(t) % dataset.points.size()];
      p.arrival = t;
      p.id = static_cast<uint64_t>(t);
      guess.Update(arena.Add(p), p, t, arena, metric, nullptr);
      arena.Sweep([this](const auto& mark) { guess.ForEachSlot(mark); },
                  [this](const std::vector<Slot>& map) {
                    guess.RemapSlots(map);
                  });
    }
  }

  datasets::Dataset dataset;
  ColorConstraint constraint;
  PointArena arena;
  GuessStructure guess;
};

inline CovtypeCoreset& Covtype() {
  static CovtypeCoreset* const coreset = new CovtypeCoreset();
  return *coreset;
}

}  // namespace fkc

#endif  // FKC_TESTS_COVTYPE_CORESET_H_
