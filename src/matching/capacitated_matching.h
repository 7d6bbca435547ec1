// Capacitated bipartite matching: right-side vertices (colors) accept up to
// cap(i) matches. Used to assign cluster heads to color slots in the Jones
// and ChenEtAl fair-center solvers. It runs Hopcroft–Karp on the graph that
// expands each color into cap(i) slots, without building that graph: a
// head's neighbors are read off its allowed colors, in list order and then
// slot order, which is the order an explicit expanded graph would list
// them. The result is therefore the one Hopcroft–Karp gives on that graph
// (tests/matching_test.cc checks it against the explicit-graph reference in
// tests/hopcroft_karp.h), and a call allocates only its per-head and
// per-slot arrays.
#ifndef FKC_MATCHING_CAPACITATED_MATCHING_H_
#define FKC_MATCHING_CAPACITATED_MATCHING_H_

#include <vector>

#include "sequential/color_constraint.h"

namespace fkc {

/// Result of a capacitated matching of heads to colors.
struct CapacitatedMatchingResult {
  /// assigned_color[h] = color matched to head h, or -1 if unmatched.
  std::vector<int> assigned_color;
  /// Number of matched heads.
  int size = 0;

  bool Saturates(int head_count) const { return size == head_count; }
};

/// Computes a maximum matching of heads to colors where head h may use color
/// c iff `allowed[h]` contains c, and color c is used at most
/// `constraint.cap(c)` times.
CapacitatedMatchingResult MaximumCapacitatedMatching(
    const std::vector<std::vector<int>>& allowed,
    const ColorConstraint& constraint);

}  // namespace fkc

#endif  // FKC_MATCHING_CAPACITATED_MATCHING_H_
