// Hopcroft–Karp maximum bipartite matching, O(E sqrt(V)).
//
// This is the combinatorial engine behind every fair solver's head <-> color
// matching (see capacitated_matching.h): the fairness constraint is a
// partition matroid, and feasibility of one radius is a saturating matching.
#ifndef FKC_MATCHING_HOPCROFT_KARP_H_
#define FKC_MATCHING_HOPCROFT_KARP_H_

#include <vector>

#include "matching/bipartite_graph.h"

namespace fkc {

/// Result of a maximum-matching computation.
struct MatchingResult {
  /// match_left[l] = matched right vertex, or -1 if l is unmatched.
  std::vector<int> match_left;
  /// match_right[r] = matched left vertex, or -1 if r is unmatched.
  std::vector<int> match_right;
  /// Number of matched pairs.
  int size = 0;

  bool Saturates(int left_count) const { return size == left_count; }
};

/// Computes a maximum matching of `graph`.
MatchingResult MaximumBipartiteMatching(const BipartiteGraph& graph);

}  // namespace fkc

#endif  // FKC_MATCHING_HOPCROFT_KARP_H_
