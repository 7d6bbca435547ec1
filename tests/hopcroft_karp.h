// Hopcroft–Karp maximum bipartite matching, O(E sqrt(V)), on an explicit
// graph: the reference the capacitated head <-> color matching
// (matching/capacitated_matching.h) is diffed against. That matching runs
// the same algorithm on the cap-expanded graph without building it, so the
// library itself needs neither type.
#ifndef FKC_TESTS_HOPCROFT_KARP_H_
#define FKC_TESTS_HOPCROFT_KARP_H_

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/logging.h"

namespace fkc {

/// A bipartite graph with `left_size` left vertices and `right_size` right
/// vertices, stored as left-side adjacency lists.
class BipartiteGraph {
 public:
  BipartiteGraph(int left_size, int right_size)
      : adjacency_(left_size), right_size_(right_size) {
    FKC_CHECK_GE(left_size, 0);
    FKC_CHECK_GE(right_size, 0);
  }

  /// Adds an edge (duplicate edges are allowed and harmless for matching).
  void AddEdge(int left, int right) {
    FKC_CHECK_GE(left, 0);
    FKC_CHECK_LT(left, left_size());
    FKC_CHECK_GE(right, 0);
    FKC_CHECK_LT(right, right_size_);
    adjacency_[left].push_back(right);
    ++edge_count_;
  }

  int left_size() const { return static_cast<int>(adjacency_.size()); }
  int right_size() const { return right_size_; }
  int64_t edge_count() const { return edge_count_; }

  const std::vector<int>& Neighbors(int left) const {
    return adjacency_[left];
  }

 private:
  std::vector<std::vector<int>> adjacency_;
  int right_size_;
  int64_t edge_count_ = 0;
};

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

namespace hopcroft_karp_internal {

constexpr int kInf = std::numeric_limits<int>::max();

// Layered BFS from free left vertices; returns true if an augmenting path
// exists. dist[l] is the BFS layer of left vertex l.
inline bool Bfs(const BipartiteGraph& graph, const std::vector<int>& match_left,
                const std::vector<int>& match_right, std::vector<int>* dist) {
  std::queue<int> frontier;
  for (int l = 0; l < graph.left_size(); ++l) {
    if (match_left[l] == -1) {
      (*dist)[l] = 0;
      frontier.push(l);
    } else {
      (*dist)[l] = kInf;
    }
  }
  bool found_augmenting = false;
  while (!frontier.empty()) {
    const int l = frontier.front();
    frontier.pop();
    for (int r : graph.Neighbors(l)) {
      const int next = match_right[r];
      if (next == -1) {
        found_augmenting = true;
      } else if ((*dist)[next] == kInf) {
        (*dist)[next] = (*dist)[l] + 1;
        frontier.push(next);
      }
    }
  }
  return found_augmenting;
}

// DFS along layered edges, flipping matched/unmatched status on success.
inline bool Dfs(const BipartiteGraph& graph, int l,
                std::vector<int>* match_left, std::vector<int>* match_right,
                std::vector<int>* dist) {
  for (int r : graph.Neighbors(l)) {
    const int next = (*match_right)[r];
    if (next == -1 ||
        ((*dist)[next] == (*dist)[l] + 1 &&
         Dfs(graph, next, match_left, match_right, dist))) {
      (*match_left)[l] = r;
      (*match_right)[r] = l;
      return true;
    }
  }
  (*dist)[l] = kInf;  // dead end: prune this vertex for the current phase
  return false;
}

}  // namespace hopcroft_karp_internal

/// Computes a maximum matching of `graph`.
inline MatchingResult MaximumBipartiteMatching(const BipartiteGraph& graph) {
  using hopcroft_karp_internal::Bfs;
  using hopcroft_karp_internal::Dfs;
  MatchingResult result;
  result.match_left.assign(graph.left_size(), -1);
  result.match_right.assign(graph.right_size(), -1);

  std::vector<int> dist(graph.left_size(), hopcroft_karp_internal::kInf);
  while (Bfs(graph, result.match_left, result.match_right, &dist)) {
    for (int l = 0; l < graph.left_size(); ++l) {
      if (result.match_left[l] == -1 &&
          Dfs(graph, l, &result.match_left, &result.match_right, &dist)) {
        ++result.size;
      }
    }
  }
  return result;
}

}  // namespace fkc

#endif  // FKC_TESTS_HOPCROFT_KARP_H_
