// Tests for src/matching, the capacitated color-slot matching, cross-checked
// against Hopcroft-Karp on the explicitly cap-expanded graph; and for that
// reference (hopcroft_karp.h): bipartite graph plumbing and maximum matching
// cross-checked against exhaustive search.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/random.h"
#include "hopcroft_karp.h"
#include "matching/capacitated_matching.h"

namespace fkc {
namespace {

TEST(BipartiteGraphTest, AccessorsAndEdges) {
  BipartiteGraph graph(2, 3);
  EXPECT_EQ(graph.left_size(), 2);
  EXPECT_EQ(graph.right_size(), 3);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 0);
  graph.AddEdge(1, 1);
  EXPECT_EQ(graph.edge_count(), 3);
  EXPECT_EQ(graph.Neighbors(1), (std::vector<int>{0, 1}));
}

TEST(HopcroftKarpTest, PerfectMatching) {
  BipartiteGraph graph(3, 3);
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 3; ++r) graph.AddEdge(l, r);
  }
  const MatchingResult result = MaximumBipartiteMatching(graph);
  EXPECT_EQ(result.size, 3);
  EXPECT_TRUE(result.Saturates(3));
  // Consistency: match_left and match_right agree.
  for (int l = 0; l < 3; ++l) {
    ASSERT_NE(result.match_left[l], -1);
    EXPECT_EQ(result.match_right[result.match_left[l]], l);
  }
}

TEST(HopcroftKarpTest, NeedsAugmentingPath) {
  // Greedy scan order would match L0-R0 and strand L1; the optimum flips.
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 0);
  const MatchingResult result = MaximumBipartiteMatching(graph);
  EXPECT_EQ(result.size, 2);
}

TEST(HopcroftKarpTest, EmptyGraph) {
  const MatchingResult result = MaximumBipartiteMatching(BipartiteGraph(0, 0));
  EXPECT_EQ(result.size, 0);
}

TEST(HopcroftKarpTest, NoEdges) {
  const MatchingResult result = MaximumBipartiteMatching(BipartiteGraph(3, 3));
  EXPECT_EQ(result.size, 0);
  EXPECT_EQ(result.match_left, (std::vector<int>{-1, -1, -1}));
}

TEST(HopcroftKarpTest, DuplicateEdgesHarmless) {
  BipartiteGraph graph(1, 1);
  graph.AddEdge(0, 0);
  graph.AddEdge(0, 0);
  EXPECT_EQ(MaximumBipartiteMatching(graph).size, 1);
}

// Exhaustive maximum matching by trying all left->right assignments.
int BruteForceMatching(const BipartiteGraph& graph) {
  std::vector<int> order(graph.left_size());
  for (int i = 0; i < graph.left_size(); ++i) order[i] = i;
  int best = 0;
  std::vector<bool> used(graph.right_size(), false);
  std::function<void(int, int)> go = [&](int idx, int matched) {
    best = std::max(best, matched);
    if (idx == graph.left_size()) return;
    go(idx + 1, matched);  // leave idx unmatched
    for (int r : graph.Neighbors(idx)) {
      if (!used[r]) {
        used[r] = true;
        go(idx + 1, matched + 1);
        used[r] = false;
      }
    }
  };
  go(0, 0);
  return best;
}

class HopcroftKarpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HopcroftKarpRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int left = 2 + static_cast<int>(rng.NextBounded(5));
  const int right = 2 + static_cast<int>(rng.NextBounded(5));
  BipartiteGraph graph(left, right);
  for (int l = 0; l < left; ++l) {
    for (int r = 0; r < right; ++r) {
      if (rng.NextBernoulli(0.4)) graph.AddEdge(l, r);
    }
  }
  EXPECT_EQ(MaximumBipartiteMatching(graph).size, BruteForceMatching(graph))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopcroftKarpRandomTest,
                         ::testing::Range(1, 31));

TEST(CapacitatedMatchingTest, RespectsCapacities) {
  // Three heads all want color 0 with cap 2: only two can be matched.
  const ColorConstraint constraint({2, 0});
  const std::vector<std::vector<int>> allowed = {{0}, {0}, {0}};
  const auto result = MaximumCapacitatedMatching(allowed, constraint);
  EXPECT_EQ(result.size, 2);
  int matched_to_0 = 0;
  for (int h = 0; h < 3; ++h) {
    if (result.assigned_color[h] == 0) ++matched_to_0;
  }
  EXPECT_EQ(matched_to_0, 2);
}

TEST(CapacitatedMatchingTest, SaturatesWhenPossible) {
  const ColorConstraint constraint({1, 1, 1});
  const std::vector<std::vector<int>> allowed = {{0, 1}, {1, 2}, {0, 2}};
  const auto result = MaximumCapacitatedMatching(allowed, constraint);
  EXPECT_TRUE(result.Saturates(3));
  // Assigned colors must be a permutation-with-caps.
  std::vector<int> counts(3, 0);
  for (int h = 0; h < 3; ++h) {
    ASSERT_GE(result.assigned_color[h], 0);
    ++counts[result.assigned_color[h]];
  }
  for (int c = 0; c < 3; ++c) EXPECT_LE(counts[c], 1);
}

TEST(CapacitatedMatchingTest, EmptyInstances) {
  const ColorConstraint constraint({1});
  EXPECT_EQ(MaximumCapacitatedMatching({}, constraint).size, 0);
  EXPECT_EQ(MaximumCapacitatedMatching({{}}, constraint).size, 0);
}

TEST(CapacitatedMatchingTest, AssignedColorsComeFromAllowedSets) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int heads = 1 + static_cast<int>(rng.NextBounded(5));
    const int ell = 1 + static_cast<int>(rng.NextBounded(4));
    std::vector<int> caps(ell);
    for (int& c : caps) c = static_cast<int>(rng.NextBounded(3));
    std::vector<std::vector<int>> allowed(heads);
    for (auto& row : allowed) {
      for (int c = 0; c < ell; ++c) {
        if (rng.NextBernoulli(0.5)) row.push_back(c);
      }
    }
    const ColorConstraint constraint(caps);
    const auto result = MaximumCapacitatedMatching(allowed, constraint);
    std::vector<int> usage(ell, 0);
    for (int h = 0; h < heads; ++h) {
      const int color = result.assigned_color[h];
      if (color == -1) continue;
      EXPECT_NE(std::find(allowed[h].begin(), allowed[h].end(), color),
                allowed[h].end());
      ++usage[color];
    }
    for (int c = 0; c < ell; ++c) EXPECT_LE(usage[c], caps[c]);
  }
}

// The oracle: expand color c into cap(c) slots as explicit right vertices,
// head h adjacent to every slot of each color of allowed[h], in list order,
// and run MaximumBipartiteMatching on that graph.
CapacitatedMatchingResult ExpandedGraphMatching(
    const std::vector<std::vector<int>>& allowed,
    const ColorConstraint& constraint) {
  std::vector<int> first(constraint.ell() + 1, 0);
  for (int c = 0; c < constraint.ell(); ++c) {
    first[c + 1] = first[c] + constraint.cap(c);
  }
  BipartiteGraph graph(static_cast<int>(allowed.size()), first.back());
  for (size_t h = 0; h < allowed.size(); ++h) {
    for (int c : allowed[h]) {
      for (int s = first[c]; s < first[c + 1]; ++s) {
        graph.AddEdge(static_cast<int>(h), s);
      }
    }
  }
  const MatchingResult matching = MaximumBipartiteMatching(graph);
  CapacitatedMatchingResult result;
  result.size = matching.size;
  result.assigned_color.assign(allowed.size(), -1);
  for (size_t h = 0; h < allowed.size(); ++h) {
    const int s = matching.match_left[h];
    if (s == -1) continue;
    result.assigned_color[h] = static_cast<int>(
        std::upper_bound(first.begin(), first.end(), s) - first.begin() - 1);
  }
  return result;
}

TEST(CapacitatedMatchingTest, EqualsHopcroftKarpOnTheExpandedGraph) {
  Rng rng(2718);
  int zero_cap = 0;
  int unsaturated = 0;
  int headless = 0;  // heads with no allowed color
  for (int trial = 0; trial < 3000; ++trial) {
    const int heads = static_cast<int>(rng.NextBounded(13));
    const int ell = 1 + static_cast<int>(rng.NextBounded(6));
    std::vector<int> caps(ell);
    for (int& c : caps) {
      c = static_cast<int>(rng.NextBounded(4));
      zero_cap += c == 0 ? 1 : 0;
    }
    // Allowed colors in ascending order (as the solvers list them) on even
    // trials, shuffled and sometimes repeated on odd ones.
    const double density = 0.1 + 0.8 * rng.NextDouble();
    std::vector<std::vector<int>> allowed(heads);
    for (auto& row : allowed) {
      for (int c = 0; c < ell; ++c) {
        if (rng.NextBernoulli(density)) row.push_back(c);
      }
      if (trial % 2 == 1) {
        if (!row.empty() && rng.NextBernoulli(0.2)) row.push_back(row[0]);
        for (size_t i = row.size(); i > 1; --i) {
          std::swap(row[i - 1], row[rng.NextBounded(i)]);
        }
      }
      headless += row.empty() ? 1 : 0;
    }
    const ColorConstraint constraint(caps);
    const CapacitatedMatchingResult expected =
        ExpandedGraphMatching(allowed, constraint);
    const CapacitatedMatchingResult actual =
        MaximumCapacitatedMatching(allowed, constraint);
    ASSERT_EQ(actual.size, expected.size) << "trial " << trial;
    ASSERT_EQ(actual.assigned_color, expected.assigned_color)
        << "trial " << trial;
    unsaturated += actual.Saturates(heads) ? 0 : 1;
  }
  EXPECT_GT(zero_cap, 100);
  EXPECT_GT(unsaturated, 100);
  EXPECT_GT(headless, 100);
}

}  // namespace
}  // namespace fkc
