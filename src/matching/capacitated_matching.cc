#include "matching/capacitated_matching.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace fkc {
namespace {

constexpr int kInf = std::numeric_limits<int>::max();

// Hopcroft–Karp on the cap-expanded graph, read straight off `allowed`:
// head h's neighbors are the slots [first[c], first[c + 1]) of each color c
// of allowed[h], in list order, then slot order. That is the adjacency an
// explicit expanded graph would hold, visited in the same order, so every
// phase makes the same choices.
class SlotMatcher {
 public:
  SlotMatcher(const std::vector<std::vector<int>>& allowed,
              const ColorConstraint& constraint)
      : allowed_(allowed),
        first_(constraint.ell() + 1, 0),
        match_head_(allowed.size(), -1),
        dist_(allowed.size(), kInf) {
    // A color takes at most one slot per head, and only its lowest slots:
    // a matched slot stays matched, and the first free slot of a color is
    // the one a search takes. So min(cap, heads) slots per color give the
    // same matching as the full expansion, and a cap near INT_MAX costs
    // no more than one of `heads`.
    const int ell = constraint.ell();
    const int heads = static_cast<int>(allowed.size());
    for (int c = 0; c < ell; ++c) {
      first_[c + 1] = first_[c] + std::min(constraint.cap(c), heads);
    }
    match_slot_.assign(first_[ell], -1);
    for (const std::vector<int>& colors : allowed) {
      for (int c : colors) {
        FKC_CHECK_GE(c, 0);
        FKC_CHECK_LT(c, ell);
      }
    }
    frontier_.reserve(allowed.size());
  }

  // Phases until no augmenting path is left; returns the matching's size.
  int Run() {
    int size = 0;
    const int heads = static_cast<int>(allowed_.size());
    while (Bfs()) {
      for (int h = 0; h < heads; ++h) {
        if (match_head_[h] == -1 && Dfs(h)) ++size;
      }
    }
    return size;
  }

  // The slot head h is matched to, or -1.
  int slot(int h) const { return match_head_[h]; }
  // The color of slot s.
  int color(int s) const {
    int c = 0;
    while (s >= first_[c + 1]) ++c;
    return c;
  }

 private:
  // Calls f(slot) on head h's neighbors in order until f returns true;
  // returns whether it did.
  template <typename F>
  bool AnyNeighbor(int h, F&& f) const {
    for (int c : allowed_[h]) {
      for (int s = first_[c]; s < first_[c + 1]; ++s) {
        if (f(s)) return true;
      }
    }
    return false;
  }

  // Layered BFS from the free heads; true if an augmenting path exists.
  // dist_[h] is head h's layer. frontier_ is the FIFO queue.
  bool Bfs() {
    frontier_.clear();
    for (size_t h = 0; h < allowed_.size(); ++h) {
      if (match_head_[h] == -1) {
        dist_[h] = 0;
        frontier_.push_back(static_cast<int>(h));
      } else {
        dist_[h] = kInf;
      }
    }
    bool found_augmenting = false;
    for (size_t next = 0; next < frontier_.size(); ++next) {
      const int h = frontier_[next];
      AnyNeighbor(h, [&](int s) {
        const int g = match_slot_[s];
        if (g == -1) {
          found_augmenting = true;
        } else if (dist_[g] == kInf) {
          dist_[g] = dist_[h] + 1;
          frontier_.push_back(g);
        }
        return false;
      });
    }
    return found_augmenting;
  }

  // DFS along layered edges, flipping matched/unmatched status on success.
  bool Dfs(int h) {
    const bool augmented = AnyNeighbor(h, [&](int s) {
      const int g = match_slot_[s];
      if (g != -1 && !(dist_[g] == dist_[h] + 1 && Dfs(g))) return false;
      match_head_[h] = s;
      match_slot_[s] = h;
      return true;
    });
    if (!augmented) dist_[h] = kInf;  // dead end for the rest of the phase
    return augmented;
  }

  const std::vector<std::vector<int>>& allowed_;
  std::vector<int> first_;       // per color: its first slot; then the total
  std::vector<int> match_head_;  // per head: its slot, or -1
  std::vector<int> match_slot_;  // per slot: its head, or -1
  std::vector<int> dist_;        // per head: BFS layer
  std::vector<int> frontier_;
};

}  // namespace

CapacitatedMatchingResult MaximumCapacitatedMatching(
    const std::vector<std::vector<int>>& allowed,
    const ColorConstraint& constraint) {
  SlotMatcher matcher(allowed, constraint);
  CapacitatedMatchingResult result;
  result.size = matcher.Run();
  result.assigned_color.assign(allowed.size(), -1);
  for (size_t h = 0; h < allowed.size(); ++h) {
    const int s = matcher.slot(static_cast<int>(h));
    if (s != -1) result.assigned_color[h] = matcher.color(s);
  }
  return result;
}

}  // namespace fkc
