#include "fim/apriori.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/hybrid_set.h"
#include "util/sorted_ops.h"

namespace scpm {
namespace {

/// One itemset of the current level with its hybrid tidset (roots borrow
/// the graph-owned tidsets; join results own theirs, dense past the
/// density rule).
struct LevelEntry {
  AttributeSet items;
  HybridVertexSet tidset;
};

/// True iff every (k-1)-subset of `candidate` is in the frequent set of
/// the previous level.
bool AllSubsetsFrequent(const AttributeSet& candidate,
                        const std::set<AttributeSet>& previous_level) {
  AttributeSet subset;
  subset.reserve(candidate.size() - 1);
  for (std::size_t drop = 0; drop < candidate.size(); ++drop) {
    subset.clear();
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (i != drop) subset.push_back(candidate[i]);
    }
    if (!previous_level.count(subset)) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<FrequentItemset>> Apriori::MineAll(
    const AttributedGraph& graph) const {
  SCPM_RETURN_IF_ERROR(options_.Validate());
  if (set_op_stats_ != nullptr) *set_op_stats_ = SetOpStats{};
  SetOpStats* stats = set_op_stats_;
  // Universe 0 pins every set to the sorted-vector representation.
  const VertexId universe =
      options_.use_hybrid_tidsets ? graph.NumVertices() : 0;

  std::vector<FrequentItemset> out;
  // Level 1: frequent single attributes, borrowing the graph-owned
  // tidsets (only sets the density rule compresses are materialized).
  std::vector<LevelEntry> level;
  for (AttributeId a = 0; a < graph.NumAttributes(); ++a) {
    const VertexSet& tidset = graph.VerticesWith(a);
    if (tidset.size() >= options_.min_support) {
      LevelEntry entry;
      entry.items = {a};
      entry.tidset = HybridVertexSet::View(&tidset, universe);
      entry.tidset.Normalize(stats);
      level.push_back(std::move(entry));
    }
  }

  std::size_t k = 1;
  while (!level.empty() && k <= options_.max_itemset_size) {
    if (k >= options_.min_itemset_size) {
      for (const LevelEntry& entry : level) {
        out.push_back({entry.items, entry.tidset.ToVector()});
      }
    }
    if (k == options_.max_itemset_size) break;

    // Index of the current level for the subset prune.
    std::set<AttributeSet> frequent_k;
    for (const LevelEntry& s : level) frequent_k.insert(s.items);

    // Join step: combine itemsets sharing the first k-1 items (the level
    // is sorted lexicographically, so joinable sets are adjacent runs).
    std::vector<LevelEntry> next;
    for (std::size_t i = 0; i < level.size(); ++i) {
      for (std::size_t j = i + 1; j < level.size(); ++j) {
        const AttributeSet& a = level[i].items;
        const AttributeSet& b = level[j].items;
        if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
        AttributeSet candidate = a;
        candidate.push_back(b.back());
        if (!AllSubsetsFrequent(candidate, frequent_k)) continue;
        LevelEntry entry;
        entry.items = std::move(candidate);
        HybridVertexSet::Intersect(level[i].tidset, level[j].tidset,
                                   &entry.tidset, stats);
        if (entry.tidset.size() >= options_.min_support) {
          next.push_back(std::move(entry));
        }
      }
    }
    level = std::move(next);
    ++k;
  }

  std::sort(out.begin(), out.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
  return out;
}

}  // namespace scpm
