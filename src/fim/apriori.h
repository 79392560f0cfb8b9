// Apriori frequent itemset mining (Agrawal et al., SIGMOD'93 — the
// paper's reference [1]).
//
// Level-wise candidate generation with the subset-infrequency prune;
// provided as an independent reference implementation for Eclat (the test
// suite checks they produce identical outputs) and for workloads where
// breadth-first enumeration is preferable. Candidate tidset intersections
// go through the same hybrid (sparse / dense-bitmap) kernels as Eclat's.

#ifndef SCPM_FIM_APRIORI_H_
#define SCPM_FIM_APRIORI_H_

#include <vector>

#include "fim/eclat.h"
#include "graph/attributed_graph.h"
#include "util/hybrid_set.h"
#include "util/result.h"

namespace scpm {

/// Apriori accepts exactly Eclat's thresholds — including
/// use_hybrid_tidsets, which routes the level-join tidset intersections
/// through the HybridVertexSet kernels (off pins the pure sorted-vector
/// merges, bit for bit).
using AprioriOptions = EclatOptions;

/// Level-wise Apriori; accepts the same options as Eclat and produces the
/// same itemsets (in level order rather than DFS order).
class Apriori {
 public:
  explicit Apriori(AprioriOptions options) : options_(options) {}

  /// Materializes all frequent itemsets, ordered by (size, lexicographic).
  Result<std::vector<FrequentItemset>> MineAll(
      const AttributedGraph& graph) const;

  /// Optional sink for the set-kernel counters of each MineAll call
  /// (reset at every call); borrowed, may be null.
  void set_stats(SetOpStats* stats) { set_op_stats_ = stats; }

 private:
  AprioriOptions options_;
  SetOpStats* set_op_stats_ = nullptr;
};

}  // namespace scpm

#endif  // SCPM_FIM_APRIORI_H_
