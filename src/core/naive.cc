#include "core/naive.h"

#include <algorithm>
#include <utility>

#include "fim/eclat.h"
#include "graph/metrics.h"
#include "graph/subgraph.h"
#include "qclique/quasi_clique.h"

namespace scpm {

Result<ScpmResult> NaiveMiner::Mine(const AttributedGraph& graph) {
  SCPM_RETURN_IF_ERROR(options_.Validate());

  EclatOptions eclat_options;
  eclat_options.min_support = options_.min_support;
  eclat_options.max_itemset_size = options_.max_attribute_set_size;
  Eclat eclat(eclat_options);
  Result<std::vector<FrequentItemset>> frequent = eclat.MineAll(graph);
  if (!frequent.ok()) return frequent.status();

  // Full quasi-clique enumeration: coverage/top-k shortcuts disabled.
  QuasiCliqueMinerOptions miner_options;
  miner_options.params = options_.quasi_clique;
  QuasiCliqueMiner miner(miner_options);

  ScpmResult result;
  for (const FrequentItemset& itemset : *frequent) {
    ++result.counters.attribute_sets_evaluated;
    Result<InducedSubgraph> sub =
        InducedSubgraph::Create(graph.graph(), itemset.tidset);
    if (!sub.ok()) return sub.status();
    std::vector<bool> covered(sub->NumVertices(), false);
    Result<std::vector<VertexSet>> maximal = miner.MineMaximal(sub->graph());
    if (!maximal.ok()) return maximal.status();
    for (const VertexSet& q : *maximal) {
      for (VertexId v : q) covered[v] = true;
    }
    result.counters.coverage_candidates +=
        miner.stats().candidates_processed;
    std::size_t covered_count = 0;
    for (bool c : covered) covered_count += c ? 1 : 0;

    const std::size_t support = itemset.support();
    const double eps = static_cast<double>(covered_count) /
                       static_cast<double>(support);
    const double expected =
        null_model_ != nullptr ? null_model_->Expectation(support) : 1.0;
    const double delta =
        expected > 0.0 ? eps / expected : (eps > 0.0 ? 1e300 : 0.0);

    if (eps < options_.min_epsilon || delta < options_.min_delta) continue;
    if (itemset.items.size() < options_.min_report_size) continue;

    ++result.counters.attribute_sets_reported;
    AttributeSetStats stats;
    stats.attributes = itemset.items;
    stats.support = support;
    stats.covered = covered_count;
    stats.epsilon = eps;
    stats.expected_epsilon = expected;
    stats.delta = delta;
    result.attribute_sets.push_back(std::move(stats));

    if (options_.collect_patterns && covered_count > 0) {
      // Select the top-k patterns after the fact from the complete set.
      std::vector<StructuralCorrelationPattern> local;
      local.reserve(maximal->size());
      for (const VertexSet& q : *maximal) {
        StructuralCorrelationPattern pattern;
        pattern.attributes = itemset.items;
        pattern.min_degree_ratio = MinDegreeRatio(sub->graph(), q);
        pattern.edge_density = SubsetDensity(sub->graph(), q);
        pattern.vertices = sub->ToGlobal(q);
        local.push_back(std::move(pattern));
      }
      SortPatterns(&local);
      if (local.size() > options_.top_k) local.resize(options_.top_k);
      for (auto& p : local) result.patterns.push_back(std::move(p));
    }
  }
  SortPatterns(&result.patterns);
  return result;
}

}  // namespace scpm
