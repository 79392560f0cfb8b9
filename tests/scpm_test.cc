// Tests for the core SCPM algorithm: the paper's running example verified
// exactly (Table 1), SCPM == Naive equivalence on random attributed
// graphs, Theorem 3/4/5 pruning soundness, top-k semantics, reporting.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/export.h"
#include "core/naive.h"
#include "core/pattern.h"
#include "core/report.h"
#include "core/scpm.h"
#include "core/statistics.h"
#include "datasets/paper_example.h"
#include "graph/generators.h"
#include "nullmodel/expectation.h"
#include "util/random.h"

namespace scpm {
namespace {

/// Paper parameters for Table 1: sigma_min=3, gamma=0.6, min_size=4,
/// eps_min=0.5.
ScpmOptions Table1Options() {
  ScpmOptions o;
  o.quasi_clique.gamma = 0.6;
  o.quasi_clique.min_size = 4;
  o.min_support = 3;
  o.min_epsilon = 0.5;
  o.top_k = 10;
  return o;
}

/// Maps internal vertex ids to the paper's 1-based labels.
VertexSet ToPaperIds(const VertexSet& vs) {
  VertexSet out;
  for (VertexId v : vs) out.push_back(PaperExampleLabel(v));
  return out;
}

TEST(PaperExampleTest, StructuralCorrelationValues) {
  const AttributedGraph g = PaperExampleGraph();
  ASSERT_EQ(g.NumVertices(), 11u);
  ASSERT_EQ(g.graph().NumEdges(), 19u);

  ScpmOptions options = Table1Options();
  options.min_epsilon = 0.0;  // Evaluate everything.
  ScpmMiner miner(options);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok()) << result.status();

  std::map<AttributeSet, double> eps;
  std::map<AttributeSet, std::size_t> support;
  for (const AttributeSetStats& s : result->attribute_sets) {
    eps[s.attributes] = s.epsilon;
    support[s.attributes] = s.support;
  }
  const AttributeId a = g.FindAttribute("A");
  const AttributeId b = g.FindAttribute("B");
  const AttributeId c = g.FindAttribute("C");
  ASSERT_NE(a, kInvalidAttribute);

  // Paper §1: eps(A) = 0.82 (9/11), eps(C) = 0, eps({A,B}) = 1.
  EXPECT_EQ(support[{a}], 11u);
  EXPECT_NEAR(eps[{a}], 9.0 / 11.0, 1e-12);
  EXPECT_EQ(support[{c}], 3u);
  EXPECT_DOUBLE_EQ(eps[{c}], 0.0);
  AttributeSet ab{std::min(a, b), std::max(a, b)};
  EXPECT_EQ(support[ab], 6u);
  EXPECT_DOUBLE_EQ(eps[ab], 1.0);
  EXPECT_EQ(support[{b}], 6u);
  EXPECT_DOUBLE_EQ(eps[{b}], 1.0);
}

TEST(PaperExampleTest, Table1PatternsExactly) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmMiner miner(Table1Options());
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok()) << result.status();

  // Expected Table 1 rows as (attribute names, paper vertex ids, gamma).
  struct Row {
    std::string attrs;
    VertexSet vertices;
    double gamma;
  };
  const std::vector<Row> want = {
      {"A", {6, 7, 8, 9, 10, 11}, 0.60},
      {"A", {3, 4, 5, 6}, 1.0},
      {"A", {3, 4, 6, 7}, 2.0 / 3.0},
      {"A", {3, 5, 6, 7}, 2.0 / 3.0},
      {"A", {3, 6, 7, 8}, 2.0 / 3.0},
      {"B", {6, 7, 8, 9, 10, 11}, 0.60},
      {"AB", {6, 7, 8, 9, 10, 11}, 0.60},
  };

  std::set<std::pair<std::string, VertexSet>> got;
  std::map<std::pair<std::string, VertexSet>, double> got_gamma;
  for (const StructuralCorrelationPattern& p : result->patterns) {
    std::string attrs;
    for (AttributeId id : p.attributes) attrs += g.AttributeName(id);
    std::sort(attrs.begin(), attrs.end());
    auto key = std::make_pair(attrs, ToPaperIds(p.vertices));
    got.insert(key);
    got_gamma[key] = p.min_degree_ratio;
  }
  EXPECT_EQ(got.size(), want.size());
  for (const Row& row : want) {
    auto key = std::make_pair(row.attrs, row.vertices);
    EXPECT_TRUE(got.count(key)) << "missing pattern " << row.attrs;
    if (got.count(key)) {
      EXPECT_NEAR(got_gamma[key], row.gamma, 1e-9) << row.attrs;
    }
  }
}

TEST(PaperExampleTest, NaiveProducesSameTable) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmMiner scpm(Table1Options());
  NaiveMiner naive(Table1Options());
  Result<ScpmResult> a = scpm.Mine(g);
  Result<ScpmResult> b = naive.Mine(g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->patterns.size(), b->patterns.size());
  for (std::size_t i = 0; i < a->patterns.size(); ++i) {
    EXPECT_EQ(a->patterns[i].attributes, b->patterns[i].attributes);
    EXPECT_EQ(a->patterns[i].vertices, b->patterns[i].vertices);
  }
}

// ------------------------------------------------- randomized equivalence

/// Random attributed graph: ER topology + random attribute incidence.
AttributedGraph RandomAttributed(int seed, VertexId n = 24,
                                 int num_attrs = 5, double edge_p = 0.3,
                                 double attr_p = 0.4) {
  Rng rng(seed);
  AttributedGraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.NextBool(edge_p)) builder.AddEdge(u, v);
    }
  }
  for (int a = 0; a < num_attrs; ++a) {
    builder.InternAttribute(std::string("a").append(std::to_string(a)));
  }
  for (VertexId v = 0; v < n; ++v) {
    for (AttributeId a = 0; a < static_cast<AttributeId>(num_attrs); ++a) {
      if (rng.NextBool(attr_p)) {
        EXPECT_TRUE(builder.AddVertexAttribute(v, a).ok());
      }
    }
  }
  Result<AttributedGraph> g = builder.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

void ExpectSameStats(const ScpmResult& a, const ScpmResult& b) {
  ASSERT_EQ(a.attribute_sets.size(), b.attribute_sets.size());
  std::map<AttributeSet, const AttributeSetStats*> index;
  for (const auto& s : b.attribute_sets) index[s.attributes] = &s;
  for (const auto& s : a.attribute_sets) {
    auto it = index.find(s.attributes);
    ASSERT_NE(it, index.end());
    EXPECT_EQ(s.support, it->second->support);
    EXPECT_EQ(s.covered, it->second->covered);
    EXPECT_DOUBLE_EQ(s.epsilon, it->second->epsilon);
  }
}

void ExpectSamePatternKeys(const ScpmResult& a, const ScpmResult& b) {
  // Per attribute set, the multiset of (size, ratio) keys must agree
  // (tie-breaking between equal-key quasi-cliques may differ).
  using Key = std::pair<std::size_t, double>;
  std::map<AttributeSet, std::multiset<Key>> ka, kb;
  for (const auto& p : a.patterns) {
    ka[p.attributes].insert({p.size(), p.min_degree_ratio});
  }
  for (const auto& p : b.patterns) {
    kb[p.attributes].insert({p.size(), p.min_degree_ratio});
  }
  EXPECT_EQ(ka, kb);
}

struct EquivParam {
  int seed;
  double gamma;
  std::uint32_t min_size;
  std::size_t min_support;
  double min_eps;
};

class ScpmNaiveEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(ScpmNaiveEquivalence, SameOutput) {
  const EquivParam param = GetParam();
  const AttributedGraph g = RandomAttributed(param.seed);
  ScpmOptions options;
  options.quasi_clique.gamma = param.gamma;
  options.quasi_clique.min_size = param.min_size;
  options.min_support = param.min_support;
  options.min_epsilon = param.min_eps;
  options.top_k = 4;

  ScpmMiner scpm(options);
  NaiveMiner naive(options);
  Result<ScpmResult> a = scpm.Mine(g);
  Result<ScpmResult> b = naive.Mine(g);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectSameStats(*a, *b);
  ExpectSamePatternKeys(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(
    Random, ScpmNaiveEquivalence,
    ::testing::Values(EquivParam{0, 0.5, 3, 3, 0.0},
                      EquivParam{1, 0.5, 3, 5, 0.2},
                      EquivParam{2, 0.6, 4, 4, 0.0},
                      EquivParam{3, 0.6, 4, 6, 0.3},
                      EquivParam{4, 0.8, 3, 3, 0.5},
                      EquivParam{5, 1.0, 3, 4, 0.0},
                      EquivParam{6, 0.7, 4, 5, 0.1},
                      EquivParam{7, 0.5, 5, 6, 0.0},
                      EquivParam{8, 0.9, 3, 3, 0.2},
                      EquivParam{9, 0.6, 3, 8, 0.4}));

class ScpmPruningSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScpmPruningSweep, TheoremPruningPreservesOutput) {
  const AttributedGraph g = RandomAttributed(GetParam());
  ScpmOptions base;
  base.quasi_clique.gamma = 0.6;
  base.quasi_clique.min_size = 3;
  base.min_support = 4;
  base.min_epsilon = 0.25;
  base.top_k = 3;

  Graph topology = g.graph();
  MaxExpectationModel model(topology, base.quasi_clique);
  base.min_delta = 0.5;

  ScpmOptions no_pruning = base;
  no_pruning.use_vertex_pruning = false;
  no_pruning.use_epsilon_pruning = false;
  no_pruning.use_delta_pruning = false;

  ScpmMiner pruned(base, &model);
  ScpmMiner unpruned(no_pruning, &model);
  Result<ScpmResult> a = pruned.Mine(g);
  Result<ScpmResult> b = unpruned.Mine(g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameStats(*a, *b);
  ExpectSamePatternKeys(*a, *b);
  // Pruning must not *increase* the number of evaluated attribute sets.
  EXPECT_LE(a->counters.attribute_sets_evaluated,
            b->counters.attribute_sets_evaluated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScpmPruningSweep, ::testing::Range(0, 10));

// ----------------------------------------------------------- other knobs

TEST(ScpmOptionsTest, Validation) {
  ScpmOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.min_support = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ScpmOptions{};
  o.min_epsilon = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = ScpmOptions{};
  o.min_delta = -1;
  EXPECT_FALSE(o.Validate().ok());
  o = ScpmOptions{};
  o.top_k = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ScpmOptions{};
  o.quasi_clique.gamma = 2.0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(ScpmTest, MinReportSizeHidesSingletons) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  options.min_report_size = 2;
  ScpmMiner miner(options);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  for (const auto& s : result->attribute_sets) {
    EXPECT_GE(s.attributes.size(), 2u);
  }
  // {A,B} must still be found even though {A}, {B} are not reported.
  bool found_ab = false;
  for (const auto& s : result->attribute_sets) {
    found_ab |= s.attributes.size() == 2;
  }
  EXPECT_TRUE(found_ab);
}

TEST(ScpmTest, MaxAttributeSetSizeStopsEnumeration) {
  const AttributedGraph g = RandomAttributed(3);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.max_attribute_set_size = 1;
  ScpmMiner miner(options);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  for (const auto& s : result->attribute_sets) {
    EXPECT_EQ(s.attributes.size(), 1u);
  }
}

TEST(ScpmTest, TopKLimitsPatternsPerAttributeSet) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  options.top_k = 2;
  ScpmMiner miner(options);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  std::map<AttributeSet, int> counts;
  for (const auto& p : result->patterns) ++counts[p.attributes];
  for (const auto& [attrs, count] : counts) {
    EXPECT_LE(count, 2) << "attribute set size " << attrs.size();
  }
  // For {A} the top-2 must be the size-6 prism and the 4-clique.
  const AttributeId a = g.FindAttribute("A");
  std::vector<std::size_t> sizes;
  for (const auto& p : result->patterns) {
    if (p.attributes == AttributeSet{a}) sizes.push_back(p.size());
  }
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 6u);
  EXPECT_EQ(sizes[1], 4u);
}

TEST(ScpmTest, DeltaThresholdFilters) {
  const AttributedGraph g = PaperExampleGraph();
  Graph topology = g.graph();
  MaxExpectationModel model(topology, {.gamma = 0.6, .min_size = 4});
  ScpmOptions options = Table1Options();
  options.min_delta = 1e9;  // Impossible threshold.
  ScpmMiner miner(options, &model);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->attribute_sets.empty());
  EXPECT_TRUE(result->patterns.empty());
}

TEST(ScpmTest, DeltaIsEpsilonOverExpected) {
  const AttributedGraph g = PaperExampleGraph();
  Graph topology = g.graph();
  MaxExpectationModel model(topology, {.gamma = 0.6, .min_size = 4});
  ScpmOptions options = Table1Options();
  ScpmMiner miner(options, &model);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  for (const auto& s : result->attribute_sets) {
    ASSERT_GT(s.expected_epsilon, 0.0);
    EXPECT_NEAR(s.delta, s.epsilon / s.expected_epsilon, 1e-9);
    EXPECT_NEAR(s.expected_epsilon, model.Expectation(s.support), 1e-12);
  }
}

TEST(ScpmTest, MinSupportAboveVertexCountYieldsEmptyResult) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  options.min_support = 100;  // > 11 vertices
  ScpmMiner miner(options);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->attribute_sets.empty());
  EXPECT_EQ(result->counters.attribute_sets_evaluated, 0u);
}

TEST(ScpmTest, CollectPatternsOffYieldsStatsOnly) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  options.collect_patterns = false;
  ScpmMiner miner(options);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->attribute_sets.empty());
  EXPECT_TRUE(result->patterns.empty());
}

TEST(ScpmTest, EmptyGraphYieldsEmptyResult) {
  AttributedGraphBuilder builder(0);
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok());
  ScpmMiner miner(ScpmOptions{});
  Result<ScpmResult> result = miner.Mine(*g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->attribute_sets.empty());
}

// ---------------------------------------------------------- parallelism

class ParallelScpmSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelScpmSweep, ParallelEqualsSequential) {
  const AttributedGraph g = RandomAttributed(GetParam());
  ScpmOptions options;
  options.quasi_clique.gamma = 0.6;
  options.quasi_clique.min_size = 3;
  options.min_support = 4;
  options.min_epsilon = 0.1;
  options.top_k = 3;

  Graph topology = g.graph();
  MaxExpectationModel model(topology, options.quasi_clique);

  ScpmOptions parallel = options;
  parallel.num_threads = 4;
  ScpmMiner sequential_miner(options, &model);
  ScpmMiner parallel_miner(parallel, &model);
  Result<ScpmResult> a = sequential_miner.Mine(g);
  Result<ScpmResult> b = parallel_miner.Mine(g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Deterministic merge: identical order, stats, and pattern keys.
  ASSERT_EQ(a->attribute_sets.size(), b->attribute_sets.size());
  for (std::size_t i = 0; i < a->attribute_sets.size(); ++i) {
    EXPECT_EQ(a->attribute_sets[i].attributes,
              b->attribute_sets[i].attributes);
    EXPECT_DOUBLE_EQ(a->attribute_sets[i].epsilon,
                     b->attribute_sets[i].epsilon);
    EXPECT_DOUBLE_EQ(a->attribute_sets[i].delta, b->attribute_sets[i].delta);
  }
  ExpectSamePatternKeys(*a, *b);
  EXPECT_EQ(a->counters.attribute_sets_evaluated,
            b->counters.attribute_sets_evaluated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelScpmSweep, ::testing::Range(0, 8));

/// Field-by-field equality of complete mining outputs, including the
/// global pattern order, the lattice counters, and the set-kernel
/// counters: the parallel engine promises all of them byte-identical for
/// any thread count. The quasi-clique work counters are not part of that
/// promise (see ExpectSameWork).
void ExpectIdenticalResults(const ScpmResult& a, const ScpmResult& b) {
  ASSERT_EQ(a.attribute_sets.size(), b.attribute_sets.size());
  for (std::size_t i = 0; i < a.attribute_sets.size(); ++i) {
    const AttributeSetStats& x = a.attribute_sets[i];
    const AttributeSetStats& y = b.attribute_sets[i];
    EXPECT_EQ(x.attributes, y.attributes) << "row " << i;
    EXPECT_EQ(x.support, y.support);
    EXPECT_EQ(x.covered, y.covered);
    EXPECT_DOUBLE_EQ(x.epsilon, y.epsilon);
    EXPECT_DOUBLE_EQ(x.expected_epsilon, y.expected_epsilon);
    EXPECT_DOUBLE_EQ(x.delta, y.delta);
  }
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    const StructuralCorrelationPattern& x = a.patterns[i];
    const StructuralCorrelationPattern& y = b.patterns[i];
    EXPECT_EQ(x.attributes, y.attributes) << "pattern " << i;
    EXPECT_EQ(x.vertices, y.vertices) << "pattern " << i;
    EXPECT_DOUBLE_EQ(x.min_degree_ratio, y.min_degree_ratio);
    EXPECT_DOUBLE_EQ(x.edge_density, y.edge_density);
  }
  EXPECT_EQ(a.counters.attribute_sets_evaluated,
            b.counters.attribute_sets_evaluated);
  EXPECT_EQ(a.counters.attribute_sets_reported,
            b.counters.attribute_sets_reported);
  EXPECT_EQ(a.counters.attribute_sets_extended,
            b.counters.attribute_sets_extended);
  EXPECT_EQ(a.counters.intra_search_evaluations,
            b.counters.intra_search_evaluations);
  EXPECT_EQ(a.counters.bitmap_intersections, b.counters.bitmap_intersections);
  EXPECT_EQ(a.counters.galloping_intersections,
            b.counters.galloping_intersections);
  EXPECT_EQ(a.counters.dense_conversions, b.counters.dense_conversions);
}

/// The quasi-clique work counters: exact per run, but with a pool they
/// depend on how intra-search tasks were scheduled, so they are compared
/// only between runs without one (num_threads 1).
void ExpectSameWork(const ScpmResult& a, const ScpmResult& b) {
  EXPECT_EQ(a.counters.coverage_candidates, b.counters.coverage_candidates);
  EXPECT_EQ(a.counters.intra_branch_tasks, b.counters.intra_branch_tasks);
}

void ExpectDeterministicAcrossThreadCounts(const AttributedGraph& g,
                                           ScpmOptions options,
                                           ExpectationModel* model) {
  options.num_threads = 1;
  ScpmMiner sequential(options, model);
  Result<ScpmResult> baseline = sequential.Mine(g);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  for (std::size_t threads : {2u, 8u}) {
    ScpmOptions parallel = options;
    parallel.num_threads = threads;
    ScpmMiner miner(parallel, model);
    Result<ScpmResult> result = miner.Mine(g);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectIdenticalResults(*baseline, *result);
  }
}

TEST(ParallelScpmTest, ByteIdenticalOnPaperExample) {
  const AttributedGraph g = PaperExampleGraph();
  ExpectDeterministicAcrossThreadCounts(g, Table1Options(), nullptr);
}

TEST(ParallelScpmTest, ByteIdenticalWithSimulationNullModel) {
  // The Monte-Carlo model estimates per-support values on first touch;
  // parallel runs touch supports in timing order, so the estimates (and
  // thus delta filtering) must be order-independent.
  const AttributedGraph g = RandomAttributed(11, /*n=*/28, /*num_attrs=*/5);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.6;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.1;
  options.min_delta = 0.5;
  options.top_k = 3;
  Graph topology = g.graph();
  SimExpectationModel model(topology, options.quasi_clique,
                            /*num_samples=*/6, /*seed=*/5);
  ExpectDeterministicAcrossThreadCounts(g, options, &model);
}

class ParallelDeterminismSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminismSweep, ByteIdenticalOnRandomGraphs) {
  const AttributedGraph g =
      RandomAttributed(GetParam(), /*n=*/32, /*num_attrs=*/6);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.1;
  options.top_k = 3;
  Graph topology = g.graph();
  MaxExpectationModel model(topology, options.quasi_clique);
  options.min_delta = 0.25;
  ExpectDeterministicAcrossThreadCounts(g, options, &model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismSweep,
                         ::testing::Range(0, 4));

/// Regression for the batched + intra-parallel path, with the intra
/// threshold forced low enough to trigger on these graphs. Output and
/// the lattice counters must be byte-identical across num_threads in
/// {1, 2, 8}. At one thread there is no pool, so every intra-parallel
/// search is the sequential traversal in one branch task: its work must
/// equal a run with the intra path off.
TEST(ParallelScpmTest, IntraSearchCountersPinnedAcrossThreadCounts) {
  const AttributedGraph g =
      RandomAttributed(21, /*n=*/40, /*num_attrs=*/4, /*edge_p=*/0.3,
                       /*attr_p=*/0.6);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.05;
  options.top_k = 3;
  options.intra_search_min_universe = 8;  // force the intra path

  options.num_threads = 1;
  ScpmMiner baseline_miner(options);
  Result<ScpmResult> baseline = baseline_miner.Mine(g);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  // The point of the test: the intra-parallel searches actually ran.
  ASSERT_GT(baseline->counters.intra_search_evaluations, 0u);
  ASSERT_GT(baseline->counters.intra_branch_tasks, 0u);
  EXPECT_LE(baseline->counters.intra_branch_tasks,
            baseline->counters.intra_search_evaluations);

  ScpmOptions sequential = options;
  sequential.intra_search_min_universe = 0;
  ScpmMiner sequential_miner(sequential);
  Result<ScpmResult> plain = sequential_miner.Mine(g);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->counters.intra_branch_tasks, 0u);
  EXPECT_EQ(baseline->counters.coverage_candidates,
            plain->counters.coverage_candidates);
  for (std::size_t threads : {2u, 8u}) {
    ScpmOptions parallel = options;
    parallel.num_threads = threads;
    ScpmMiner miner(parallel);
    Result<ScpmResult> result = miner.Mine(g);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectIdenticalResults(*baseline, *result);
  }
}

/// The hybrid sparse/dense representation must never change what is
/// mined: with the flag off (pure sorted-vector kernels) and on (dense
/// tidsets as bitmaps), output and every pre-existing counter are
/// byte-identical, for every thread count. The set-kernel counters
/// themselves are pinned across thread counts via
/// ExpectDeterministicAcrossThreadCounts.
TEST(ParallelScpmTest, HybridSetsOnOffByteIdentical) {
  // Large enough that the 5% density rule genuinely promotes tidsets and
  // covered sets to bitmaps (universe 120, tidsets ~70 vertices).
  const AttributedGraph g = RandomAttributed(31, /*n=*/120, /*num_attrs=*/4,
                                             /*edge_p=*/0.08, /*attr_p=*/0.6);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.6;
  options.quasi_clique.min_size = 3;
  options.min_support = 4;
  options.min_epsilon = 0.05;
  options.top_k = 3;

  options.use_hybrid_sets = false;
  ScpmMiner plain_miner(options);
  Result<ScpmResult> plain = plain_miner.Mine(g);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->counters.bitmap_intersections, 0u);
  EXPECT_EQ(plain->counters.galloping_intersections, 0u);
  EXPECT_EQ(plain->counters.dense_conversions, 0u);

  options.use_hybrid_sets = true;
  ScpmMiner hybrid_miner(options);
  Result<ScpmResult> hybrid = hybrid_miner.Mine(g);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status();
  // The point of the test: the dense representation actually engaged.
  EXPECT_GT(hybrid->counters.dense_conversions, 0u);
  EXPECT_GT(hybrid->counters.bitmap_intersections, 0u);

  // Identical output modulo the set-kernel counters (zero when off).
  ScpmResult normalized = std::move(hybrid).value();
  normalized.counters.bitmap_intersections = 0;
  normalized.counters.galloping_intersections = 0;
  normalized.counters.dense_conversions = 0;
  ExpectIdenticalResults(*plain, normalized);
  ExpectSameWork(*plain, normalized);

  // And both configurations are thread-count independent, including the
  // set-kernel counters of the hybrid run.
  for (bool hybrid_on : {false, true}) {
    ScpmOptions sweep = options;
    sweep.use_hybrid_sets = hybrid_on;
    ExpectDeterministicAcrossThreadCounts(g, sweep, nullptr);
  }
}

TEST(ScpmOptionsTest, RejectsAbsurdSpawnDepth) {
  ScpmOptions o;
  o.intra_search_spawn_depth = 17;
  EXPECT_FALSE(o.Validate().ok());
  o.intra_search_spawn_depth = 16;
  EXPECT_TRUE(o.Validate().ok());
}

TEST(ScpmOptionsTest, RejectsZeroThreads) {
  ScpmOptions o;
  o.num_threads = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(ScpmOptionsTest, RejectsAbsurdThreadCounts) {
  ScpmOptions o;
  // A negative CLI value wrapped through size_t must be a clean error,
  // not an allocation abort.
  o.num_threads = static_cast<std::size_t>(-1);
  EXPECT_FALSE(o.Validate().ok());
  o.num_threads = 1024;
  EXPECT_TRUE(o.Validate().ok());
  o.num_threads = 1025;
  EXPECT_FALSE(o.Validate().ok());
}

// ------------------------------------------------------- SCORP baseline
//
// SCORP (the paper's reference [16]) reports the complete maximal pattern
// set of every qualifying attribute set instead of SCPM's top-k; here that
// is ScpmMiner with pattern_scope = kAllMaximal and no null model.

ScpmOptions AllMaximal(ScpmOptions options) {
  options.pattern_scope = PatternScope::kAllMaximal;
  return options;
}

TEST(ScorpTest, ReportsCompletePatternSets) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmMiner scorp(AllMaximal(Table1Options()));
  Result<ScpmResult> result = scorp.Mine(g);
  ASSERT_TRUE(result.ok()) << result.status();
  // SCORP with a top-k large enough equals SCPM here: 7 patterns.
  EXPECT_EQ(result->patterns.size(), 7u);
}

class ScorpSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScorpSweep, SupersetOfScpmTopK) {
  const AttributedGraph g = RandomAttributed(GetParam());
  ScpmOptions options;
  options.quasi_clique.gamma = 0.6;
  options.quasi_clique.min_size = 3;
  options.min_support = 4;
  options.min_epsilon = 0.2;
  options.top_k = 2;

  ScpmMiner scpm(options);
  ScpmMiner scorp(AllMaximal(options));
  Result<ScpmResult> top = scpm.Mine(g);
  Result<ScpmResult> all = scorp.Mine(g);
  ASSERT_TRUE(top.ok());
  ASSERT_TRUE(all.ok());
  // Same attribute sets; SCORP reports at least as many patterns, and the
  // per-set top-k keys must be a prefix of SCORP's ranked pattern keys.
  ASSERT_EQ(top->attribute_sets.size(), all->attribute_sets.size());
  EXPECT_GE(all->patterns.size(), top->patterns.size());
  std::map<AttributeSet, std::vector<std::pair<std::size_t, double>>>
      top_keys, all_keys;
  for (const auto& p : top->patterns) {
    top_keys[p.attributes].push_back({p.size(), p.min_degree_ratio});
  }
  for (const auto& p : all->patterns) {
    all_keys[p.attributes].push_back({p.size(), p.min_degree_ratio});
  }
  for (auto& [attrs, keys] : top_keys) {
    auto it = all_keys.find(attrs);
    ASSERT_NE(it, all_keys.end());
    auto desc = [](const std::pair<std::size_t, double>& a,
                   const std::pair<std::size_t, double>& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second > b.second;
    };
    std::sort(keys.begin(), keys.end(), desc);
    std::sort(it->second.begin(), it->second.end(), desc);
    ASSERT_LE(keys.size(), it->second.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i], it->second[i]) << "attr set size " << attrs.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScorpSweep, ::testing::Range(0, 6));

// -------------------------------------------------------------- exports

TEST(ExportTest, AttributeSetsCsvShape) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmMiner miner(Table1Options());
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  ASSERT_TRUE(WriteAttributeSetsCsv(g, *result, os).ok());
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "attributes,support,covered,epsilon,expected_epsilon,delta");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5);
  }
  EXPECT_EQ(rows, result->attribute_sets.size());
}

TEST(ExportTest, PatternsCsvShape) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmMiner miner(Table1Options());
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  ASSERT_TRUE(WritePatternsCsv(g, *result, os).ok());
  std::istringstream in(os.str());
  std::string line;
  std::size_t rows = 0;
  std::getline(in, line);  // header
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, result->patterns.size());
}

TEST(ExportTest, CsvEscape) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(ExportTest, FileRoundTrip) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmMiner miner(Table1Options());
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  const auto path = std::filesystem::temp_directory_path() /
                    ("scpm_export_" + std::to_string(::getpid()) + ".csv");
  ASSERT_TRUE(WritePatternsCsv(g, *result, path.string()).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::filesystem::remove(path);
}

TEST(ExportTest, MissingDirectoryIsIoError) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmResult empty;
  EXPECT_EQ(WritePatternsCsv(g, empty, "/nonexistent/dir/x.csv").code(),
            StatusCode::kIoError);
}

// ----------------------------------------------------- sim-exp null model

TEST(ScpmTest, MinesWithSimulationNullModel) {
  const AttributedGraph g = PaperExampleGraph();
  Graph topology = g.graph();
  SimExpectationModel model(topology, {.gamma = 0.6, .min_size = 4},
                            /*num_samples=*/10, /*seed=*/3);
  ScpmOptions options = Table1Options();
  ScpmMiner miner(options, &model);
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  for (const auto& s : result->attribute_sets) {
    EXPECT_GE(s.expected_epsilon, 0.0);
    EXPECT_LE(s.expected_epsilon, 1.0);
  }
}

// -------------------------------------------------- ranking / statistics

TEST(PatternRankingTest, RankAttributeSetsOrders) {
  std::vector<AttributeSetStats> stats(3);
  stats[0].attributes = {0};
  stats[0].support = 10;
  stats[0].epsilon = 0.2;
  stats[0].delta = 5;
  stats[1].attributes = {1};
  stats[1].support = 30;
  stats[1].epsilon = 0.1;
  stats[1].delta = 50;
  stats[2].attributes = {2};
  stats[2].support = 20;
  stats[2].epsilon = 0.9;
  stats[2].delta = 1;

  auto by_support = RankAttributeSets(stats, AttributeSetOrder::kBySupport);
  EXPECT_EQ(by_support[0].support, 30u);
  auto by_eps = RankAttributeSets(stats, AttributeSetOrder::kByEpsilon);
  EXPECT_DOUBLE_EQ(by_eps[0].epsilon, 0.9);
  auto by_delta = RankAttributeSets(stats, AttributeSetOrder::kByDelta);
  EXPECT_DOUBLE_EQ(by_delta[0].delta, 50.0);
}

TEST(StatisticsTest, SummaryAverages) {
  std::vector<AttributeSetStats> stats(10);
  for (int i = 0; i < 10; ++i) {
    stats[i].epsilon = 0.1 * (i + 1);  // 0.1 .. 1.0
    stats[i].delta = 10.0 * (i + 1);   // 10 .. 100
  }
  const OutputSummary summary = SummarizeOutput(stats);
  EXPECT_EQ(summary.num_attribute_sets, 10u);
  EXPECT_NEAR(summary.avg_epsilon_global, 0.55, 1e-12);
  EXPECT_NEAR(summary.avg_epsilon_top10, 1.0, 1e-12);  // top 1 of 10
  EXPECT_NEAR(summary.avg_delta_global, 55.0, 1e-12);
  EXPECT_NEAR(summary.avg_delta_top10, 100.0, 1e-12);
}

TEST(StatisticsTest, EmptySummary) {
  const OutputSummary summary = SummarizeOutput({});
  EXPECT_EQ(summary.num_attribute_sets, 0u);
  EXPECT_DOUBLE_EQ(summary.avg_epsilon_global, 0.0);
}

TEST(ReportTest, PrintsTables) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmMiner miner(Table1Options());
  Result<ScpmResult> result = miner.Mine(g);
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  PrintTopAttributeSets(os, g, result->attribute_sets, 5);
  EXPECT_NE(os.str().find("top by support"), std::string::npos);
  EXPECT_NE(os.str().find("{A}"), std::string::npos);
  std::ostringstream table;
  PrintPatternTable(table, g, *result);
  EXPECT_NE(table.str().find("gamma"), std::string::npos);
}

}  // namespace
}  // namespace scpm
