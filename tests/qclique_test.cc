// Unit + property tests for src/qclique: definitions, the miner's three
// modes against brute force, BFS/DFS equivalence, pruning ablations.

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "qclique/bron_kerbosch.h"
#include "qclique/brute_force.h"
#include "qclique/candidate.h"
#include "qclique/miner.h"
#include "qclique/quasi_clique.h"
#include "util/random.h"
#include "util/sorted_ops.h"
#include "util/thread_pool.h"

namespace scpm {
namespace {

Graph MakeGraph(VertexId n, std::vector<Edge> edges) {
  Result<Graph> g = Graph::FromEdges(n, std::move(edges));
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

// ------------------------------------------------------------- Params

TEST(QuasiCliqueParamsTest, Validation) {
  QuasiCliqueParams p;
  EXPECT_TRUE(p.Validate().ok());
  p.gamma = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p.gamma = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p = QuasiCliqueParams{};
  p.min_size = 1;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(QuasiCliqueParamsTest, RequiredDegree) {
  QuasiCliqueParams p{.gamma = 0.6, .min_size = 4};
  EXPECT_EQ(p.RequiredDegree(1), 0u);
  EXPECT_EQ(p.RequiredDegree(4), 2u);   // ceil(0.6*3) = 2
  EXPECT_EQ(p.RequiredDegree(6), 3u);   // ceil(0.6*5) = 3
  QuasiCliqueParams clique{.gamma = 1.0, .min_size = 3};
  EXPECT_EQ(clique.RequiredDegree(5), 4u);
  QuasiCliqueParams half{.gamma = 0.5, .min_size = 2};
  EXPECT_EQ(half.RequiredDegree(5), 2u);  // ceil(0.5*4) = 2, exact integer
  EXPECT_EQ(half.RequiredDegree(4), 2u);  // ceil(1.5) = 2
}

TEST(QuasiCliqueParamsTest, MaxSizeForDegreeIsInverse) {
  for (double gamma : {0.3, 0.5, 0.6, 0.75, 1.0}) {
    QuasiCliqueParams p{.gamma = gamma, .min_size = 2};
    for (std::size_t degree = 0; degree <= 20; ++degree) {
      const std::size_t s = p.MaxSizeForDegree(degree);
      EXPECT_LE(p.RequiredDegree(s), degree) << gamma << " " << degree;
      EXPECT_GT(p.RequiredDegree(s + 1), degree) << gamma << " " << degree;
    }
  }
}

// ---------------------------------------------------------- Definitions

TEST(QuasiCliqueDefTest, CliqueIsQuasiClique) {
  Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  QuasiCliqueParams p{.gamma = 1.0, .min_size = 4};
  EXPECT_TRUE(IsSatisfyingSet(g, {0, 1, 2, 3}, p));
  EXPECT_DOUBLE_EQ(MinDegreeRatio(g, {0, 1, 2, 3}), 1.0);
}

TEST(QuasiCliqueDefTest, PathFailsHighGamma) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  QuasiCliqueParams p{.gamma = 0.6, .min_size = 4};
  EXPECT_FALSE(IsSatisfyingSet(g, {0, 1, 2, 3}, p));  // endpoints deg 1 < 2
  QuasiCliqueParams loose{.gamma = 0.3, .min_size = 4};
  EXPECT_TRUE(IsSatisfyingSet(g, {0, 1, 2, 3}, loose));  // need deg 1
}

TEST(QuasiCliqueDefTest, SizeGate) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}, {0, 2}});
  QuasiCliqueParams p{.gamma = 1.0, .min_size = 4};
  EXPECT_FALSE(IsSatisfyingSet(g, {0, 1, 2}, p));
  p.min_size = 3;
  EXPECT_TRUE(IsSatisfyingSet(g, {0, 1, 2}, p));
}

TEST(QuasiCliqueDefTest, MinDegreeRatioOfCycle) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_DOUBLE_EQ(MinDegreeRatio(g, {0, 1, 2, 3, 4}), 0.5);  // 2/4
  EXPECT_DOUBLE_EQ(MinDegreeRatio(g, {0}), 0.0);
}

// ------------------------------------------------------------ BruteForce

TEST(BruteForceTest, TriangleWithPendant) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  QuasiCliqueParams p{.gamma = 1.0, .min_size = 3};
  Result<std::vector<VertexSet>> maximal =
      BruteForceMaximalQuasiCliques(g, p);
  ASSERT_TRUE(maximal.ok());
  ASSERT_EQ(maximal->size(), 1u);
  EXPECT_EQ(maximal->front(), (VertexSet{0, 1, 2}));
  Result<VertexSet> covered = BruteForceCoverage(g, p);
  ASSERT_TRUE(covered.ok());
  EXPECT_EQ(*covered, (VertexSet{0, 1, 2}));
}

TEST(BruteForceTest, RefusesLargeGraphs) {
  Graph g(40);
  QuasiCliqueParams p;
  EXPECT_FALSE(BruteForceSatisfyingSets(g, p).ok());
}

// ----------------------------------------------------------------- Miner

QuasiCliqueMinerOptions Opts(double gamma, std::uint32_t min_size,
                             SearchOrder order = SearchOrder::kDfs) {
  QuasiCliqueMinerOptions o;
  o.params.gamma = gamma;
  o.params.min_size = min_size;
  o.order = order;
  return o;
}

TEST(MinerTest, FindsPlantedClique) {
  Rng rng(1);
  std::vector<Edge> edges;
  // Sparse background + one 6-clique on {10..15}.
  Result<Graph> bg = ErdosRenyi(30, 0.03, rng);
  ASSERT_TRUE(bg.ok());
  edges = bg->Edges();
  for (VertexId u = 10; u <= 15; ++u) {
    for (VertexId v = u + 1; v <= 15; ++v) edges.push_back({u, v});
  }
  Graph g = MakeGraph(30, std::move(edges));
  QuasiCliqueMiner miner(Opts(1.0, 6));
  Result<std::vector<VertexSet>> cliques = miner.MineMaximal(g);
  ASSERT_TRUE(cliques.ok());
  ASSERT_GE(cliques->size(), 1u);
  bool found = false;
  for (const auto& q : *cliques) {
    found |= (q == VertexSet{10, 11, 12, 13, 14, 15});
  }
  EXPECT_TRUE(found);
}

TEST(MinerTest, EmptyAndTinyGraphs) {
  QuasiCliqueMiner miner(Opts(0.5, 3));
  Graph empty(0);
  EXPECT_TRUE(miner.MineMaximal(empty)->empty());
  Graph isolated(5);
  EXPECT_TRUE(miner.MineMaximal(isolated)->empty());
  EXPECT_TRUE(miner.MineCoverage(isolated)->empty());
}

TEST(MinerTest, TopKValidatesK) {
  QuasiCliqueMiner miner(Opts(0.5, 3));
  Graph g(3);
  EXPECT_FALSE(miner.MineTopK(g, 0).ok());
}

TEST(MinerTest, CandidateBudget) {
  Rng rng(3);
  Result<Graph> g = ErdosRenyi(40, 0.3, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMinerOptions o = Opts(0.5, 3);
  o.max_candidates = 5;
  QuasiCliqueMiner miner(o);
  Result<std::vector<VertexSet>> r = miner.MineMaximal(*g);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

// ------------------------------------------- streaming maximality

/// Reference (buffered) maximality filter: canonical sort, then a
/// quadratic subset scan — the shape FilterMaximal had before the
/// streaming MaximalSetFilter replaced it. Ground truth for the fuzz.
std::vector<VertexSet> BufferedFilterMaximal(std::vector<VertexSet> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const VertexSet& a, const VertexSet& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  std::vector<VertexSet> keep;
  for (VertexSet& q : sets) {
    bool dominated = false;
    for (const VertexSet& k : keep) {
      if (q == k || SortedIsSubset(q, k)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) keep.push_back(std::move(q));
  }
  return keep;
}

/// The incremental antichain equals the buffered filter for any offer
/// order: random sorted sets (with deliberate duplicates, subsets, and
/// supersets) offered in shuffled order must drain to the identical
/// canonical list.
TEST(MaximalSetFilterTest, MatchesBufferedFilterUnderFuzz) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    std::vector<VertexSet> offers;
    const std::size_t n = 1 + rng.NextBounded(60);
    for (std::size_t i = 0; i < n; ++i) {
      VertexSet q;
      const std::uint32_t universe = 40;
      for (VertexId v = 0; v < universe; ++v) {
        if (rng.NextBool(0.15)) q.push_back(v);
      }
      if (q.empty()) q.push_back(static_cast<VertexId>(rng.NextBounded(40)));
      offers.push_back(q);
      // Seed relations the antichain must resolve: an exact duplicate,
      // a strict subset, and a strict superset of an earlier offer.
      if (rng.NextBool(0.3)) offers.push_back(q);
      if (q.size() > 1 && rng.NextBool(0.3)) {
        VertexSet sub(q.begin(), q.end() - 1);
        offers.push_back(std::move(sub));
      }
      if (rng.NextBool(0.3)) {
        VertexSet super = q;
        const VertexId extra = static_cast<VertexId>(40 + rng.NextBounded(8));
        super.push_back(extra);  // beyond the universe: still sorted
        offers.push_back(std::move(super));
      }
    }
    const std::vector<VertexSet> want = BufferedFilterMaximal(offers);
    rng.Shuffle(offers);
    MaximalSetFilter filter;
    for (const VertexSet& q : offers) filter.Offer(VertexSet(q));
    EXPECT_EQ(filter.size(), want.size()) << "seed " << seed;
    EXPECT_EQ(filter.TakeSorted(), want) << "seed " << seed;
  }
}

TEST(MaximalSetFilterTest, OfferReportsSurvival) {
  MaximalSetFilter filter;
  EXPECT_TRUE(filter.Offer({1, 2, 3}));
  EXPECT_FALSE(filter.Offer({1, 2}));      // dominated on arrival
  EXPECT_FALSE(filter.Offer({1, 2, 3}));   // duplicate
  EXPECT_TRUE(filter.Offer({1, 2, 3, 4}));  // evicts {1,2,3}
  EXPECT_EQ(filter.size(), 1u);
  EXPECT_EQ(filter.TakeSorted(), (std::vector<VertexSet>{{1, 2, 3, 4}}));
}

struct MinerSweepParam {
  int seed;
  double gamma;
  std::uint32_t min_size;
  double edge_p;
};

class MinerSweep : public ::testing::TestWithParam<MinerSweepParam> {
 protected:
  Graph RandomGraph() {
    Rng rng(GetParam().seed);
    Result<Graph> g = ErdosRenyi(13, GetParam().edge_p, rng);
    EXPECT_TRUE(g.ok());
    return std::move(g).value();
  }
  QuasiCliqueParams Params() const {
    return {.gamma = GetParam().gamma, .min_size = GetParam().min_size};
  }
};

TEST_P(MinerSweep, MaximalMatchesBruteForce) {
  Graph g = RandomGraph();
  QuasiCliqueMinerOptions o;
  o.params = Params();
  QuasiCliqueMiner miner(o);
  Result<std::vector<VertexSet>> got = miner.MineMaximal(g);
  ASSERT_TRUE(got.ok());
  Result<std::vector<VertexSet>> want =
      BruteForceMaximalQuasiCliques(g, o.params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(MinerSweep, CoverageMatchesBruteForce) {
  Graph g = RandomGraph();
  QuasiCliqueMinerOptions o;
  o.params = Params();
  QuasiCliqueMiner miner(o);
  Result<VertexSet> got = miner.MineCoverage(g);
  ASSERT_TRUE(got.ok());
  Result<VertexSet> want = BruteForceCoverage(g, o.params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

TEST_P(MinerSweep, BfsAndDfsAgree) {
  Graph g = RandomGraph();
  QuasiCliqueMinerOptions dfs;
  dfs.params = Params();
  dfs.order = SearchOrder::kDfs;
  QuasiCliqueMinerOptions bfs = dfs;
  bfs.order = SearchOrder::kBfs;
  QuasiCliqueMiner dfs_miner(dfs), bfs_miner(bfs);
  EXPECT_EQ(*dfs_miner.MineMaximal(g), *bfs_miner.MineMaximal(g));
  EXPECT_EQ(*dfs_miner.MineCoverage(g), *bfs_miner.MineCoverage(g));
}

TEST_P(MinerSweep, AblationsPreserveOutput) {
  Graph g = RandomGraph();
  QuasiCliqueMinerOptions base;
  base.params = Params();
  QuasiCliqueMiner reference(base);
  const auto want = *reference.MineMaximal(g);

  for (int bit = 0; bit < 5; ++bit) {
    QuasiCliqueMinerOptions o = base;
    o.enable_vertex_reduction = bit != 0;
    o.enable_size_bound = bit != 1;
    o.enable_lookahead = bit != 2;
    o.enable_diameter_filter = bit != 3;
    o.enable_critical_vertex = bit != 4;
    QuasiCliqueMiner miner(o);
    Result<std::vector<VertexSet>> got = miner.MineMaximal(g);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want) << "disabled flag #" << bit;
  }
}

TEST_P(MinerSweep, TopKIsPrefixOfRankedMaximal) {
  Graph g = RandomGraph();
  QuasiCliqueMinerOptions o;
  o.params = Params();
  QuasiCliqueMiner miner(o);
  const auto maximal = *miner.MineMaximal(g);
  // Rank all maximal sets by (size, min-degree ratio).
  std::vector<RankedQuasiClique> ranked;
  for (const auto& q : maximal) {
    ranked.push_back({q, MinDegreeRatio(g, q)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedQuasiClique& a, const RankedQuasiClique& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.min_degree_ratio > b.min_degree_ratio;
            });
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    Result<std::vector<RankedQuasiClique>> top = miner.MineTopK(g, k);
    ASSERT_TRUE(top.ok());
    const std::size_t expected = std::min(k, ranked.size());
    ASSERT_EQ(top->size(), expected) << "k=" << k;
    for (std::size_t i = 0; i < expected; ++i) {
      // Keys must match the ranked maximal list (sets may differ on ties).
      EXPECT_EQ((*top)[i].size(), ranked[i].size()) << "k=" << k;
      EXPECT_DOUBLE_EQ((*top)[i].min_degree_ratio,
                       ranked[i].min_degree_ratio)
          << "k=" << k;
      // And each reported set must genuinely satisfy the constraints.
      EXPECT_TRUE(IsSatisfyingSet(g, (*top)[i].vertices, o.params));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, MinerSweep,
    ::testing::Values(
        MinerSweepParam{0, 0.5, 3, 0.25}, MinerSweepParam{1, 0.5, 3, 0.35},
        MinerSweepParam{2, 0.6, 4, 0.30}, MinerSweepParam{3, 0.6, 4, 0.45},
        MinerSweepParam{4, 0.7, 3, 0.40}, MinerSweepParam{5, 0.8, 4, 0.50},
        MinerSweepParam{6, 1.0, 3, 0.40}, MinerSweepParam{7, 1.0, 4, 0.55},
        MinerSweepParam{8, 0.5, 5, 0.40}, MinerSweepParam{9, 0.9, 3, 0.45},
        MinerSweepParam{10, 0.5, 2, 0.20}, MinerSweepParam{11, 0.6, 5, 0.50},
        MinerSweepParam{12, 0.75, 4, 0.40},
        MinerSweepParam{13, 0.55, 3, 0.30},
        MinerSweepParam{14, 0.65, 4, 0.35},
        MinerSweepParam{15, 1.0, 5, 0.60}));

// Low-gamma sweep: diameter filter must auto-disable (gamma < 0.5).
class LowGammaSweep : public ::testing::TestWithParam<int> {};

TEST_P(LowGammaSweep, MatchesBruteForceWithoutDiameterAssumption) {
  Rng rng(GetParam());
  Result<Graph> g = ErdosRenyi(11, 0.2, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMinerOptions o = Opts(0.34, 3);
  QuasiCliqueMiner miner(o);
  Result<std::vector<VertexSet>> got = miner.MineMaximal(*g);
  ASSERT_TRUE(got.ok());
  Result<std::vector<VertexSet>> want =
      BruteForceMaximalQuasiCliques(*g, o.params);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowGammaSweep, ::testing::Range(0, 8));

TEST(MinerTest, StatsArePopulated) {
  Rng rng(5);
  Result<Graph> g = ErdosRenyi(20, 0.3, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMiner miner(Opts(0.6, 3));
  ASSERT_TRUE(miner.MineMaximal(*g).ok());
  EXPECT_GT(miner.stats().candidates_processed, 0u);
}

// --------------------------------------------------------- BronKerbosch

TEST(BronKerboschTest, TriangleWithPendant) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  Result<std::vector<VertexSet>> cliques = MaximalCliques(g, 2);
  ASSERT_TRUE(cliques.ok());
  ASSERT_EQ(cliques->size(), 2u);
  EXPECT_EQ((*cliques)[0], (VertexSet{0, 1, 2}));
  EXPECT_EQ((*cliques)[1], (VertexSet{2, 3}));
}

TEST(BronKerboschTest, MinSizeFilters) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  Result<std::vector<VertexSet>> cliques = MaximalCliques(g, 3);
  ASSERT_TRUE(cliques.ok());
  ASSERT_EQ(cliques->size(), 1u);
}

TEST(BronKerboschTest, CliqueBudget) {
  Rng rng(12);
  Result<Graph> g = ErdosRenyi(30, 0.5, rng);
  ASSERT_TRUE(g.ok());
  Result<std::vector<VertexSet>> cliques = MaximalCliques(*g, 2, 3);
  EXPECT_FALSE(cliques.ok());
  EXPECT_EQ(cliques.status().code(), StatusCode::kOutOfRange);
}

class BronKerboschSweep : public ::testing::TestWithParam<int> {};

TEST_P(BronKerboschSweep, AgreesWithQuasiCliqueMinerAtGammaOne) {
  Rng rng(GetParam());
  Result<Graph> g = ErdosRenyi(16, 0.4, rng);
  ASSERT_TRUE(g.ok());
  for (std::uint32_t min_size : {2u, 3u, 4u}) {
    Result<std::vector<VertexSet>> bk = MaximalCliques(*g, min_size);
    ASSERT_TRUE(bk.ok());
    QuasiCliqueMiner miner(Opts(1.0, min_size));
    Result<std::vector<VertexSet>> qc = miner.MineMaximal(*g);
    ASSERT_TRUE(qc.ok());
    EXPECT_EQ(*bk, *qc) << "min_size=" << min_size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BronKerboschSweep, ::testing::Range(0, 10));

TEST(MinerTest, LargeGraphScalarPathFindsPlantedCliques) {
  // Graphs above the bitset threshold (4096 vertices) take the scalar
  // degree-counting path in CandidateScratch; verify it end to end
  // against the independent Bron-Kerbosch implementation.
  Rng rng(77);
  const VertexId n = 5000;
  std::vector<Edge> edges;
  Result<Graph> bg = ErdosRenyi(n, 1.5 / n, rng);
  ASSERT_TRUE(bg.ok());
  edges = bg->Edges();
  const auto groups = PlantGroups(n, 6, 6, 6, 1.0, rng, &edges);
  Graph g = MakeGraph(n, std::move(edges));

  QuasiCliqueMiner miner(Opts(1.0, 6));
  Result<std::vector<VertexSet>> got = miner.MineMaximal(g);
  ASSERT_TRUE(got.ok());
  Result<std::vector<VertexSet>> want = MaximalCliques(g, 6);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
  // Every planted 6-clique must be found (possibly inside a bigger one).
  for (const PlantedGroup& group : groups) {
    bool found = false;
    for (const VertexSet& q : *got) {
      if (SortedIsSubset(group.members, q)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
  // Coverage on the same graph agrees with the union of maximal cliques.
  Result<VertexSet> covered = miner.MineCoverage(g);
  ASSERT_TRUE(covered.ok());
  VertexSet union_of_cliques;
  for (const VertexSet& q : *want) {
    VertexSet tmp;
    SortedUnion(union_of_cliques, q, &tmp);
    union_of_cliques.swap(tmp);
  }
  EXPECT_EQ(*covered, union_of_cliques);
}

TEST(MinerTest, CriticalVertexJumpsReduceCandidates) {
  Rng rng(21);
  Result<Graph> g = ErdosRenyi(22, 0.35, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMinerOptions with = Opts(0.6, 4);
  QuasiCliqueMinerOptions without = Opts(0.6, 4);
  without.enable_critical_vertex = false;
  QuasiCliqueMiner miner_with(with), miner_without(without);
  const auto want = *miner_without.MineMaximal(*g);
  const auto got = *miner_with.MineMaximal(*g);
  EXPECT_EQ(got, want);
  EXPECT_LE(miner_with.stats().candidates_processed,
            miner_without.stats().candidates_processed);
}

// ------------------------------------------- intra-search parallelism

/// Aggressive decomposition knobs so the tiny test graphs genuinely
/// spawn branch tasks.
QuasiCliqueMinerOptions IntraOpts(double gamma, std::uint32_t min_size) {
  QuasiCliqueMinerOptions o = Opts(gamma, min_size);
  o.spawn_depth = 6;
  o.min_spawn_ext = 3;
  return o;
}

/// Every counter except branch_tasks, which counts the tasks that ran.
void ExpectWorkEqual(const MinerStats& a, const MinerStats& b) {
  EXPECT_EQ(a.candidates_processed, b.candidates_processed);
  EXPECT_EQ(a.pruned_by_analysis, b.pruned_by_analysis);
  EXPECT_EQ(a.pruned_by_coverage, b.pruned_by_coverage);
  EXPECT_EQ(a.pruned_by_topk, b.pruned_by_topk);
  EXPECT_EQ(a.lookahead_hits, b.lookahead_hits);
  EXPECT_EQ(a.critical_vertex_jumps, b.critical_vertex_jumps);
  EXPECT_EQ(a.sets_reported, b.sets_reported);
}

/// Mines `graph` with the intra-parallel search inline (no pool), then on
/// pools of 2 and 8 workers. Output must equal the sequential search's
/// every time. The inline run is the sequential traversal in one branch
/// task, so its stats must equal the sequential search's exactly,
/// branch_tasks aside. Pool runs' coverage counters depend on which
/// tasks found coverage first, so only maximal mode's (no cross-task
/// pruning: every candidate is processed once, whichever task holds it)
/// are compared.
void ExpectIntraSearchMatchesSequential(const Graph& graph,
                                        QuasiCliqueMinerOptions intra,
                                        bool expect_decomposition = true) {
  QuasiCliqueMinerOptions sequential = intra;
  sequential.spawn_depth = 0;
  QuasiCliqueMiner reference(sequential);
  Result<std::vector<VertexSet>> want_maximal = reference.MineMaximal(graph);
  ASSERT_TRUE(want_maximal.ok()) << want_maximal.status();
  const MinerStats maximal_stats = reference.stats();
  Result<VertexSet> want_coverage = reference.MineCoverage(graph);
  ASSERT_TRUE(want_coverage.ok());
  const MinerStats coverage_stats = reference.stats();

  QuasiCliqueMiner inline_miner(intra);
  Result<std::vector<VertexSet>> got = inline_miner.MineMaximal(graph);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, *want_maximal);
  ExpectWorkEqual(inline_miner.stats(), maximal_stats);
  EXPECT_LE(inline_miner.stats().branch_tasks, 1u);
  EXPECT_EQ(*inline_miner.MineCoverage(graph), *want_coverage);
  ExpectWorkEqual(inline_miner.stats(), coverage_stats);
  EXPECT_LE(inline_miner.stats().branch_tasks, 1u);

  for (std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    ParallelismBudget budget(2 * threads);
    QuasiCliqueMiner miner(intra);
    miner.set_parallel_context(&pool, &budget);
    Result<std::vector<VertexSet>> maximal = miner.MineMaximal(graph);
    ASSERT_TRUE(maximal.ok()) << maximal.status();
    EXPECT_EQ(*maximal, *want_maximal) << "threads=" << threads;
    ExpectWorkEqual(miner.stats(), maximal_stats);
    // Every slot is free when the root expands, so its large children
    // always get tasks.
    if (expect_decomposition) {
      EXPECT_GT(miner.stats().branch_tasks, 1u);
    }
    Result<VertexSet> coverage = miner.MineCoverage(graph);
    ASSERT_TRUE(coverage.ok());
    EXPECT_EQ(*coverage, *want_coverage) << "threads=" << threads;
    // Every borrowed slot must have been returned.
    EXPECT_EQ(budget.available(), 2 * threads);
  }
}

class IntraSearchSweep : public ::testing::TestWithParam<int> {};

TEST_P(IntraSearchSweep, MatchesSequentialOnRandomGraphs) {
  Rng rng(GetParam());
  Result<Graph> g = ErdosRenyi(24, 0.25, rng);
  ASSERT_TRUE(g.ok());
  ExpectIntraSearchMatchesSequential(*g, IntraOpts(0.5, 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntraSearchSweep, ::testing::Range(0, 4));

TEST(IntraSearchTest, AdversarialNearCliqueDeepRecursion) {
  // A dense near-clique drives the search deep: a 16-clique with a few
  // edges removed plus a sparse fringe, mined at high gamma, produces
  // long first-child chains and many critical-vertex jumps.
  std::vector<Edge> edges;
  for (VertexId u = 0; u < 16; ++u) {
    for (VertexId v = u + 1; v < 16; ++v) {
      if ((u + v) % 7 == 0) continue;  // punch holes
      edges.push_back({u, v});
    }
  }
  for (VertexId v = 16; v < 24; ++v) edges.push_back({v, v % 16});
  Graph g = MakeGraph(24, std::move(edges));
  ExpectIntraSearchMatchesSequential(g, IntraOpts(0.85, 5));
}

TEST(IntraSearchTest, MaximalDeepDecompositionFoldsIntoOneAccumulator) {
  // Maximum spawn depth with a minimal task-size floor: every branch
  // that finds a free slot becomes a task, and all of them fold into one
  // shared accumulator. Output and work counters must still match the
  // sequential search exactly.
  Rng rng(19);
  Result<Graph> g = ErdosRenyi(28, 0.35, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMinerOptions deep = Opts(0.5, 3);
  deep.spawn_depth = 16;   // decompose at every level
  deep.min_spawn_ext = 2;  // ...and nearly every branch
  ExpectIntraSearchMatchesSequential(*g, deep);
}

/// Many concurrent tasks cover and prune against one live covered
/// bitmap. Whatever they saw of each other's coverage, the covered set
/// must be the sequential search's on every repeat. Also the TSan job's
/// stress case for the bitmap.
TEST(IntraSearchTest, LiveCoverageStressMatchesSequential) {
  Rng rng(11);
  Result<Graph> g = ErdosRenyi(30, 0.3, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMinerOptions o = IntraOpts(0.7, 4);
  QuasiCliqueMinerOptions sequential = o;
  sequential.spawn_depth = 0;
  QuasiCliqueMiner reference(sequential);
  Result<VertexSet> want = reference.MineCoverage(*g);
  ASSERT_TRUE(want.ok());
  // Some but not all vertices are covered, so no task can stop early on
  // a full bitmap and the answer is not trivially "everything".
  ASSERT_FALSE(want->empty());
  ASSERT_LT(want->size(), g->NumVertices());

  ThreadPool pool(8);
  ParallelismBudget budget(16);
  QuasiCliqueMiner miner(o);
  miner.set_parallel_context(&pool, &budget);
  std::uint64_t max_tasks = 0;
  for (int repeat = 0; repeat < 60; ++repeat) {
    Result<VertexSet> got = miner.MineCoverage(*g);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*got, *want) << "repeat " << repeat;
    max_tasks = std::max(max_tasks, miner.stats().branch_tasks);
  }
  EXPECT_GT(max_tasks, 1u) << "the search never spawned a branch task";
  EXPECT_EQ(budget.available(), 16u);
}

TEST(IntraSearchTest, ZeroResultSearch) {
  // Max degree 2 can never satisfy min_size 6 at gamma 0.9: both phases
  // must agree on the empty answer without decomposition mishaps.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 30; ++v) edges.push_back({v, v + 1});
  Graph g = MakeGraph(30, std::move(edges));
  // Vertex reduction peels the whole graph, so no branch task ever runs;
  // what matters is that the empty answer and zeroed stats agree.
  ExpectIntraSearchMatchesSequential(g, IntraOpts(0.9, 6),
                                     /*expect_decomposition=*/false);
}

TEST(IntraSearchTest, CandidateBudgetStillEnforced) {
  Rng rng(3);
  Result<Graph> g = ErdosRenyi(40, 0.3, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMinerOptions o = IntraOpts(0.5, 3);
  o.max_candidates = 5;
  ThreadPool pool(4);
  ParallelismBudget budget(8);
  QuasiCliqueMiner miner(o);
  miner.set_parallel_context(&pool, &budget);
  Result<std::vector<VertexSet>> r = miner.MineMaximal(*g);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  Result<VertexSet> c = miner.MineCoverage(*g);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(budget.available(), 8u);
}

/// Top-k never spawns, with or without a pool: its dynamic min-size
/// pruning depends on the traversal order, so the one loop keeps every
/// child on the task's own stack and the answer is the sequential one.
TEST(IntraSearchTest, TopKIgnoresSpawnDepth) {
  Rng rng(5);
  Result<Graph> g = ErdosRenyi(24, 0.35, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMinerOptions o = IntraOpts(0.6, 3);
  QuasiCliqueMiner sequential(Opts(0.6, 3));
  Result<std::vector<RankedQuasiClique>> want = sequential.MineTopK(*g, 3);
  ASSERT_TRUE(want.ok());

  ThreadPool pool(4);
  ParallelismBudget budget(8);
  QuasiCliqueMiner inline_miner(o);
  QuasiCliqueMiner pooled_miner(o);
  pooled_miner.set_parallel_context(&pool, &budget);
  for (QuasiCliqueMiner* miner : {&inline_miner, &pooled_miner}) {
    Result<std::vector<RankedQuasiClique>> got = miner->MineTopK(*g, 3);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want->size());
    for (std::size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].vertices, (*want)[i].vertices);
    }
    EXPECT_EQ(miner->stats().branch_tasks, 0u);
    ExpectWorkEqual(miner->stats(), sequential.stats());
  }
  EXPECT_EQ(budget.available(), 8u);
}

TEST(MinerTest, CoveragePruningReducesWork) {
  Rng rng(6);
  Result<Graph> g = ErdosRenyi(24, 0.45, rng);
  ASSERT_TRUE(g.ok());
  QuasiCliqueMiner miner(Opts(0.5, 3));
  ASSERT_TRUE(miner.MineCoverage(*g).ok());
  const auto coverage_work = miner.stats().candidates_processed;
  ASSERT_TRUE(miner.MineMaximal(*g).ok());
  const auto full_work = miner.stats().candidates_processed;
  EXPECT_LT(coverage_work, full_work);
}

}  // namespace
}  // namespace scpm
