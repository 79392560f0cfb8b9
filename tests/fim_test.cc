// Unit tests for src/fim: Eclat against a brute-force itemset enumerator.

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "fim/apriori.h"
#include "fim/eclat.h"
#include "graph/attributed_graph.h"
#include "util/hybrid_set.h"
#include "util/random.h"
#include "util/sorted_ops.h"

namespace scpm {
namespace {

/// Attributed graph with no edges; attributes are all that matters here.
AttributedGraph MakeTransactions(
    VertexId n, const std::vector<std::vector<std::string>>& rows) {
  AttributedGraphBuilder builder(n);
  for (VertexId v = 0; v < rows.size(); ++v) {
    for (const std::string& name : rows[v]) {
      EXPECT_TRUE(builder.AddVertexAttribute(v, name).ok());
    }
  }
  Result<AttributedGraph> g = builder.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// All frequent itemsets by explicit subset enumeration over attributes.
std::map<AttributeSet, VertexSet> BruteForceItemsets(
    const AttributedGraph& graph, std::size_t min_support,
    std::size_t max_size) {
  std::map<AttributeSet, VertexSet> out;
  const std::size_t a = graph.NumAttributes();
  EXPECT_LE(a, 16u);
  for (std::uint32_t mask = 1; mask < (1u << a); ++mask) {
    AttributeSet items;
    for (AttributeId i = 0; i < a; ++i) {
      if (mask & (1u << i)) items.push_back(i);
    }
    if (items.size() > max_size) continue;
    const VertexSet tidset = graph.VerticesWithAll(items);
    if (tidset.size() >= min_support) out.emplace(items, tidset);
  }
  return out;
}

TEST(EclatOptionsTest, Validation) {
  EclatOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.min_support = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = EclatOptions{};
  o.min_itemset_size = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = EclatOptions{};
  o.min_itemset_size = 3;
  o.max_itemset_size = 2;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(EclatTest, ClassicExample) {
  AttributedGraph g = MakeTransactions(5, {{"a", "b", "c"},
                                           {"a", "b"},
                                           {"a", "c"},
                                           {"b", "c"},
                                           {"a", "b", "c"}});
  EclatOptions options;
  options.min_support = 3;
  Eclat eclat(options);
  Result<std::vector<FrequentItemset>> sets = eclat.MineAll(g);
  ASSERT_TRUE(sets.ok());
  // Supports: a=4, b=4, c=4, ab=3, ac=3, bc=3, abc=2 (infrequent).
  EXPECT_EQ(sets->size(), 6u);
  for (const FrequentItemset& s : *sets) {
    EXPECT_GE(s.support(), 3u);
    EXPECT_LE(s.items.size(), 2u);
  }
}

TEST(EclatTest, TidsetsAreExactlyInducedVertexSets) {
  AttributedGraph g = MakeTransactions(
      4, {{"x", "y"}, {"x"}, {"x", "y", "z"}, {"y", "z"}});
  Eclat eclat(EclatOptions{});
  Result<std::vector<FrequentItemset>> sets = eclat.MineAll(g);
  ASSERT_TRUE(sets.ok());
  for (const FrequentItemset& s : *sets) {
    EXPECT_EQ(s.tidset, g.VerticesWithAll(s.items));
  }
}

TEST(EclatTest, MinItemsetSizeFiltersReporting) {
  AttributedGraph g = MakeTransactions(3, {{"a", "b"}, {"a", "b"}, {"a"}});
  EclatOptions options;
  options.min_support = 2;
  options.min_itemset_size = 2;
  Eclat eclat(options);
  Result<std::vector<FrequentItemset>> sets = eclat.MineAll(g);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 1u);
  EXPECT_EQ(sets->front().items.size(), 2u);
}

TEST(EclatTest, VisitorEarlyStop) {
  AttributedGraph g = MakeTransactions(3, {{"a", "b", "c"},
                                           {"a", "b", "c"},
                                           {"a", "b", "c"}});
  Eclat eclat(EclatOptions{});
  int visits = 0;
  ASSERT_TRUE(eclat
                  .Mine(g,
                        [&](const AttributeSet&, const VertexSet&) {
                          return ++visits < 3;
                        })
                  .ok());
  EXPECT_EQ(visits, 3);
}

TEST(EclatTest, EmptyGraph) {
  AttributedGraph g = MakeTransactions(0, {});
  Eclat eclat(EclatOptions{});
  Result<std::vector<FrequentItemset>> sets = eclat.MineAll(g);
  ASSERT_TRUE(sets.ok());
  EXPECT_TRUE(sets->empty());
}

struct SweepParam {
  int seed;
  std::size_t min_support;
};

class EclatSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EclatSweep, MatchesBruteForce) {
  const auto [seed, min_support] = GetParam();
  Rng rng(seed);
  // Random transaction database: 30 vertices, 10 attributes.
  AttributedGraphBuilder builder(30);
  std::vector<AttributeId> attrs;
  for (int a = 0; a < 10; ++a) {
    attrs.push_back(
        builder.InternAttribute(std::string("a").append(std::to_string(a))));
  }
  for (VertexId v = 0; v < 30; ++v) {
    for (AttributeId a : attrs) {
      if (rng.NextBool(0.35)) {
        ASSERT_TRUE(builder.AddVertexAttribute(v, a).ok());
      }
    }
  }
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok());

  EclatOptions options;
  options.min_support = min_support;
  Eclat eclat(options);
  Result<std::vector<FrequentItemset>> got = eclat.MineAll(*g);
  ASSERT_TRUE(got.ok());

  const auto want = BruteForceItemsets(*g, min_support, 16);
  EXPECT_EQ(got->size(), want.size());
  for (const FrequentItemset& s : *got) {
    auto it = want.find(s.items);
    ASSERT_NE(it, want.end());
    EXPECT_EQ(s.tidset, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, EclatSweep,
    ::testing::Values(SweepParam{0, 3}, SweepParam{1, 3}, SweepParam{2, 5},
                      SweepParam{3, 5}, SweepParam{4, 8}, SweepParam{5, 8},
                      SweepParam{6, 12}, SweepParam{7, 1}, SweepParam{8, 2},
                      SweepParam{9, 15}));

// ---------------------------------------------------------------- Apriori

TEST(AprioriTest, ClassicExample) {
  AttributedGraph g = MakeTransactions(5, {{"a", "b", "c"},
                                           {"a", "b"},
                                           {"a", "c"},
                                           {"b", "c"},
                                           {"a", "b", "c"}});
  EclatOptions options;
  options.min_support = 3;
  Apriori apriori(options);
  Result<std::vector<FrequentItemset>> sets = apriori.MineAll(g);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->size(), 6u);
}

TEST(AprioriTest, RespectsSizeWindow) {
  AttributedGraph g = MakeTransactions(
      4, {{"a", "b", "c"}, {"a", "b", "c"}, {"a", "b", "c"}, {"a"}});
  EclatOptions options;
  options.min_support = 2;
  options.min_itemset_size = 2;
  options.max_itemset_size = 2;
  Apriori apriori(options);
  Result<std::vector<FrequentItemset>> sets = apriori.MineAll(g);
  ASSERT_TRUE(sets.ok());
  for (const auto& s : *sets) EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(sets->size(), 3u);  // ab, ac, bc
}

class AprioriEclatSweep : public ::testing::TestWithParam<int> {};

TEST_P(AprioriEclatSweep, AgreesWithEclat) {
  Rng rng(GetParam());
  AttributedGraphBuilder builder(25);
  for (int a = 0; a < 9; ++a) {
    builder.InternAttribute(std::string("a").append(std::to_string(a)));
  }
  for (VertexId v = 0; v < 25; ++v) {
    for (AttributeId a = 0; a < 9; ++a) {
      if (rng.NextBool(0.4)) {
        ASSERT_TRUE(builder.AddVertexAttribute(v, a).ok());
      }
    }
  }
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok());

  EclatOptions options;
  options.min_support = 3 + GetParam() % 4;
  Result<std::vector<FrequentItemset>> a = Apriori(options).MineAll(*g);
  Result<std::vector<FrequentItemset>> b = Eclat(options).MineAll(*g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  std::map<AttributeSet, VertexSet> eclat_index;
  for (const auto& s : *b) eclat_index[s.items] = s.tidset;
  for (const auto& s : *a) {
    auto it = eclat_index.find(s.items);
    ASSERT_NE(it, eclat_index.end());
    EXPECT_EQ(s.tidset, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AprioriEclatSweep, ::testing::Range(0, 12));

/// Hybrid tidset storage (dense bitmaps past the 5% knee) must mine the
/// exact same itemsets, in the same DFS order, as the pure sorted-vector
/// configuration — and its kernel counters must be reproducible.
class EclatHybridSweep : public ::testing::TestWithParam<int> {};

TEST_P(EclatHybridSweep, HybridOnOffProduceIdenticalItemsets) {
  Rng rng(GetParam());
  // 200 vertices: attribute tidsets (~p * 200) sit well above the dense
  // threshold (200 / 20 = 10), so roots and early intersections go
  // through the bitmap kernels.
  AttributedGraphBuilder builder(200);
  for (int a = 0; a < 8; ++a) {
    builder.InternAttribute(std::string("a").append(std::to_string(a)));
  }
  for (VertexId v = 0; v < 200; ++v) {
    for (AttributeId a = 0; a < 8; ++a) {
      if (rng.NextBool(0.2 + 0.1 * static_cast<double>(a % 3))) {
        ASSERT_TRUE(builder.AddVertexAttribute(v, a).ok());
      }
    }
  }
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok());

  EclatOptions options;
  options.min_support = 5 + GetParam();
  options.use_hybrid_tidsets = false;
  SetOpStats plain_stats;
  Eclat plain(options);
  plain.set_stats(&plain_stats);
  Result<std::vector<FrequentItemset>> want = plain.MineAll(*g);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(plain_stats.dense_conversions, 0u);
  EXPECT_EQ(plain_stats.bitmap_intersections, 0u);

  options.use_hybrid_tidsets = true;
  SetOpStats hybrid_stats;
  Eclat hybrid(options);
  hybrid.set_stats(&hybrid_stats);
  Result<std::vector<FrequentItemset>> got = hybrid.MineAll(*g);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(hybrid_stats.dense_conversions, 0u);
  EXPECT_GT(hybrid_stats.bitmap_intersections, 0u);

  // Same DFS emission order, same itemsets, same tidsets.
  ASSERT_EQ(got->size(), want->size());
  for (std::size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].items, (*want)[i].items) << "row " << i;
    EXPECT_EQ((*got)[i].tidset, (*want)[i].tidset) << "row " << i;
  }

  // Kernel counters are a pure function of the input: a re-run agrees.
  SetOpStats again;
  hybrid.set_stats(&again);
  ASSERT_TRUE(hybrid.MineAll(*g).ok());
  EXPECT_EQ(again.bitmap_intersections, hybrid_stats.bitmap_intersections);
  EXPECT_EQ(again.galloping_intersections,
            hybrid_stats.galloping_intersections);
  EXPECT_EQ(again.dense_conversions, hybrid_stats.dense_conversions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EclatHybridSweep, ::testing::Range(0, 4));

/// Apriori's candidate tidset intersections go through the same hybrid
/// kernels as Eclat's: on/off must produce identical itemsets with the
/// kernels demonstrably engaged.
class AprioriHybridSweep : public ::testing::TestWithParam<int> {};

TEST_P(AprioriHybridSweep, HybridOnOffProduceIdenticalItemsets) {
  Rng rng(GetParam() + 100);
  AttributedGraphBuilder builder(200);
  for (int a = 0; a < 7; ++a) {
    builder.InternAttribute(std::string("a").append(std::to_string(a)));
  }
  for (VertexId v = 0; v < 200; ++v) {
    for (AttributeId a = 0; a < 7; ++a) {
      if (rng.NextBool(0.25 + 0.1 * static_cast<double>(a % 2))) {
        ASSERT_TRUE(builder.AddVertexAttribute(v, a).ok());
      }
    }
  }
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok());

  AprioriOptions options;
  options.min_support = 5 + GetParam();
  options.use_hybrid_tidsets = false;
  SetOpStats plain_stats;
  Apriori plain(options);
  plain.set_stats(&plain_stats);
  Result<std::vector<FrequentItemset>> want = plain.MineAll(*g);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(plain_stats.dense_conversions, 0u);
  EXPECT_EQ(plain_stats.bitmap_intersections, 0u);

  options.use_hybrid_tidsets = true;
  SetOpStats hybrid_stats;
  Apriori hybrid(options);
  hybrid.set_stats(&hybrid_stats);
  Result<std::vector<FrequentItemset>> got = hybrid.MineAll(*g);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(hybrid_stats.dense_conversions, 0u);
  EXPECT_GT(hybrid_stats.bitmap_intersections, 0u);

  ASSERT_EQ(got->size(), want->size());
  for (std::size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].items, (*want)[i].items) << "row " << i;
    EXPECT_EQ((*got)[i].tidset, (*want)[i].tidset) << "row " << i;
  }

  // Kernel counters are a pure function of the input: a re-run agrees.
  SetOpStats again;
  hybrid.set_stats(&again);
  ASSERT_TRUE(hybrid.MineAll(*g).ok());
  EXPECT_EQ(again.bitmap_intersections, hybrid_stats.bitmap_intersections);
  EXPECT_EQ(again.dense_conversions, hybrid_stats.dense_conversions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AprioriHybridSweep, ::testing::Range(0, 4));

TEST(EclatTest, SupportIsAntiMonotone) {
  Rng rng(42);
  AttributedGraphBuilder builder(40);
  for (int a = 0; a < 8; ++a) builder.InternAttribute(std::to_string(a));
  for (VertexId v = 0; v < 40; ++v) {
    for (AttributeId a = 0; a < 8; ++a) {
      if (rng.NextBool(0.4)) {
        ASSERT_TRUE(builder.AddVertexAttribute(v, a).ok());
      }
    }
  }
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok());
  Eclat eclat(EclatOptions{});
  Result<std::vector<FrequentItemset>> sets = eclat.MineAll(*g);
  ASSERT_TRUE(sets.ok());
  std::map<AttributeSet, std::size_t> support;
  for (const auto& s : *sets) support[s.items] = s.support();
  for (const auto& s : *sets) {
    if (s.items.size() < 2) continue;
    // Every (size-1)-subset must have support >= the set's support.
    for (std::size_t drop = 0; drop < s.items.size(); ++drop) {
      AttributeSet subset = s.items;
      subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(drop));
      auto it = support.find(subset);
      ASSERT_NE(it, support.end());
      EXPECT_GE(it->second, s.support());
    }
  }
}

}  // namespace
}  // namespace scpm
