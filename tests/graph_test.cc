// Unit tests for src/graph: CSR graph, induced subgraph, attributed graph,
// text IO, metrics.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/attributed_graph.h"
#include "graph/dot.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/subgraph.h"
#include "util/random.h"
#include "util/sorted_ops.h"

namespace scpm {
namespace {

Graph MakeGraph(VertexId n, std::vector<Edge> edges) {
  Result<Graph> g = Graph::FromEdges(n, std::move(edges));
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

Graph Triangle() { return MakeGraph(3, {{0, 1}, {1, 2}, {0, 2}}); }

Graph Path4() { return MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}); }

// ----------------------------------------------------------------- Graph

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(GraphTest, IsolatedVertices) {
  Graph g(5);
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 0u);
}

TEST(GraphTest, BasicAdjacency) {
  Graph g = Triangle();
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2u);
}

TEST(GraphTest, DropsDuplicatesAndSelfLoops) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  Result<Graph> g = Graph::FromEdges(2, {{0, 5}});
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g = MakeGraph(5, {{4, 0}, {2, 0}, {0, 3}, {0, 1}});
  auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphTest, EdgesRoundTrip) {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  Graph g = MakeGraph(4, edges);
  const auto out = g.Edges();
  EXPECT_EQ(out.size(), 4u);
  for (const Edge& e : out) EXPECT_LT(e.u, e.v);
}

TEST(GraphTest, DegreeHistogram) {
  Graph g = Path4();
  const auto hist = g.DegreeHistogram();
  ASSERT_EQ(hist.size(), 3u);  // degrees 0..2
  EXPECT_EQ(hist[0], 0u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 2u);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(GraphTest, BuilderAccumulates) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  EXPECT_EQ(builder.NumRecordedEdges(), 2u);
  Result<Graph> g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2u);
}

class GraphRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(GraphRandomSweep, CsrInvariants) {
  Rng rng(GetParam());
  Result<Graph> g = ErdosRenyi(40, 0.15, rng);
  ASSERT_TRUE(g.ok());
  std::size_t degree_sum = 0;
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    auto nbrs = g->Neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
    for (VertexId u : nbrs) {
      EXPECT_NE(u, v);
      EXPECT_TRUE(g->HasEdge(v, u));
      EXPECT_TRUE(g->HasEdge(u, v));  // symmetry
    }
    degree_sum += nbrs.size();
  }
  EXPECT_EQ(degree_sum, 2 * g->NumEdges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphRandomSweep, ::testing::Range(0, 10));

// -------------------------------------------------------------- Subgraph

TEST(SubgraphTest, InducesEdgesWithinSubset) {
  // Square with a diagonal: 0-1-2-3-0 plus 0-2.
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}});
  Result<InducedSubgraph> sub = InducedSubgraph::Create(g, {0, 1, 2});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->NumVertices(), 3u);
  EXPECT_EQ(sub->graph().NumEdges(), 3u);  // triangle 0-1-2
  EXPECT_EQ(sub->ToGlobal(VertexId{0}), 0u);
  EXPECT_EQ(sub->ToLocal(2), 2u);
  EXPECT_EQ(sub->ToLocal(3), kInvalidVertex);
}

TEST(SubgraphTest, EmptySubset) {
  Graph g = Triangle();
  Result<InducedSubgraph> sub = InducedSubgraph::Create(g, {});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->NumVertices(), 0u);
}

TEST(SubgraphTest, RejectsUnsortedInput) {
  Graph g = Triangle();
  EXPECT_FALSE(InducedSubgraph::Create(g, {2, 0}).ok());
  EXPECT_FALSE(InducedSubgraph::Create(g, {0, 0}).ok());
  EXPECT_FALSE(InducedSubgraph::Create(g, {0, 9}).ok());
}

TEST(SubgraphTest, MapsSetsBack) {
  Graph g = MakeGraph(6, {{1, 3}, {3, 5}});
  Result<InducedSubgraph> sub = InducedSubgraph::Create(g, {1, 3, 5});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->ToGlobal(VertexSet{0, 2}), (VertexSet{1, 5}));
}

class SubgraphSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubgraphSweep, MatchesBruteForceInduction) {
  Rng rng(GetParam());
  Result<Graph> g = ErdosRenyi(30, 0.2, rng);
  ASSERT_TRUE(g.ok());
  const VertexSet subset = rng.SampleWithoutReplacement(30, 12);
  Result<InducedSubgraph> sub = InducedSubgraph::Create(*g, subset);
  ASSERT_TRUE(sub.ok());
  // Every pair in the subset must agree between parent and subgraph.
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t j = i + 1; j < subset.size(); ++j) {
      EXPECT_EQ(g->HasEdge(subset[i], subset[j]),
                sub->graph().HasEdge(static_cast<VertexId>(i),
                                     static_cast<VertexId>(j)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubgraphSweep, ::testing::Range(0, 10));

// --------------------------------------------------- SubgraphWorkspace

/// CSR equality: same offsets partitioning and same neighbor lists.
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    ASSERT_EQ(VertexSet(na.begin(), na.end()), VertexSet(nb.begin(), nb.end()))
        << "vertex " << v;
  }
}

class SubgraphWorkspaceSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubgraphWorkspaceSweep, MatchesCreateAcrossRecycledBuilds) {
  Rng rng(GetParam());
  Result<Graph> g = ErdosRenyi(60, 0.15, rng);
  ASSERT_TRUE(g.ok());
  SubgraphWorkspace workspace;
  // Repeated builds reuse recycled buffers; each must equal the
  // allocate-from-scratch path exactly.
  for (int round = 0; round < 6; ++round) {
    const VertexSet subset = rng.SampleWithoutReplacement(
        60, 5 + static_cast<std::uint32_t>(rng.NextBounded(40)));
    Result<InducedSubgraph> fresh = InducedSubgraph::Create(*g, subset);
    Result<InducedSubgraph> reused = workspace.Build(*g, subset);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(fresh->global_ids(), reused->global_ids());
    ExpectSameGraph(fresh->graph(), reused->graph());
    workspace.Recycle(std::move(reused).value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubgraphWorkspaceSweep,
                         ::testing::Range(0, 10));

TEST(SubgraphWorkspaceTest, ValidatesLikeCreate) {
  Graph g = Triangle();
  SubgraphWorkspace workspace;
  EXPECT_FALSE(workspace.Build(g, {2, 0}).ok());
  EXPECT_FALSE(workspace.Build(g, {0, 0}).ok());
  EXPECT_FALSE(workspace.Build(g, {0, 9}).ok());
  Result<InducedSubgraph> empty = workspace.Build(g, VertexSet{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumVertices(), 0u);
}

TEST(SubgraphWorkspaceTest, NestedBuildsBeforeRecycle) {
  // A workspace-built subgraph may itself be induced from (the miner does
  // this) before either is recycled.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 4}});
  SubgraphWorkspace workspace;
  Result<InducedSubgraph> outer = workspace.Build(g, {0, 1, 2, 4});
  ASSERT_TRUE(outer.ok());
  Result<InducedSubgraph> inner = workspace.Build(outer->graph(), {0, 1, 3});
  ASSERT_TRUE(inner.ok());
  // Locals {0,1,3} of outer are globals {0,1,4}: edges 0-1, 0-4, 1-4.
  EXPECT_EQ(inner->graph().NumEdges(), 3u);
  workspace.Recycle(std::move(inner).value());
  EXPECT_TRUE(outer->graph().HasEdge(0, 1));  // outer unaffected
  workspace.Recycle(std::move(outer).value());
}

TEST(SubgraphWorkspaceTest, ServesMultipleParentGraphs) {
  Graph small = Triangle();
  Graph big = MakeGraph(8, {{0, 7}, {1, 6}, {2, 5}, {5, 6}, {6, 7}});
  SubgraphWorkspace workspace;
  Result<InducedSubgraph> a = workspace.Build(big, {5, 6, 7});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->graph().NumEdges(), 2u);
  workspace.Recycle(std::move(a).value());
  Result<InducedSubgraph> b = workspace.Build(small, {0, 1});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->graph().NumEdges(), 1u);
  workspace.Recycle(std::move(b).value());
}

/// The dense path of Build(HybridVertexSet): a set past the density knee
/// keeps its bitmap as the membership structure (local ids by word rank,
/// no vector stamp pass) and must produce the identical subgraph.
TEST(SubgraphWorkspaceTest, DenseBuildMatchesVectorBuild) {
  Rng rng(7);
  const VertexId n = 5000;
  VertexSet members = rng.SampleWithoutReplacement(n, 2000);
  std::sort(members.begin(), members.end());
  std::vector<Edge> edges;
  for (int i = 0; i < 4000; ++i) {
    const VertexId u = members[rng.NextBounded(members.size())];
    const VertexId v = members[rng.NextBounded(members.size())];
    if (u != v) edges.push_back({std::min(u, v), std::max(u, v)});
    const VertexId w = static_cast<VertexId>(rng.NextBounded(n));
    if (w != u) edges.push_back({std::min(u, w), std::max(u, w)});
  }
  Result<Graph> g = Graph::FromEdges(n, std::move(edges));
  ASSERT_TRUE(g.ok());

  SetOpStats stats;
  HybridVertexSet set = HybridVertexSet::FromVector(members, n, &stats);
  ASSERT_TRUE(set.dense());  // the point of the test

  SubgraphWorkspace workspace;
  Result<InducedSubgraph> dense = workspace.Build(*g, std::move(set));
  ASSERT_TRUE(dense.ok()) << dense.status();
  Result<InducedSubgraph> plain = InducedSubgraph::Create(*g, members);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(dense->global_ids(), plain->global_ids());
  ExpectSameGraph(dense->graph(), plain->graph());
  workspace.Recycle(std::move(dense).value());

  // Round 2 on recycled buffers, different member set.
  VertexSet other = rng.SampleWithoutReplacement(n, 1500);
  std::sort(other.begin(), other.end());
  HybridVertexSet set2 = HybridVertexSet::FromVector(other, n, &stats);
  ASSERT_TRUE(set2.dense());
  Result<InducedSubgraph> again = workspace.Build(*g, std::move(set2));
  ASSERT_TRUE(again.ok());
  Result<InducedSubgraph> plain2 = InducedSubgraph::Create(*g, other);
  ASSERT_TRUE(plain2.ok());
  EXPECT_EQ(again->global_ids(), plain2->global_ids());
  ExpectSameGraph(again->graph(), plain2->graph());
}

TEST(SubgraphWorkspaceTest, DenseBuildValidatesVertexRange) {
  // The bitmap's universe exceeds the parent graph: the dense path must
  // reject the build like the vector path does.
  Rng rng(11);
  VertexSet members = rng.SampleWithoutReplacement(1000, 500);
  std::sort(members.begin(), members.end());
  HybridVertexSet set = HybridVertexSet::FromVector(members, 1000, nullptr);
  ASSERT_TRUE(set.dense());
  Graph small(100);
  SubgraphWorkspace workspace;
  EXPECT_FALSE(workspace.Build(small, std::move(set)).ok());
}

// ------------------------------------------------------ AttributedGraph

AttributedGraph SmallAttributed() {
  AttributedGraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  EXPECT_TRUE(builder.AddVertexAttribute(0, "red").ok());
  EXPECT_TRUE(builder.AddVertexAttribute(1, "red").ok());
  EXPECT_TRUE(builder.AddVertexAttribute(1, "blue").ok());
  EXPECT_TRUE(builder.AddVertexAttribute(2, "blue").ok());
  EXPECT_TRUE(builder.AddVertexAttribute(3, "red").ok());
  EXPECT_TRUE(builder.AddVertexAttribute(3, "blue").ok());
  Result<AttributedGraph> g = builder.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(AttributedGraphTest, InterningIsStable) {
  AttributedGraphBuilder builder(1);
  const AttributeId red = builder.InternAttribute("red");
  EXPECT_EQ(builder.InternAttribute("red"), red);
  EXPECT_NE(builder.InternAttribute("blue"), red);
}

TEST(AttributedGraphTest, AttributesAndInvertedIndex) {
  AttributedGraph g = SmallAttributed();
  EXPECT_EQ(g.NumAttributes(), 2u);
  const AttributeId red = g.FindAttribute("red");
  const AttributeId blue = g.FindAttribute("blue");
  ASSERT_NE(red, kInvalidAttribute);
  ASSERT_NE(blue, kInvalidAttribute);
  EXPECT_EQ(g.VerticesWith(red), (VertexSet{0, 1, 3}));
  EXPECT_EQ(g.VerticesWith(blue), (VertexSet{1, 2, 3}));
  EXPECT_TRUE(g.VertexHasAttribute(1, red));
  EXPECT_FALSE(g.VertexHasAttribute(2, red));
  EXPECT_EQ(g.FindAttribute("green"), kInvalidAttribute);
}

TEST(AttributedGraphTest, VerticesWithAll) {
  AttributedGraph g = SmallAttributed();
  const AttributeId red = g.FindAttribute("red");
  const AttributeId blue = g.FindAttribute("blue");
  AttributeSet both{std::min(red, blue), std::max(red, blue)};
  EXPECT_EQ(g.VerticesWithAll(both), (VertexSet{1, 3}));
  EXPECT_EQ(g.Support(both), 2u);
  EXPECT_EQ(g.VerticesWithAll({}), (VertexSet{0, 1, 2, 3}));
}

TEST(AttributedGraphTest, DuplicateAttributeCollapsed) {
  AttributedGraphBuilder builder(1);
  EXPECT_TRUE(builder.AddVertexAttribute(0, "x").ok());
  EXPECT_TRUE(builder.AddVertexAttribute(0, "x").ok());
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Attributes(0).size(), 1u);
  EXPECT_EQ(g->NumAttributeOccurrences(), 1u);
}

TEST(AttributedGraphTest, RejectsBadVertex) {
  AttributedGraphBuilder builder(2);
  EXPECT_FALSE(builder.AddVertexAttribute(5, "x").ok());
  EXPECT_FALSE(builder.AddVertexAttribute(0, AttributeId{99}).ok());
}

TEST(AttributedGraphTest, FormatAttributeSet) {
  AttributedGraph g = SmallAttributed();
  const AttributeId red = g.FindAttribute("red");
  EXPECT_EQ(g.FormatAttributeSet({red}), "{red}");
  EXPECT_EQ(g.FormatAttributeSet({}), "{}");
}

// -------------------------------------------------------------------- IO

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("scpm_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  /// Writes `content` to `name` and loads it as an edge list; the load
  /// must fail with an IoError that names `line` and contains `want`.
  void ExpectEdgeListRejected(const std::string& name,
                              const std::string& content,
                              const std::string& line,
                              const std::string& want) {
    {
      std::ofstream out(Path(name));
      out << content;
    }
    Result<Graph> g = LoadEdgeList(Path(name));
    ASSERT_FALSE(g.ok()) << content;
    EXPECT_EQ(g.status().code(), StatusCode::kIoError);
    EXPECT_NE(g.status().message().find(name + ":" + line + ":"),
              std::string::npos)
        << g.status();
    EXPECT_NE(g.status().message().find(want), std::string::npos) << g.status();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  ASSERT_TRUE(SaveEdgeList(g, Path("g.txt")).ok());
  Result<Graph> loaded = LoadEdgeList(Path("g.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumVertices(), 5u);
  EXPECT_EQ(loaded->Edges(), g.Edges());
}

TEST_F(IoTest, AttributedRoundTrip) {
  AttributedGraph g = SmallAttributed();
  ASSERT_TRUE(
      SaveAttributedGraph(g, Path("g.txt"), Path("a.txt")).ok());
  Result<AttributedGraph> loaded =
      LoadAttributedGraph(Path("g.txt"), Path("a.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumVertices(), g.NumVertices());
  EXPECT_EQ(loaded->NumAttributes(), g.NumAttributes());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::set<std::string> want, got;
    for (AttributeId a : g.Attributes(v)) want.insert(g.AttributeName(a));
    for (AttributeId a : loaded->Attributes(v)) {
      got.insert(loaded->AttributeName(a));
    }
    EXPECT_EQ(got, want) << "vertex " << v;
  }
}

/// The last vertex carries attributes but no edge, so only the attribute
/// file names it: the loader sizes the graph from both files and the
/// round trip keeps every vertex and attribute.
TEST_F(IoTest, AttributedRoundTripWithIsolatedLastVertex) {
  AttributedGraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  ASSERT_TRUE(builder.AddVertexAttribute(0, "red").ok());
  ASSERT_TRUE(builder.AddVertexAttribute(2, "blue").ok());
  ASSERT_TRUE(builder.AddVertexAttribute(4, "red").ok());
  ASSERT_TRUE(builder.AddVertexAttribute(4, "green").ok());
  Result<AttributedGraph> g = builder.Build();
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_TRUE(SaveAttributedGraph(*g, Path("g.txt"), Path("a.txt")).ok());
  Result<AttributedGraph> loaded =
      LoadAttributedGraph(Path("g.txt"), Path("a.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumVertices(), 5u);
  EXPECT_EQ(loaded->graph().NumEdges(), 2u);
  EXPECT_EQ(loaded->graph().Degree(4), 0u);
  for (VertexId v = 0; v < 5; ++v) {
    std::set<std::string> want, got;
    for (AttributeId a : g->Attributes(v)) want.insert(g->AttributeName(a));
    for (AttributeId a : loaded->Attributes(v)) {
      got.insert(loaded->AttributeName(a));
    }
    EXPECT_EQ(got, want) << "vertex " << v;
  }
}

TEST_F(IoTest, MissingFileIsIoError) {
  Result<Graph> g = LoadEdgeList(Path("nope.txt"));
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, MalformedLineIsIoError) {
  {
    std::ofstream out(Path("bad.txt"));
    out << "0 1\nhello world\n";
  }
  EXPECT_FALSE(LoadEdgeList(Path("bad.txt")).ok());
}

TEST_F(IoTest, HugeVertexIdIsIoErrorNotAllocation) {
  // Used to size the graph at 4e9 vertices and abort with bad_alloc.
  ExpectEdgeListRejected("huge.txt", "0 1\n1 4000000000\n", "2", "too large");
  const std::string past_cap = std::to_string(kMaxLoadedVertexId + 1);
  ExpectEdgeListRejected("cap.txt", "0 " + past_cap + "\n", "1", "too large");
  ExpectEdgeListRejected("u64.txt", "0 99999999999999999999999\n", "1",
                         "too large");
}

TEST_F(IoTest, ExtraTokensAreIoError) {
  ExpectEdgeListRejected("extra.txt", "0 1\n0 1 2\n", "2",
                         "expected exactly 'u v'");
  ExpectEdgeListRejected("short.txt", "0\n", "1", "expected exactly 'u v'");
  ExpectEdgeListRejected("suffix.txt", "0 2abc\n", "1", "expected a vertex id");
}

TEST_F(IoTest, NegativeVertexIdIsReportedAsNegative) {
  ExpectEdgeListRejected("neg.txt", "-1 0\n", "1", "negative vertex id -1");
  {
    std::ofstream edges(Path("g.txt"));
    edges << "0 1\n";
    std::ofstream attrs(Path("a.txt"));
    attrs << "0 red\n-1 blue\n";
  }
  Result<AttributedGraph> g = LoadAttributedGraph(Path("g.txt"), Path("a.txt"));
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("a.txt:2: negative vertex id"),
            std::string::npos)
      << g.status();
}

TEST_F(IoTest, CommentsAndBlanksIgnored) {
  {
    std::ofstream out(Path("c.txt"));
    out << "# header\n\n0 1 # trailing\n 1 2 \n";
  }
  Result<Graph> g = LoadEdgeList(Path("c.txt"));
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumEdges(), 2u);
}

// ------------------------------------------------------------------- DOT

TEST(DotTest, BasicStructure) {
  Graph g = Triangle();
  DotOptions options;
  options.highlights = {{0, 1}};
  std::ostringstream os;
  ASSERT_TRUE(WriteDot(g, options, os).ok());
  const std::string out = os.str();
  EXPECT_NE(out.find("graph scpm {"), std::string::npos);
  EXPECT_NE(out.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(out.find("fillcolor"), std::string::npos);
}

TEST(DotTest, LabelsAndIsolatedVertices) {
  Graph g = MakeGraph(3, {{0, 1}});
  DotOptions options;
  options.labels = {"a", "b", "c"};
  options.drop_isolated = true;
  std::ostringstream os;
  ASSERT_TRUE(WriteDot(g, options, os).ok());
  EXPECT_EQ(os.str().find("n2"), std::string::npos);  // isolated dropped
  EXPECT_NE(os.str().find("label=\"a\""), std::string::npos);
}

TEST(DotTest, ValidatesInput) {
  Graph g = Triangle();
  DotOptions bad_labels;
  bad_labels.labels = {"only-one"};
  std::ostringstream os;
  EXPECT_FALSE(WriteDot(g, bad_labels, os).ok());
  DotOptions bad_highlight;
  bad_highlight.highlights = {{2, 1}};
  EXPECT_FALSE(WriteDot(g, bad_highlight, os).ok());
  DotOptions oob;
  oob.highlights = {{9}};
  EXPECT_FALSE(WriteDot(g, oob, os).ok());
}

// --------------------------------------------------------------- Metrics

TEST(MetricsTest, DensityAndAverageDegree) {
  Graph g = Triangle();
  EXPECT_DOUBLE_EQ(EdgeDensity(g), 1.0);
  EXPECT_DOUBLE_EQ(AverageDegree(g), 2.0);
  Graph path = Path4();
  EXPECT_DOUBLE_EQ(EdgeDensity(path), 0.5);
}

TEST(MetricsTest, SubsetDensity) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {0, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(SubsetDensity(g, {0, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(SubsetDensity(g, {0, 1, 3}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(SubsetDensity(g, {0}), 0.0);
}

TEST(MetricsTest, ClusteringCoefficients) {
  Graph g = Triangle();
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
  const auto local = LocalClusteringCoefficients(g);
  for (double c : local) EXPECT_DOUBLE_EQ(c, 1.0);
  Graph path = Path4();
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(path), 0.0);
}

TEST(MetricsTest, CoreNumbers) {
  // Triangle with a pendant: cores (2,2,2,1).
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto core = CoreNumbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
  EXPECT_EQ(KCore(g, 2), (VertexSet{0, 1, 2}));
  EXPECT_EQ(KCore(g, 3), VertexSet{});
}

class CoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoreSweep, KCoreHasMinDegreeK) {
  Rng rng(GetParam());
  Result<Graph> g = ErdosRenyi(60, 0.08, rng);
  ASSERT_TRUE(g.ok());
  for (std::uint32_t k = 1; k <= 4; ++k) {
    const VertexSet core = KCore(*g, k);
    for (VertexId v : core) {
      std::size_t deg_in_core = 0;
      for (VertexId u : g->Neighbors(v)) {
        deg_in_core += SortedContains(core, u) ? 1 : 0;
      }
      EXPECT_GE(deg_in_core, k) << "vertex " << v << " in " << k << "-core";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreSweep, ::testing::Range(0, 10));

TEST(MetricsTest, TriangleCount) {
  Graph g = Triangle();
  EXPECT_EQ(TriangleCount(g), 1u);
  // K4 has 4 triangles.
  Graph k4 = MakeGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(TriangleCount(k4), 4u);
  EXPECT_EQ(TriangleCount(Path4()), 0u);
}

/// Regression for the bitmap-row common-neighbor rewrite: the triangle
/// and clustering metrics must produce the exact integer counts (and
/// therefore bit-identical doubles) of a brute-force O(n^3) reference.
class MetricsRowSweep : public ::testing::TestWithParam<int> {};

TEST_P(MetricsRowSweep, BitmapRowsMatchBruteForce) {
  Rng rng(GetParam() + 50);
  Result<Graph> g = ErdosRenyi(90, 0.08 + 0.04 * (GetParam() % 3), rng);
  ASSERT_TRUE(g.ok());
  const VertexId n = g->NumVertices();
  auto adjacent = [&](VertexId u, VertexId v) {
    return SortedContains(VertexSet(g->Neighbors(u).begin(),
                                    g->Neighbors(u).end()),
                          v);
  };

  std::size_t triangles = 0;
  std::vector<std::size_t> local_twice_edges(n, 0);
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!adjacent(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (adjacent(a, c) && adjacent(b, c)) {
          ++triangles;
          local_twice_edges[a] += 2;
          local_twice_edges[b] += 2;
          local_twice_edges[c] += 2;
        }
      }
    }
  }
  EXPECT_EQ(TriangleCount(*g), triangles);

  std::size_t wedges = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t d = g->Degree(v);
    wedges += d * (d - 1) / 2;
  }
  const double want_gcc =
      wedges == 0 ? 0.0
                  : static_cast<double>(3 * triangles) /
                        static_cast<double>(wedges);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(*g), want_gcc);

  const std::vector<double> local = LocalClusteringCoefficients(*g);
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t d = g->Degree(v);
    const double want =
        d < 2 ? 0.0
              : static_cast<double>(local_twice_edges[v]) /
                    (static_cast<double>(d) * static_cast<double>(d - 1));
    EXPECT_DOUBLE_EQ(local[v], want) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsRowSweep, ::testing::Range(0, 6));

TEST(MetricsTest, DegreeAssortativity) {
  // Star graph: hub degree n-1, leaves degree 1 -> strongly disassortative.
  Graph star = MakeGraph(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  EXPECT_LT(DegreeAssortativity(star), -0.9);
  // Regular graph (cycle): correlation undefined -> 0 by convention.
  Graph cycle = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_DOUBLE_EQ(DegreeAssortativity(cycle), 0.0);
  EXPECT_DOUBLE_EQ(DegreeAssortativity(Graph(3)), 0.0);
}

TEST(MetricsTest, BfsDistances) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}});
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(MetricsTest, DoubleSweepDiameter) {
  Graph path = Path4();
  EXPECT_EQ(DoubleSweepDiameterLowerBound(path, 1), 3u);  // exact on trees
  Graph g = Triangle();
  EXPECT_EQ(DoubleSweepDiameterLowerBound(g), 1u);
  EXPECT_EQ(DoubleSweepDiameterLowerBound(Graph(0)), 0u);
}

TEST(MetricsTest, ConnectedComponents) {
  Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  const ComponentLabeling labeling = ConnectedComponents(g);
  EXPECT_EQ(labeling.num_components, 3u);
  EXPECT_EQ(labeling.label[0], labeling.label[1]);
  EXPECT_EQ(labeling.label[1], labeling.label[2]);
  EXPECT_EQ(labeling.label[3], labeling.label[4]);
  EXPECT_NE(labeling.label[0], labeling.label[3]);
  EXPECT_NE(labeling.label[3], labeling.label[5]);
  EXPECT_EQ(LargestComponentSize(g), 3u);
}

}  // namespace
}  // namespace scpm
