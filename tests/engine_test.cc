// Tests for the frontier-driven engine and its sinks: accumulating-sink
// byte-identity against the classic Mine() across thread counts and
// kernel toggles, budget cut + checkpoint + resume output-union equality
// (paper example and randomized synthetic graphs, both phases), cut
// points of the default work-sized waves across thread counts, child
// tidsets built by occurrence deliver, deadline behavior, checkpoint
// (de)serialization robustness, and the streaming sinks' contracts.

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/occurrence.h"
#include "core/scpm.h"
#include "core/sink.h"
#include "datasets/paper_example.h"
#include "graph/attributed_graph.h"
#include "nullmodel/expectation.h"
#include "util/hybrid_set.h"
#include "util/random.h"

namespace scpm {
namespace {

/// Paper parameters for Table 1 (see scpm_test.cc).
ScpmOptions Table1Options() {
  ScpmOptions o;
  o.quasi_clique.gamma = 0.6;
  o.quasi_clique.min_size = 4;
  o.min_support = 3;
  o.min_epsilon = 0.5;
  o.top_k = 10;
  return o;
}

/// Random attributed graph: ER topology + random attribute incidence.
AttributedGraph RandomAttributed(int seed, VertexId n = 24,
                                 int num_attrs = 5, double edge_p = 0.3,
                                 double attr_p = 0.4) {
  Rng rng(seed);
  AttributedGraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < edge_p) builder.AddEdge(u, v);
    }
  }
  for (int a = 0; a < num_attrs; ++a) {
    const AttributeId id =
        builder.InternAttribute(std::string("a").append(std::to_string(a)));
    for (VertexId v = 0; v < n; ++v) {
      if (rng.NextDouble() < attr_p) {
        EXPECT_TRUE(builder.AddVertexAttribute(v, id).ok());
      }
    }
  }
  Result<AttributedGraph> g = builder.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// The lattice and set-kernel counters: a function of the input and the
/// options alone, so equal for any thread count and, summed over the
/// segments, for any cut-and-resume chain. The quasi-clique work
/// counters are not (see ExpectSameWork).
void ExpectSameCounters(const ScpmCounters& a, const ScpmCounters& b) {
  EXPECT_EQ(a.attribute_sets_evaluated, b.attribute_sets_evaluated);
  EXPECT_EQ(a.attribute_sets_reported, b.attribute_sets_reported);
  EXPECT_EQ(a.attribute_sets_extended, b.attribute_sets_extended);
  EXPECT_EQ(a.intra_search_evaluations, b.intra_search_evaluations);
  EXPECT_EQ(a.bitmap_intersections, b.bitmap_intersections);
  EXPECT_EQ(a.galloping_intersections, b.galloping_intersections);
  EXPECT_EQ(a.dense_conversions, b.dense_conversions);
}

/// Field-by-field equality of complete mining outputs plus the lattice
/// and set-kernel counters (mirrors scpm_test.cc's harness).
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
    EXPECT_EQ(a.patterns[i].attributes, b.patterns[i].attributes) << i;
    EXPECT_EQ(a.patterns[i].vertices, b.patterns[i].vertices) << i;
    EXPECT_DOUBLE_EQ(a.patterns[i].min_degree_ratio,
                     b.patterns[i].min_degree_ratio);
    EXPECT_DOUBLE_EQ(a.patterns[i].edge_density, b.patterns[i].edge_density);
  }
  ExpectSameCounters(a.counters, b.counters);
}

/// The quasi-clique work counters: exact per run, but with a pool they
/// depend on how intra-search tasks were scheduled, so they are compared
/// only between runs without one (num_threads 1).
void ExpectSameWork(const ScpmResult& a, const ScpmResult& b) {
  EXPECT_EQ(a.counters.coverage_candidates, b.counters.coverage_candidates);
  EXPECT_EQ(a.counters.intra_branch_tasks, b.counters.intra_branch_tasks);
}

/// Runs the engine with an AccumulatingSink; must exhaust.
ScpmResult EngineAccumulate(const AttributedGraph& g,
                            const ScpmOptions& options,
                            ExpectationModel* model = nullptr) {
  ScpmEngine engine(options, model);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  EXPECT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->exhausted);
  ScpmResult result = sink.TakeResult();
  result.counters = run->counters;
  return result;
}

// ----------------------------------------- sink equivalence (satellite)

/// AccumulatingSink through the engine == legacy Mine(), byte for byte,
/// across threads {1, 2, 8} x {hybrid on, off}. Each cell is compared
/// against that cell's own Mine() (counters differ between kernel
/// configurations by design), and every cell's rows/patterns are
/// compared against the global default baseline.
TEST(SinkEquivalenceTest, AccumulatingMatchesMineAcrossTogglesAndThreads) {
  const AttributedGraph g = RandomAttributed(31, /*n=*/120, /*num_attrs=*/4,
                                             /*edge_p=*/0.08, /*attr_p=*/0.6);
  ScpmOptions base;
  base.quasi_clique.gamma = 0.6;
  base.quasi_clique.min_size = 3;
  base.min_support = 4;
  base.min_epsilon = 0.05;
  base.top_k = 3;

  const ScpmResult global_baseline = EngineAccumulate(g, base);
  ASSERT_FALSE(global_baseline.attribute_sets.empty());

  for (bool hybrid : {true, false}) {
    ScpmOptions cell = base;
    cell.use_hybrid_sets = hybrid;
    cell.num_threads = 1;
    ScpmMiner legacy(cell);
    Result<ScpmResult> mined = legacy.Mine(g);
    ASSERT_TRUE(mined.ok()) << mined.status();
    for (std::size_t threads : {1u, 2u, 8u}) {
      ScpmOptions run_options = cell;
      run_options.num_threads = threads;
      const ScpmResult engine_result = EngineAccumulate(g, run_options);
      ExpectIdenticalResults(*mined, engine_result);
      if (threads == 1) ExpectSameWork(*mined, engine_result);
    }
    // Rows and patterns (not counters) also match the default cell.
    ASSERT_EQ(mined->attribute_sets.size(),
              global_baseline.attribute_sets.size());
    ASSERT_EQ(mined->patterns.size(), global_baseline.patterns.size());
    for (std::size_t i = 0; i < mined->patterns.size(); ++i) {
      EXPECT_EQ(mined->patterns[i].vertices,
                global_baseline.patterns[i].vertices);
    }
  }
}

// ---------------------------------------------- budget / cut / resume

/// Sorts a union of segment outputs into canonical order for comparison
/// against an uncut run.
void SortCanonical(ScpmResult* result) {
  std::sort(result->attribute_sets.begin(), result->attribute_sets.end(),
            [](const AttributeSetStats& a, const AttributeSetStats& b) {
              return a.attributes < b.attributes;
            });
  SortPatterns(&result->patterns);
}

/// Runs budget-cut segments (Run, then Resume until exhausted, each
/// segment round-tripping the checkpoint through its serialization) and
/// returns the union of everything emitted, with the segments' summed
/// counters, plus the segment count.
std::pair<ScpmResult, int> RunSegmented(const AttributedGraph& g,
                                        const ScpmOptions& options,
                                        const EngineBudget& budget,
                                        ExpectationModel* model = nullptr) {
  ScpmResult united;
  int segments = 0;
  EngineCheckpoint checkpoint;
  bool exhausted = false;
  while (!exhausted) {
    ScpmEngine engine(options, model);
    engine.set_budget(budget);
    AccumulatingSink sink;
    Result<MiningRun> run =
        segments == 0 ? engine.Run(g, &sink)
                      : engine.Resume(g, checkpoint, &sink);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) break;
    ScpmResult segment = sink.TakeResult();
    EXPECT_EQ(segment.attribute_sets.size(), run->emitted);
    united.counters.MergeFrom(run->counters);
    for (auto& s : segment.attribute_sets) {
      united.attribute_sets.push_back(std::move(s));
    }
    for (auto& p : segment.patterns) united.patterns.push_back(std::move(p));
    ++segments;
    exhausted = run->exhausted;
    if (!exhausted) {
      EXPECT_GT(run->frontier_entries, 0u);
      // Serialization round trip, exactly like a cross-process resume.
      Result<EngineCheckpoint> restored =
          EngineCheckpoint::Parse(run->checkpoint.Serialize());
      EXPECT_TRUE(restored.ok()) << restored.status();
      if (!restored.ok()) break;
      checkpoint = std::move(restored).value();
    }
    EXPECT_LT(segments, 10000) << "resume chain does not terminate";
    if (segments >= 10000) break;
  }
  SortCanonical(&united);
  return {std::move(united), segments};
}

void ExpectSameUnion(const ScpmResult& uncut_in, ScpmResult united) {
  ScpmResult uncut;
  uncut.attribute_sets = uncut_in.attribute_sets;
  uncut.patterns = uncut_in.patterns;
  SortCanonical(&uncut);
  // Exact multiset equality: same rows once each (no duplicates across
  // segments), same patterns.
  ASSERT_EQ(united.attribute_sets.size(), uncut.attribute_sets.size());
  for (std::size_t i = 0; i < uncut.attribute_sets.size(); ++i) {
    EXPECT_EQ(united.attribute_sets[i].attributes,
              uncut.attribute_sets[i].attributes);
    EXPECT_EQ(united.attribute_sets[i].support,
              uncut.attribute_sets[i].support);
    EXPECT_EQ(united.attribute_sets[i].covered,
              uncut.attribute_sets[i].covered);
    EXPECT_DOUBLE_EQ(united.attribute_sets[i].epsilon,
                     uncut.attribute_sets[i].epsilon);
  }
  ASSERT_EQ(united.patterns.size(), uncut.patterns.size());
  for (std::size_t i = 0; i < uncut.patterns.size(); ++i) {
    EXPECT_EQ(united.patterns[i].attributes, uncut.patterns[i].attributes);
    EXPECT_EQ(united.patterns[i].vertices, uncut.patterns[i].vertices);
  }
}

TEST(CheckpointResumeTest, EvalBudgetUnionEqualsUncutOnPaperExample) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  const ScpmResult uncut = EngineAccumulate(g, options);

  EngineBudget budget;
  budget.max_evaluations = 2;
  auto [united, segments] = RunSegmented(g, options, budget);
  EXPECT_GE(segments, 2) << "budget never cut the run";
  ExpectSameCounters(uncut.counters, united.counters);
  ExpectSameUnion(uncut, std::move(united));
}

/// The roots phase checkpoints too: with a one-evaluation budget the cut
/// lands while frequent singletons are still pending, exercising the
/// roots-phase serialization and the done-root carryover.
TEST(CheckpointResumeTest, RootsPhaseCheckpointRoundTrips) {
  const AttributedGraph g = RandomAttributed(5, /*n=*/40, /*num_attrs=*/8,
                                             /*edge_p=*/0.25, /*attr_p=*/0.5);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.0;
  options.top_k = 2;
  const ScpmResult uncut = EngineAccumulate(g, options);

  // First segment by hand so the roots-phase checkpoint can be asserted.
  ScpmEngine engine(options);
  EngineBudget budget;
  budget.max_evaluations = 1;
  engine.set_budget(budget);
  AccumulatingSink first_sink;
  Result<MiningRun> first = engine.Run(g, &first_sink);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->exhausted);
  EXPECT_TRUE(first->checkpoint.in_roots_phase);
  EXPECT_FALSE(first->checkpoint.root_batches.empty());

  auto [united, segments] = RunSegmented(g, options, budget);
  EXPECT_GT(segments, 2);
  ExpectSameCounters(uncut.counters, united.counters);
  ExpectSameUnion(uncut, std::move(united));
}

/// Root-order fixture for a graph with a spread of singleton supports.
/// min_epsilon 0 makes every root extendable, so every evaluated root
/// shows up in a roots-phase checkpoint's done_roots.
ScpmOptions RootOrderOptions() {
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.0;
  options.top_k = 2;
  return options;
}

/// Cuts `g` after `evals` root evaluations (one wave, filled to the
/// budget with one root per entry).
MiningRun CutInRoots(const AttributedGraph& g, const ScpmOptions& options,
                     std::uint64_t evals, ScpmResult* emitted) {
  ScpmEngine engine(options);
  EngineBudget budget;
  budget.max_evaluations = evals;
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  EXPECT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->exhausted);
  EXPECT_TRUE(run->checkpoint.in_roots_phase);
  *emitted = sink.TakeResult();
  return std::move(run).value();
}

/// Singletons have no parents, so the engine starts the heaviest roots
/// first: a roots-phase cut after k root evaluations has evaluated
/// exactly the k singletons with the largest tidsets (ties by attribute
/// order), and the cut plus its resume is still the uncut run.
TEST(RootOrderTest, RootsPhaseCutEvaluatesHeaviestSingletonsFirst) {
  const AttributedGraph g = RandomAttributed(5, /*n=*/40, /*num_attrs=*/8,
                                             /*edge_p=*/0.25, /*attr_p=*/0.5);
  const ScpmOptions options = RootOrderOptions();
  std::vector<std::pair<std::size_t, AttributeId>> singles;
  for (AttributeId a = 0; a < g.NumAttributes(); ++a) {
    const std::size_t support = g.VerticesWith(a).size();
    if (support >= options.min_support) singles.emplace_back(support, a);
  }
  std::sort(singles.begin(), singles.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  constexpr std::size_t kCut = 3;
  ASSERT_GT(singles.size(), kCut);
  // The heaviest roots are not simply the first attributes.
  ASSERT_NE(singles[0].second, 0u);

  ScpmResult first;
  const MiningRun run = CutInRoots(g, options, kCut, &first);
  std::vector<AttributeId> done;
  for (const EngineCheckpoint::DoneRoot& dr : run.checkpoint.done_roots) {
    done.push_back(dr.attr);
  }
  std::vector<AttributeId> heaviest;
  for (std::size_t k = 0; k < kCut; ++k) heaviest.push_back(singles[k].second);
  std::sort(done.begin(), done.end());
  std::sort(heaviest.begin(), heaviest.end());
  EXPECT_EQ(done, heaviest);

  EngineBudget budget;
  budget.max_evaluations = kCut;
  auto [united, segments] = RunSegmented(g, options, budget);
  EXPECT_GT(segments, 1);
  const ScpmResult uncut = EngineAccumulate(g, options);
  ExpectSameCounters(uncut.counters, united.counters);
  ExpectSameUnion(uncut, std::move(united));
}

/// A roots-phase checkpoint whose pending batches are in attribute order
/// (as every checkpoint was before roots ran largest first) resumes to
/// the uncut output: the resume puts the batches in weight order itself.
TEST(RootOrderTest, ResumesAttributeOrderedRootsCheckpoint) {
  const AttributedGraph g = RandomAttributed(5, /*n=*/40, /*num_attrs=*/8,
                                             /*edge_p=*/0.25, /*attr_p=*/0.5);
  const ScpmOptions options = RootOrderOptions();
  ScpmResult united;
  const MiningRun run = CutInRoots(g, options, /*evals=*/2, &united);
  Result<EngineCheckpoint> cp =
      EngineCheckpoint::Parse(run.checkpoint.Serialize());
  ASSERT_TRUE(cp.ok()) << cp.status();
  const auto by_index = [](const EngineCheckpoint::PendingRootBatch& a,
                           const EngineCheckpoint::PendingRootBatch& b) {
    return a.indices.front() < b.indices.front();
  };
  ASSERT_FALSE(std::is_sorted(cp->root_batches.begin(),
                              cp->root_batches.end(), by_index));
  std::sort(cp->root_batches.begin(), cp->root_batches.end(), by_index);

  ScpmEngine engine(options);
  AccumulatingSink sink;
  Result<MiningRun> rest = engine.Resume(g, *cp, &sink);
  ASSERT_TRUE(rest.ok()) << rest.status();
  EXPECT_TRUE(rest->exhausted);
  ScpmResult tail = sink.TakeResult();
  for (auto& s : tail.attribute_sets) {
    united.attribute_sets.push_back(std::move(s));
  }
  for (auto& p : tail.patterns) united.patterns.push_back(std::move(p));
  SortCanonical(&united);
  ExpectSameUnion(EngineAccumulate(g, options), std::move(united));
}

/// A roots-phase checkpoint whose pending batch holds two singletons, as
/// engines that packed several roots into one entry wrote them, resumes
/// as one root entry per singleton: the cut plus the resume equals the
/// uncut run, rows and summed counters alike.
TEST(RootOrderTest, ResumesTwoSingletonRootBatch) {
  const AttributedGraph g = RandomAttributed(5, /*n=*/40, /*num_attrs=*/8,
                                             /*edge_p=*/0.25, /*attr_p=*/0.5);
  const ScpmOptions options = RootOrderOptions();
  ScpmResult united;
  const MiningRun run = CutInRoots(g, options, /*evals=*/2, &united);
  EngineCheckpoint cp = run.checkpoint;
  ASSERT_GE(cp.root_batches.size(), 2u);
  for (const EngineCheckpoint::PendingRootBatch& batch : cp.root_batches) {
    ASSERT_EQ(batch.indices.size(), 1u);
  }
  // Fold the second pending singleton into the first batch, in emission
  // index order, as a packed batch listed its singletons.
  EngineCheckpoint::PendingRootBatch pair;
  for (std::size_t b : {0u, 1u}) {
    pair.indices.push_back(cp.root_batches[b].indices[0]);
    pair.attrs.push_back(cp.root_batches[b].attrs[0]);
  }
  if (pair.indices[0] > pair.indices[1]) {
    std::swap(pair.indices[0], pair.indices[1]);
    std::swap(pair.attrs[0], pair.attrs[1]);
  }
  cp.root_batches.erase(cp.root_batches.begin(), cp.root_batches.begin() + 2);
  cp.root_batches.push_back(std::move(pair));
  Result<EngineCheckpoint> parsed = EngineCheckpoint::Parse(cp.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->root_batches.back().indices.size(), 2u);

  ScpmEngine engine(options);
  AccumulatingSink sink;
  Result<MiningRun> rest = engine.Resume(g, *parsed, &sink);
  ASSERT_TRUE(rest.ok()) << rest.status();
  EXPECT_TRUE(rest->exhausted);
  ScpmCounters summed = run.counters;
  summed.MergeFrom(rest->counters);
  ScpmResult tail = sink.TakeResult();
  for (auto& s : tail.attribute_sets) {
    united.attribute_sets.push_back(std::move(s));
  }
  for (auto& p : tail.patterns) united.patterns.push_back(std::move(p));
  SortCanonical(&united);
  const ScpmResult uncut = EngineAccumulate(g, options);
  ExpectSameCounters(uncut.counters, summed);
  ExpectSameUnion(uncut, std::move(united));
}

class ResumeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ResumeSweep, UnionEqualsUncutOnRandomGraphs) {
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
  const ScpmResult uncut = EngineAccumulate(g, options, &model);

  for (std::uint64_t max_evals : {1u, 3u, 7u}) {
    for (std::size_t threads : {1u, 4u}) {
      ScpmOptions cell = options;
      cell.num_threads = threads;
      EngineBudget budget;
      budget.max_evaluations = max_evals;
      auto [united, segments] =
          RunSegmented(g, cell, budget, &model);
      EXPECT_GE(segments, 2) << "budget never cut the run";
      ExpectSameCounters(uncut.counters, united.counters);
      ExpectSameUnion(uncut, std::move(united));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResumeSweep, ::testing::Range(0, 4));

TEST(CheckpointResumeTest, PatternBudgetCutsAndResumes) {
  const AttributedGraph g = RandomAttributed(9, /*n=*/40, /*num_attrs=*/6,
                                             /*edge_p=*/0.3, /*attr_p=*/0.5);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.0;
  options.top_k = 3;
  const ScpmResult uncut = EngineAccumulate(g, options);
  ASSERT_GT(uncut.patterns.size(), 4u);

  EngineBudget budget;
  budget.max_patterns = 2;
  auto [united, segments] = RunSegmented(g, options, budget);
  EXPECT_GE(segments, 2);
  ExpectSameCounters(uncut.counters, united.counters);
  ExpectSameUnion(uncut, std::move(united));
}

/// Perf knobs may change between a cut and its resume: hybrid storage is
/// not part of the checkpoint binding (the hybrid contract makes it
/// unobservable in output), so a run cut with hybrid sets on resumes
/// with them off — and the union still matches, as does a pure
/// hybrid-off chain.
TEST(CheckpointResumeTest, ResumeAcrossHybridToggle) {
  const AttributedGraph g = RandomAttributed(17, /*n=*/40, /*num_attrs=*/5,
                                             /*edge_p=*/0.3, /*attr_p=*/0.5);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.1;
  options.top_k = 3;
  const ScpmResult uncut = EngineAccumulate(g, options);

  ScpmOptions off = options;
  off.use_hybrid_sets = false;
  EngineBudget budget;
  budget.max_evaluations = 3;
  auto [united_off, segments_off] = RunSegmented(g, off, budget);
  EXPECT_GE(segments_off, 2);
  ExpectSameCounters(EngineAccumulate(g, off).counters, united_off.counters);
  ExpectSameUnion(uncut, std::move(united_off));

  // Cut with hybrid on, resume everything with hybrid off.
  ScpmEngine on_engine(options);
  on_engine.set_budget(budget);
  AccumulatingSink first_sink;
  Result<MiningRun> first = on_engine.Run(g, &first_sink);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->exhausted);
  ScpmResult united = first_sink.TakeResult();
  ScpmEngine off_engine(off);
  AccumulatingSink rest_sink;
  Result<MiningRun> rest =
      off_engine.Resume(g, first->checkpoint, &rest_sink);
  ASSERT_TRUE(rest.ok()) << rest.status();
  ASSERT_TRUE(rest->exhausted);
  ScpmResult tail = rest_sink.TakeResult();
  for (auto& s : tail.attribute_sets) {
    united.attribute_sets.push_back(std::move(s));
  }
  for (auto& p : tail.patterns) united.patterns.push_back(std::move(p));
  SortCanonical(&united);
  ExpectSameUnion(uncut, std::move(united));
}

/// A chain whose resumed sets are dense: with 96 vertices and tidsets
/// around half of them, the roots' tidsets and the carried covered sets
/// are bitmaps, so counting their rebuild on resume would add dense
/// conversions. Every resume seeds uncounted, so the summed counters
/// still equal the uncut run's, for cuts in both phases.
TEST(CheckpointResumeTest, DenseResumeChainCountersMatchUncut) {
  const AttributedGraph g = RandomAttributed(23, /*n=*/96, /*num_attrs=*/6,
                                             /*edge_p=*/0.15, /*attr_p=*/0.5);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 5;
  options.min_epsilon = 0.0;
  options.top_k = 2;
  const ScpmResult uncut = EngineAccumulate(g, options);
  ASSERT_GT(uncut.counters.dense_conversions, 0u);

  for (std::uint64_t max_evals : {1u, 4u}) {
    EngineBudget budget;
    budget.max_evaluations = max_evals;
    auto [united, segments] = RunSegmented(g, options, budget);
    EXPECT_GT(segments, 2);
    ExpectSameCounters(uncut.counters, united.counters);
    ExpectSameUnion(uncut, std::move(united));
  }
}

/// A deadline cut behaves like any other cut: whatever was emitted plus
/// a resume-to-exhaustion equals the uncut run. (Whether the deadline
/// actually fires depends on machine speed; the union property must hold
/// either way.)
TEST(CheckpointResumeTest, DeadlineCutResumesToSameUnion) {
  const AttributedGraph g = RandomAttributed(13, /*n=*/60, /*num_attrs=*/6,
                                             /*edge_p=*/0.25, /*attr_p=*/0.5);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.0;
  options.top_k = 3;
  options.num_threads = 2;
  const ScpmResult uncut = EngineAccumulate(g, options);

  ScpmEngine engine(options);
  EngineBudget budget;
  budget.deadline_ms = 1;
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> first = engine.Run(g, &sink);
  ASSERT_TRUE(first.ok()) << first.status();
  ScpmResult united = sink.TakeResult();
  EngineCheckpoint checkpoint = first->checkpoint;
  bool exhausted = first->exhausted;
  int guard = 0;
  while (!exhausted && guard++ < 1000) {
    ScpmEngine next(options);  // no budget: finish in one segment
    AccumulatingSink seg_sink;
    Result<MiningRun> run = next.Resume(g, checkpoint, &seg_sink);
    ASSERT_TRUE(run.ok()) << run.status();
    ScpmResult segment = seg_sink.TakeResult();
    for (auto& s : segment.attribute_sets) {
      united.attribute_sets.push_back(std::move(s));
    }
    for (auto& p : segment.patterns) united.patterns.push_back(std::move(p));
    checkpoint = run->checkpoint;
    exhausted = run->exhausted;
  }
  SortCanonical(&united);
  ExpectSameUnion(uncut, std::move(united));
}

// ------------------------------------------- wave sizing and cut points

/// What one segment of a budget-cut chain left behind: its evaluation
/// count and, when cut, its serialized checkpoint.
struct CutSegment {
  std::uint64_t evaluated = 0;
  std::string checkpoint;
};

/// Runs a budget-cut chain to exhaustion with the engine's mass-sized
/// waves, returning the union and the summed counters
/// plus each segment's cut point. Every wave, read off the progress hook,
/// must evaluate fewer sets than what was left of the budget when it
/// started plus `entry_mass`, a bound on one frontier entry's mass.
std::pair<ScpmResult, std::vector<CutSegment>> RunDefaultWaveChain(
    const AttributedGraph& g, const ScpmOptions& options,
    const EngineBudget& budget, std::uint64_t entry_mass) {
  ScpmResult united;
  std::vector<CutSegment> segments;
  EngineCheckpoint checkpoint;
  while (segments.size() < 10000) {
    ScpmEngine engine(options);
    engine.set_budget(budget);
    EngineProgress before;
    engine.set_progress([&](const EngineProgress& p) {
      const std::uint64_t left =
          budget.max_evaluations != 0
              ? budget.max_evaluations - before.evaluations
              : budget.max_patterns - before.patterns_emitted;
      EXPECT_LT(p.evaluations - before.evaluations, left + entry_mass);
      before = p;
    });
    AccumulatingSink sink;
    Result<MiningRun> run = segments.empty()
                                ? engine.Run(g, &sink)
                                : engine.Resume(g, checkpoint, &sink);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) break;
    ScpmResult segment = sink.TakeResult();
    united.counters.MergeFrom(run->counters);
    for (auto& s : segment.attribute_sets) {
      united.attribute_sets.push_back(std::move(s));
    }
    for (auto& p : segment.patterns) united.patterns.push_back(std::move(p));
    CutSegment cut;
    cut.evaluated = run->counters.attribute_sets_evaluated;
    if (!run->exhausted) cut.checkpoint = run->checkpoint.Serialize();
    segments.push_back(cut);
    if (run->exhausted) break;
    Result<EngineCheckpoint> restored = EngineCheckpoint::Parse(cut.checkpoint);
    EXPECT_TRUE(restored.ok()) << restored.status();
    if (!restored.ok()) break;
    checkpoint = std::move(restored).value();
  }
  SortCanonical(&united);
  return {std::move(united), std::move(segments)};
}

/// A lattice with a few levels: 8 attributes on 40 vertices.
ScpmOptions WaveOptions() {
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.0;
  options.top_k = 3;
  return options;
}

/// The frequent-singleton count. It bounds every entry's evaluations: a
/// root entry makes one, and a class never has more members than the
/// root class.
std::uint64_t FrequentSingletons(const AttributedGraph& g,
                                 const ScpmOptions& options) {
  std::uint64_t singles = 0;
  for (AttributeId a = 0; a < g.NumAttributes(); ++a) {
    if (g.VerticesWith(a).size() >= options.min_support) ++singles;
  }
  return singles;
}

/// With the default work-sized waves, a budget cut lands at the same
/// point (evaluation count and checkpoint bytes, segment by segment) for
/// every thread count, overshoots the budget by less than one entry's
/// mass, and the chain's union and summed counters equal the uncut run.
void ExpectDefaultWaveCutsDeterministic(const EngineBudget& budget) {
  const AttributedGraph g = RandomAttributed(5, /*n=*/40, /*num_attrs=*/8,
                                             /*edge_p=*/0.25, /*attr_p=*/0.5);
  const ScpmOptions options = WaveOptions();
  const ScpmResult uncut = EngineAccumulate(g, options);
  const std::uint64_t mass = FrequentSingletons(g, options);
  std::vector<CutSegment> reference;
  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ScpmOptions cell = options;
    cell.num_threads = threads;
    auto [united, segments] = RunDefaultWaveChain(g, cell, budget, mass);
    ASSERT_GE(segments.size(), 3u) << "budget never cut the run";
    if (budget.max_evaluations != 0) {
      for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
        EXPECT_GE(segments[s].evaluated, budget.max_evaluations);
        EXPECT_LT(segments[s].evaluated, budget.max_evaluations + mass);
      }
    }
    if (threads == 1) {
      reference = segments;
    } else {
      ASSERT_EQ(segments.size(), reference.size());
      for (std::size_t s = 0; s < segments.size(); ++s) {
        EXPECT_EQ(segments[s].evaluated, reference[s].evaluated) << s;
        EXPECT_EQ(segments[s].checkpoint, reference[s].checkpoint) << s;
      }
    }
    ExpectSameCounters(uncut.counters, united.counters);
    ExpectSameUnion(uncut, std::move(united));
  }
}

TEST(WaveCutTest, EvalBudgetCutsAreThreadIndependentWithDefaultWaves) {
  for (std::uint64_t max_evals : {2u, 9u, 40u}) {
    SCOPED_TRACE("max_evaluations " + std::to_string(max_evals));
    EngineBudget budget;
    budget.max_evaluations = max_evals;
    ExpectDefaultWaveCutsDeterministic(budget);
  }
}

TEST(WaveCutTest, PatternBudgetCutsAreThreadIndependentWithDefaultWaves) {
  for (std::uint64_t max_patterns : {1u, 6u}) {
    SCOPED_TRACE("max_patterns " + std::to_string(max_patterns));
    EngineBudget budget;
    budget.max_patterns = max_patterns;
    ExpectDefaultWaveCutsDeterministic(budget);
  }
}

// ------------------------------------------------- occurrence deliver

/// Walks every frequent class below `cls` (members in `items` with their
/// tidsets), building each member's children by occurrence deliver, and
/// checks every child tidset against the graph's own V(S). Counts the
/// members delivered from a dense tidset.
void WalkAndCheckChildren(const AttributedGraph& g, VertexId universe,
                          std::size_t min_support,
                          const std::vector<AttributeSet>& items,
                          const std::vector<HybridVertexSet>& tidsets,
                          OccurrenceDeliver* deliver,
                          std::size_t* dense_parents, std::size_t* children) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (tidsets[i].dense()) ++*dense_parents;
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      deliver->AddItem(items[j].back());
    }
    deliver->Deliver(g, tidsets[i]);
    std::vector<AttributeSet> child_items;
    std::vector<HybridVertexSet> child_tidsets;
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      AttributeSet child = items[i];
      child.push_back(items[j].back());
      const VertexSet& bucket = deliver->bucket(j - i - 1);
      EXPECT_EQ(bucket, g.VerticesWithAll(child));
      ++*children;
      if (bucket.size() < min_support) continue;
      child_items.push_back(std::move(child));
      child_tidsets.push_back(
          HybridVertexSet::FromVector(bucket, universe, nullptr));
    }
    deliver->Clear();
    WalkAndCheckChildren(g, universe, min_support, child_items, child_tidsets,
                         deliver, dense_parents, children);
  }
}

/// Every child tidset occurrence deliver builds equals
/// VerticesWithAll(items), over whole lattices of the randomized engine
/// graphs, with hybrid storage on (dense parents iterated as bitmaps) and
/// off. The engine's rows agree: every reported support is |V(S)|.
TEST(OccurrenceDeliverTest, ChildTidsetsEqualVerticesWithAll) {
  struct Shape {
    int seed;
    VertexId n;
    int attrs;
    double edge_p;
    double attr_p;
  };
  // The graphs of the resume, dense-chain and sink-equivalence tests.
  for (const Shape& shape :
       {Shape{5, 40, 8, 0.25, 0.5}, Shape{23, 96, 6, 0.15, 0.5},
        Shape{31, 120, 4, 0.08, 0.6}, Shape{3, 30, 5, 0.3, 0.4}}) {
    const AttributedGraph g = RandomAttributed(
        shape.seed, shape.n, shape.attrs, shape.edge_p, shape.attr_p);
    for (bool hybrid : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(shape.seed) + " hybrid " +
                   std::to_string(hybrid));
      const VertexId universe = hybrid ? g.NumVertices() : 0;
      std::vector<AttributeSet> roots;
      std::vector<HybridVertexSet> tidsets;
      for (AttributeId a = 0; a < g.NumAttributes(); ++a) {
        if (g.VerticesWith(a).size() < 3) continue;
        roots.push_back({a});
        tidsets.push_back(HybridVertexSet::View(&g.VerticesWith(a), universe));
        tidsets.back().Normalize(nullptr);
      }
      OccurrenceDeliver deliver(g.NumAttributes());
      std::size_t dense_parents = 0;
      std::size_t children = 0;
      WalkAndCheckChildren(g, universe, /*min_support=*/3, roots, tidsets,
                           &deliver, &dense_parents, &children);
      EXPECT_GT(children, roots.size());
      if (!hybrid) {
        EXPECT_EQ(dense_parents, 0u);
      } else if (shape.n >= 96) {
        EXPECT_GT(dense_parents, 0u);
      }

      ScpmOptions options = WaveOptions();
      options.use_hybrid_sets = hybrid;
      const ScpmResult mined = EngineAccumulate(g, options);
      ASSERT_FALSE(mined.attribute_sets.empty());
      for (const AttributeSetStats& row : mined.attribute_sets) {
        EXPECT_EQ(row.support, g.VerticesWithAll(row.attributes).size());
      }
    }
  }
}

// ------------------------------------------------ checkpoint validation

TEST(CheckpointTest, SerializationRoundTripsExactly) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  ScpmEngine engine(options);
  EngineBudget budget;
  budget.max_evaluations = 2;
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->exhausted);
  const std::string text = run->checkpoint.Serialize();
  Result<EngineCheckpoint> parsed = EngineCheckpoint::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Serialize(), text);
}

TEST(CheckpointTest, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(EngineCheckpoint::Parse("").ok());
  EXPECT_FALSE(EngineCheckpoint::Parse("not a checkpoint").ok());
  EXPECT_FALSE(EngineCheckpoint::Parse("scpm-checkpoint 99\n").ok());

  const AttributedGraph g = PaperExampleGraph();
  ScpmEngine engine(Table1Options());
  EngineBudget budget;
  budget.max_evaluations = 2;
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->exhausted);
  const std::string text = run->checkpoint.Serialize();
  // Every truncation of a valid checkpoint must fail to parse cleanly.
  for (std::size_t cut : {std::size_t{1}, text.size() / 2, text.size() - 2}) {
    EXPECT_FALSE(EngineCheckpoint::Parse(text.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(CheckpointTest, ResumeRejectsMalformedCoveredSets) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  ScpmEngine engine(options);
  EngineBudget budget;
  // Cut where the roots end, so the checkpoint holds a class.
  budget.max_evaluations = FrequentSingletons(g, options);
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->exhausted);
  ASSERT_FALSE(run->checkpoint.classes.empty());
  ASSERT_FALSE(run->checkpoint.classes[0].members.empty());

  EngineCheckpoint out_of_range = run->checkpoint;
  out_of_range.classes[0].members[0].covered = {99999};  // 11-vertex graph
  AccumulatingSink s1;
  EXPECT_FALSE(ScpmEngine(options).Resume(g, out_of_range, &s1).ok());

  EngineCheckpoint unsorted = run->checkpoint;
  unsorted.classes[0].members[0].covered = {5, 3};
  AccumulatingSink s2;
  EXPECT_FALSE(ScpmEngine(options).Resume(g, unsorted, &s2).ok());
}

/// A member attribute set repeated within one class or across classes
/// is a typed kInvalidArgument at resume, never an abort: two classes
/// sharing one covered-set cache slot would evict it under each other.
TEST(CheckpointTest, ResumeRejectsDuplicateMemberAttributeSets) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  ScpmEngine engine(options);
  EngineBudget budget;
  // Cut where the roots end, so the checkpoint holds a class.
  budget.max_evaluations = FrequentSingletons(g, options);
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->exhausted);
  Result<EngineCheckpoint> cold =
      EngineCheckpoint::Parse(run->checkpoint.Serialize());
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_FALSE(cold->classes.empty());
  ASSERT_FALSE(cold->expansions.empty());

  EngineCheckpoint across = *cold;
  const EngineCheckpoint::PendingClass copy =
      across.classes[across.expansions[0].class_index];
  across.classes.push_back(copy);
  across.expansions[0].class_index =
      static_cast<std::uint32_t>(across.classes.size() - 1);

  EngineCheckpoint within = *cold;
  within.classes[0].members.push_back(within.classes[0].members[0]);

  for (const EngineCheckpoint* bad : {&across, &within}) {
    Result<EngineCheckpoint> parsed = EngineCheckpoint::Parse(bad->Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    AccumulatingSink s;
    Result<MiningRun> resumed = ScpmEngine(options).Resume(g, *parsed, &s);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
        << resumed.status();
  }
}

/// Six-vertex clique whose vertices all carry attributes 0, 1 and 2, with
/// thresholds under which every attribute set is extendable.
AttributedGraph TripleClique() {
  AttributedGraphBuilder builder(6);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) builder.AddEdge(u, v);
  }
  for (const char* name : {"a", "b", "c"}) {
    const AttributeId id = builder.InternAttribute(name);
    for (VertexId v = 0; v < 6; ++v) {
      EXPECT_TRUE(builder.AddVertexAttribute(v, id).ok());
    }
  }
  Result<AttributedGraph> g = builder.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

ScpmOptions TripleCliqueOptions() {
  ScpmOptions o;
  o.quasi_clique.gamma = 0.5;
  o.quasi_clique.min_size = 3;
  o.min_support = 1;
  o.min_epsilon = 0.0;
  return o;
}

/// A tree-phase checkpoint of TripleClique() cut right after the roots
/// phase: one class {0},{1},{2} with an expansion per member.
EngineCheckpoint TripleCliqueTreeCheckpoint() {
  ScpmEngine engine(TripleCliqueOptions());
  EngineBudget budget;
  budget.max_evaluations = 3;
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(TripleClique(), &sink);
  EXPECT_TRUE(run.ok());
  EXPECT_FALSE(run->exhausted);
  EXPECT_FALSE(run->checkpoint.in_roots_phase);
  EXPECT_EQ(run->checkpoint.classes.size(), 1u);
  return run->checkpoint;
}

/// Serializes `cp`, parses it back, and resumes it on TripleClique().
Result<MiningRun> ResumeTripleClique(const EngineCheckpoint& cp,
                                     const EngineBudget& budget) {
  Result<EngineCheckpoint> parsed = EngineCheckpoint::Parse(cp.Serialize());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) return parsed.status();
  ScpmEngine engine(TripleCliqueOptions());
  engine.set_budget(budget);
  AccumulatingSink sink;
  return engine.Resume(TripleClique(), *parsed, &sink);
}

/// A checkpoint holding both a pending expansion of {0} and a class of
/// {0}'s children ({0,1},{0,2}): the resumed run would create those
/// children a second time, and the class that finishes first would
/// evict the covered sets the other still reads.
EngineCheckpoint ChildClassBesideItsPendingParent() {
  EngineCheckpoint cp = TripleCliqueTreeCheckpoint();
  cp.expansions = {{0, 0}};
  EngineCheckpoint::PendingClass children;
  children.path = {1, 0, 1};
  for (const AttributeSet& items : {AttributeSet{0, 1}, AttributeSet{0, 2}}) {
    EngineCheckpoint::Member m;
    m.items = items;
    m.covered = {0, 1, 2, 3, 4, 5};
    children.members.push_back(std::move(m));
  }
  cp.classes.push_back(std::move(children));
  cp.expansions.push_back({1, 0});
  return cp;
}

/// Resumed to exhaustion, this checkpoint would have EvaluateNode look
/// up a parent covered set the other class already evicted ("parent
/// covered set evicted before its children finished").
TEST(CheckpointTest, ResumeRejectsClassThatPendingExpansionRecreates) {
  Result<MiningRun> resumed =
      ResumeTripleClique(ChildClassBesideItsPendingParent(), EngineBudget());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
      << resumed.status();
}

/// Cut after one wave, the same checkpoint would have BuildCheckpoint
/// look up an evicted member covered set instead ("class member covered
/// set missing at checkpoint").
TEST(CheckpointTest, ResumeRejectsOverlapBeforeCheckpointingIt) {
  EngineBudget budget;
  budget.max_evaluations = 1;
  Result<MiningRun> resumed =
      ResumeTripleClique(ChildClassBesideItsPendingParent(), budget);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
      << resumed.status();
}

/// The other shapes a valid run never writes, each a typed error.
TEST(CheckpointTest, ResumeRejectsMalformedLatticeShape) {
  const EngineCheckpoint base = TripleCliqueTreeCheckpoint();
  std::vector<EngineCheckpoint> bad;
  // The same expansion twice would create its children twice.
  bad.push_back(base);
  bad.back().expansions = {{0, 0}, {0, 0}};
  // Class members must be sorted sets with one shared prefix and
  // increasing last items.
  bad.push_back(base);
  bad.back().classes[0].members[0].items = {2, 0};
  bad.push_back(base);
  std::swap(bad.back().classes[0].members[0], bad.back().classes[0].members[1]);
  bad.push_back(base);
  bad.back().classes[0].members[2].items = {1, 2};
  // A roots-phase checkpoint must list each singleton once, indexed in
  // attribute order; attribute 0 twice puts it in the root class twice.
  bad.push_back(base);
  bad.back().in_roots_phase = true;
  bad.back().classes.clear();
  bad.back().expansions.clear();
  for (const AttributeId attr : {0u, 0u, 1u}) {
    EngineCheckpoint::DoneRoot dr;
    dr.index = static_cast<std::uint32_t>(bad.back().done_roots.size());
    dr.attr = attr;
    dr.covered = {0, 1, 2, 3, 4, 5};
    bad.back().done_roots.push_back(std::move(dr));
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    Result<MiningRun> resumed = ResumeTripleClique(bad[i], EngineBudget());
    EXPECT_FALSE(resumed.ok()) << "case " << i;
    if (resumed.ok()) continue;
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
        << "case " << i << ": " << resumed.status();
  }
}

TEST(CheckpointTest, ResumeRejectsWrongGraphOrOptions) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmOptions options = Table1Options();
  ScpmEngine engine(options);
  EngineBudget budget;
  budget.max_evaluations = 2;
  engine.set_budget(budget);
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->exhausted);

  // Different graph.
  const AttributedGraph other = RandomAttributed(1);
  ScpmEngine same_options(options);
  AccumulatingSink s1;
  EXPECT_FALSE(same_options.Resume(other, run->checkpoint, &s1).ok());

  // Different thresholds.
  ScpmOptions changed = options;
  changed.min_epsilon = 0.25;
  ScpmEngine different(changed);
  AccumulatingSink s2;
  EXPECT_FALSE(different.Resume(g, run->checkpoint, &s2).ok());

  // Perf knobs are not part of the fingerprint.
  ScpmOptions perf = options;
  perf.num_threads = 4;
  perf.intra_search_min_universe = 7;
  ScpmEngine perf_engine(perf);
  AccumulatingSink s3;
  EXPECT_TRUE(perf_engine.Resume(g, run->checkpoint, &s3).ok());
}

// ------------------------------------------------------- sink contracts

AttributeSetOutput MakeOutput(AttributeSet attrs, std::size_t support,
                              std::vector<VertexSet> pattern_sets) {
  AttributeSetOutput out;
  out.stats.attributes = attrs;
  out.stats.support = support;
  out.stats.covered = support;
  out.stats.epsilon = 1.0;
  for (VertexSet& v : pattern_sets) {
    StructuralCorrelationPattern p;
    p.attributes = attrs;
    p.vertices = std::move(v);
    p.min_degree_ratio = 0.5;
    p.edge_density = 0.5;
    out.patterns.push_back(std::move(p));
  }
  return out;
}

TEST(SinkTest, TopKPatternSinkKeepsGlobalBest) {
  TopKPatternSink sink(2);
  EXPECT_TRUE(sink.Emit({0}, MakeOutput({0}, 3, {{1, 2, 3}})).ok());
  EXPECT_TRUE(
      sink.Emit({1}, MakeOutput({1}, 5, {{1, 2, 3, 4, 5}, {2, 3}})).ok());
  EXPECT_TRUE(sink.Emit({2}, MakeOutput({2}, 4, {{1, 2, 3, 4}})).ok());
  EXPECT_EQ(sink.sets_seen(), 3u);
  const auto best = sink.best();
  ASSERT_EQ(best.size(), 2u);  // bounded at k
  EXPECT_EQ(best[0].vertices.size(), 5u);
  EXPECT_EQ(best[1].vertices.size(), 4u);
}

TEST(SinkTest, CallbackSinkForwardsAndPropagatesErrors) {
  std::vector<std::size_t> supports;
  CallbackSink ok_sink([&](const SinkKey&, const AttributeSetOutput& out) {
    supports.push_back(out.stats.support);
    return Status::OK();
  });
  EXPECT_TRUE(ok_sink.Emit({0}, MakeOutput({0}, 7, {})).ok());
  EXPECT_EQ(supports, (std::vector<std::size_t>{7}));

  const AttributedGraph g = PaperExampleGraph();
  ScpmEngine engine(Table1Options());
  CallbackSink failing([](const SinkKey&, const AttributeSetOutput&) {
    return Status::Internal("sink says no");
  });
  Result<MiningRun> run = engine.Run(g, &failing);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
}

TEST(SinkTest, JsonlSinkStreamsOneLinePerSet) {
  const AttributedGraph g = PaperExampleGraph();
  std::ostringstream out;
  JsonlSink sink(&out, &g);
  ScpmEngine engine(Table1Options());
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->exhausted);
  EXPECT_EQ(sink.lines_written(), run->emitted);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"attributes\""), std::string::npos);
    EXPECT_NE(line.find("\"patterns\""), std::string::npos);
  }
  EXPECT_EQ(count, run->emitted);
  // The Table-1 run reports exactly {A}, {B}, {A,B}.
  EXPECT_EQ(count, 3u);
}

/// With one worker the streaming emission order IS the sequential
/// enumeration order (keys ascending).
TEST(SinkTest, SingleThreadStreamingEmitsInSequentialOrder) {
  const AttributedGraph g = RandomAttributed(3, /*n=*/30, /*num_attrs=*/5);
  ScpmOptions options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 3;
  options.min_support = 3;
  options.min_epsilon = 0.0;
  options.top_k = 2;
  std::vector<SinkKey> keys;
  CallbackSink sink([&](const SinkKey& key, const AttributeSetOutput&) {
    keys.push_back(key);
    return Status::OK();
  });
  ScpmEngine engine(options);
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GT(keys.size(), 3u);
  // Keys are unique; the accumulating path sorts them into the canonical
  // order, and the engine never emits the same key twice.
  std::set<SinkKey> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
}

TEST(SinkTest, ProgressHookObservesWaves) {
  const AttributedGraph g = PaperExampleGraph();
  ScpmEngine engine(Table1Options());
  std::vector<EngineProgress> snapshots;
  engine.set_progress(
      [&](const EngineProgress& p) { snapshots.push_back(p); });
  AccumulatingSink sink;
  Result<MiningRun> run = engine.Run(g, &sink);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(snapshots.empty());
  EXPECT_EQ(snapshots.back().evaluations,
            run->counters.attribute_sets_evaluated);
  EXPECT_EQ(snapshots.back().emitted, run->emitted);
}

}  // namespace
}  // namespace scpm
