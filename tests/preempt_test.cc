// Preemptive-scheduling and live-reload tests: byte-identity of sliced
// query results (rows, patterns, AND summed work counters) against a
// direct ScpmMiner::Mine for slice budgets {tiny, medium, unbounded}
// and thread counts {1, 2, 8}; the short-behind-long starvation
// regression; graph reload under both policies; memo epoch purge and
// re-warm; wire protocol versioning; the server default deadline; and
// the unified MiningRequest front door. These run under TSan in CI.
//
// Counter-identity runs disable the memo: a memo replays evaluations
// across segments of one sliced query, which legitimately shrinks the
// work counters (rows and patterns still match byte-for-byte).

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/request.h"
#include "core/scpm.h"
#include "graph/attributed_graph.h"
#include "graph/io.h"
#include "server/json.h"
#include "server/server.h"
#include "server/session.h"
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

/// Random attributed graph: ER topology + random attribute incidence
/// (same construction as engine_test.cc / server_test.cc).
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

std::shared_ptr<const AttributedGraph> SharedGraph(AttributedGraph graph) {
  return std::make_shared<const AttributedGraph>(std::move(graph));
}

/// Rows and patterns only (memo-hot or cross-epoch comparisons).
void ExpectIdenticalRows(const ScpmResult& a, const ScpmResult& b) {
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
}

/// Output plus the lattice and set-kernel counters. The slicing pin: a
/// run cut into N segments must sum to exactly the uncut run's counters,
/// because every resume seeds uncounted. The quasi-clique work counters are left out: a
/// session runs on the server's pool, where they depend on scheduling.
void ExpectIdenticalResults(const ScpmResult& a, const ScpmResult& b) {
  ExpectIdenticalRows(a, b);
  EXPECT_EQ(a.counters.attribute_sets_evaluated,
            b.counters.attribute_sets_evaluated);
  EXPECT_EQ(a.counters.attribute_sets_reported,
            b.counters.attribute_sets_reported);
  EXPECT_EQ(a.counters.attribute_sets_extended,
            b.counters.attribute_sets_extended);
  EXPECT_EQ(a.counters.bitmap_intersections, b.counters.bitmap_intersections);
  EXPECT_EQ(a.counters.galloping_intersections,
            b.counters.galloping_intersections);
  EXPECT_EQ(a.counters.dense_conversions, b.counters.dense_conversions);
}

ScpmResult DirectMine(const AttributedGraph& graph,
                      const ScpmOptions& options) {
  ScpmMiner miner(options);
  Result<ScpmResult> result = miner.Mine(graph);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

QuerySpec AccumulateSpec(const ScpmOptions& options) {
  QuerySpec spec;
  spec.options = options;
  return spec;
}

std::shared_ptr<QuerySession> SubmitOk(ScpmServer* server, QuerySpec spec) {
  Result<std::shared_ptr<QuerySession>> session =
      server->Submit(std::move(spec));
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

/// A lattice heavy enough (hundreds of thousands of evaluations) that a
/// query on it cannot finish within the test's patience.
AttributedGraph HeavyGraph() { return RandomAttributed(7, 80, 14, 0.3, 0.5); }

ScpmOptions HeavyOptions() {
  ScpmOptions heavy;
  heavy.quasi_clique.gamma = 0.5;
  heavy.quasi_clique.min_size = 3;
  heavy.min_support = 1;
  heavy.min_epsilon = 0.0;
  return heavy;
}

// ---------------------------------------------------------------------
// Tentpole pin #1: preemption never changes what a query returns.

TEST(PreemptTest, SlicedResultsAreByteIdenticalAcrossSliceAndThreadCounts) {
  const AttributedGraph graph = RandomAttributed(42);
  const ScpmResult direct = DirectMine(graph, Table1Options());
  ASSERT_FALSE(direct.attribute_sets.empty());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::uint64_t slice_evals : {std::uint64_t{3},
                                            std::uint64_t{17},
                                            std::uint64_t{0}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " slice_evals=" + std::to_string(slice_evals));
      ServerOptions options;
      options.threads = threads;
      options.max_concurrent = 2;
      options.memo.max_bytes = 0;  // counter identity needs the memo off
      options.slice_evals = slice_evals;
      ScpmServer server(SharedGraph(RandomAttributed(42)), options);
      server.Start();

      std::shared_ptr<QuerySession> session =
          SubmitOk(&server, AccumulateSpec(Table1Options()));
      session->WaitTerminal();
      ASSERT_EQ(session->state(), QueryState::kDone);
      EXPECT_TRUE(session->run().exhausted);
      if (slice_evals != 0 && slice_evals < 16) {
        EXPECT_GT(session->slices(), 1u);
      }
      ExpectIdenticalResults(session->result(), direct);
      EXPECT_EQ(session->run().emitted, direct.attribute_sets.size());
    }
  }
}

TEST(PreemptTest, WallClockSlicesPreserveByteIdentity) {
  const AttributedGraph graph = RandomAttributed(11);
  const ScpmResult direct = DirectMine(graph, Table1Options());

  ServerOptions options;
  options.threads = 2;
  options.memo.max_bytes = 0;
  options.slice_ms = 1;  // cut on wall clock instead of evaluations
  ScpmServer server(SharedGraph(RandomAttributed(11)), options);
  server.Start();

  std::shared_ptr<QuerySession> session =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  session->WaitTerminal();
  ASSERT_EQ(session->state(), QueryState::kDone);
  EXPECT_TRUE(session->run().exhausted);
  ExpectIdenticalResults(session->result(), direct);
}

TEST(PreemptTest, StalledSlicesEscalateUntilTheyMakeProgress) {
  // The progress guarantee behind any slice size: a wall-clock cut
  // discards in-flight entries whole, so an entry slower than the
  // slice would be retried identically forever if the budget never
  // grew. Regression for a livelock where a 25ms-sliced query spun
  // through hundreds of zero-progress slices on a graph whose root
  // batches each cost more than a slice; pre-escalation this test
  // never terminates. The graph is citeseer-shaped: a few hundred
  // milliseconds end to end, but skewed — single entries cost tens of
  // milliseconds, far beyond the 1ms slice.
  const AttributedGraph graph = RandomAttributed(7, 250, 20, 0.12, 0.2);
  const ScpmResult direct = DirectMine(graph, Table1Options());
  ASSERT_FALSE(direct.attribute_sets.empty());

  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.memo.max_bytes = 0;
  options.slice_ms = 1;  // far below single-entry cost on this graph
  ScpmServer server(SharedGraph(RandomAttributed(7, 250, 20, 0.12, 0.2)),
                    options);
  server.Start();

  std::shared_ptr<QuerySession> session =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  session->WaitTerminal();
  ASSERT_EQ(session->state(), QueryState::kDone);
  EXPECT_TRUE(session->run().exhausted);
  ExpectIdenticalResults(session->result(), direct);
}

TEST(PreemptTest, SlicedQueryStillHonorsItsOwnBudget) {
  // A cheap lattice with plenty of evaluations, so the query's own eval
  // budget — not the lattice end — is what stops it.
  const AttributedGraph graph = RandomAttributed(5, 40, 8, 0.3, 0.4);
  ScpmOptions loose = Table1Options();
  loose.min_support = 2;
  loose.min_epsilon = 0.0;
  const ScpmResult direct = DirectMine(graph, loose);
  ASSERT_GT(direct.counters.attribute_sets_evaluated, 60u);

  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.memo.max_bytes = 0;
  options.slice_evals = 10;
  ScpmServer server(SharedGraph(RandomAttributed(5, 40, 8, 0.3, 0.4)),
                    options);
  server.Start();

  QuerySpec spec = AccumulateSpec(loose);
  spec.budget.max_evaluations = 50;
  std::shared_ptr<QuerySession> session = SubmitOk(&server, std::move(spec));
  session->WaitTerminal();
  ASSERT_EQ(session->state(), QueryState::kDone);
  EXPECT_FALSE(session->run().exhausted);
  // Budgets cut at deterministic frontier-wave boundaries, so the spend
  // lands in [budget, budget + wave), never the whole lattice.
  EXPECT_GE(session->run().counters.attribute_sets_evaluated, 50u);
  EXPECT_LT(session->run().counters.attribute_sets_evaluated,
            direct.counters.attribute_sets_evaluated);
  EXPECT_GE(session->slices(), 2u);
}

// ---------------------------------------------------------------------
// Tentpole pin #2: a cheap query admitted behind a multi-second one
// completes within a couple of slices instead of waiting it out.

TEST(PreemptTest, ShortQueryIsNotStarvedBehindLongQuery) {
  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;  // one driver: the two queries MUST share it
  options.memo.max_bytes = 0;
  options.slice_ms = 20;  // wall-clock slices interrupt mid-wave
  ScpmServer server(SharedGraph(HeavyGraph()), options);
  server.Start();

  std::shared_ptr<QuerySession> long_query =
      SubmitOk(&server, AccumulateSpec(HeavyOptions()));
  QuerySpec short_spec = AccumulateSpec(HeavyOptions());
  short_spec.budget.deadline_ms = 10;  // "a 10ms query"
  std::shared_ptr<QuerySession> short_query =
      SubmitOk(&server, std::move(short_spec));

  short_query->WaitTerminal();
  EXPECT_EQ(short_query->state(), QueryState::kDone);
  EXPECT_LE(short_query->slices(), 2u);
  // The long query is still mining (it needs hundreds of thousands of
  // evaluations); without slicing the short query would still be queued
  // behind it at this point.
  EXPECT_FALSE(long_query->terminal());

  server.Cancel(long_query->id());
  long_query->WaitTerminal();
  EXPECT_EQ(long_query->state(), QueryState::kCancelled);
}

TEST(PreemptTest, PreemptedReEnqueuesDoNotConsumeAdmissionSlots) {
  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.queue_depth = 1;
  options.memo.max_bytes = 0;
  options.slice_ms = 10;
  ScpmServer server(SharedGraph(HeavyGraph()), options);
  server.Start();

  // The long query round-robins through the queue as a preempted item;
  // a fresh submit must still fit the depth-1 admission queue.
  std::shared_ptr<QuerySession> long_query =
      SubmitOk(&server, AccumulateSpec(HeavyOptions()));
  while (long_query->slices() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  QuerySpec short_spec = AccumulateSpec(HeavyOptions());
  short_spec.budget.deadline_ms = 10;
  std::shared_ptr<QuerySession> short_query =
      SubmitOk(&server, std::move(short_spec));
  short_query->WaitTerminal();
  EXPECT_EQ(short_query->state(), QueryState::kDone);

  server.Cancel(long_query->id());
  long_query->WaitTerminal();

  Result<JsonValue> stats =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->NumberOr("preemptions", 0), 0.0);
}

// ---------------------------------------------------------------------
// Tentpole pin #3: live reload.

TEST(PreemptTest, ReloadFinishOnOldGraphPinsInFlightQueries) {
  const AttributedGraph old_graph = RandomAttributed(42);
  const AttributedGraph new_graph = RandomAttributed(43);
  const ScpmResult direct_old = DirectMine(old_graph, Table1Options());
  const ScpmResult direct_new = DirectMine(new_graph, Table1Options());

  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.memo.max_bytes = 0;
  options.slice_evals = 2;  // many slices: the reload lands mid-query
  ScpmServer server(SharedGraph(RandomAttributed(42)), options);
  server.Start();
  EXPECT_EQ(server.epoch(), 1u);

  std::shared_ptr<QuerySession> pinned =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  while (pinned->slices() == 0 && !pinned->terminal()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(
      server.Reload(SharedGraph(RandomAttributed(43)),
                    ReloadPolicy::kFinishOnOldGraph).ok());
  EXPECT_EQ(server.epoch(), 2u);

  // The in-flight query finishes on the graph it pinned at first
  // schedule and is byte-identical to a direct mine of the OLD graph.
  pinned->WaitTerminal();
  ASSERT_EQ(pinned->state(), QueryState::kDone);
  EXPECT_EQ(pinned->pinned_epoch(), 1u);
  ExpectIdenticalResults(pinned->result(), direct_old);

  // A query submitted after the reload sees the new graph.
  std::shared_ptr<QuerySession> fresh =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  fresh->WaitTerminal();
  ASSERT_EQ(fresh->state(), QueryState::kDone);
  EXPECT_EQ(fresh->pinned_epoch(), 2u);
  ExpectIdenticalResults(fresh->result(), direct_new);
}

TEST(PreemptTest, ReloadCancelRunningCancelsOldEpochQueries) {
  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.memo.max_bytes = 0;
  options.slice_ms = 20;
  ScpmServer server(SharedGraph(HeavyGraph()), options);
  server.Start();

  std::shared_ptr<QuerySession> doomed =
      SubmitOk(&server, AccumulateSpec(HeavyOptions()));
  while (doomed->slices() == 0 && !doomed->terminal()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.Reload(SharedGraph(RandomAttributed(43)),
                            ReloadPolicy::kCancelRunning)
                  .ok());
  doomed->WaitTerminal();
  EXPECT_EQ(doomed->state(), QueryState::kCancelled);
  EXPECT_EQ(doomed->error().code(), StatusCode::kCancelled);

  // The server is healthy on the new graph.
  const ScpmResult direct_new =
      DirectMine(RandomAttributed(43), Table1Options());
  std::shared_ptr<QuerySession> fresh =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  fresh->WaitTerminal();
  ASSERT_EQ(fresh->state(), QueryState::kDone);
  ExpectIdenticalRows(fresh->result(), direct_new);
}

TEST(PreemptTest, ReloadPurgesMemoByEpochAndReWarms) {
  ServerOptions options;
  options.threads = 2;
  ScpmServer server(SharedGraph(RandomAttributed(42)), options);
  server.Start();

  auto run_one = [&server]() -> std::shared_ptr<QuerySession> {
    std::shared_ptr<QuerySession> s =
        SubmitOk(&server, AccumulateSpec(Table1Options()));
    s->WaitTerminal();
    EXPECT_EQ(s->state(), QueryState::kDone);
    return s;
  };

  std::shared_ptr<QuerySession> cold = run_one();
  EXPECT_EQ(cold->run().memo_hits, 0u);
  EXPECT_GT(cold->run().memo_misses, 0u);
  std::shared_ptr<QuerySession> hot = run_one();
  EXPECT_GT(hot->run().memo_hits, 0u);
  EXPECT_EQ(hot->run().memo_misses, 0u);

  // Same graph content, new epoch: every memo entry is stale by key.
  ASSERT_TRUE(server.Reload(SharedGraph(RandomAttributed(42)),
                            ReloadPolicy::kFinishOnOldGraph)
                  .ok());
  std::shared_ptr<QuerySession> purged = run_one();
  EXPECT_EQ(purged->run().memo_hits, 0u);
  EXPECT_GT(purged->run().memo_misses, 0u);
  // ... and the memo re-warms under the new epoch.
  std::shared_ptr<QuerySession> rewarmed = run_one();
  EXPECT_GT(rewarmed->run().memo_hits, 0u);
  EXPECT_EQ(rewarmed->run().memo_misses, 0u);
}

TEST(PreemptTest, ReloadWireVerbSwapsGraphFromFiles) {
  // Two tiny graphs on disk; the wire verb swaps to the second.
  const std::string edges_a = ::testing::TempDir() + "/preempt_a.edges";
  const std::string attrs_a = ::testing::TempDir() + "/preempt_a.attrs";
  const std::string edges_b = ::testing::TempDir() + "/preempt_b.edges";
  const std::string attrs_b = ::testing::TempDir() + "/preempt_b.attrs";
  {
    std::ofstream e(edges_a), a(attrs_a);
    e << "0 1\n1 2\n0 2\n";
    a << "0 red\n1 red\n2 red\n";
  }
  {
    std::ofstream e(edges_b), a(attrs_b);
    e << "0 1\n1 2\n2 3\n0 2\n1 3\n";
    a << "0 red\n1 red\n2 blue\n3 blue\n";
  }
  Result<AttributedGraph> loaded = LoadAttributedGraph(edges_a, attrs_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ServerOptions options;
  ScpmServer server(SharedGraph(std::move(loaded).value()), options);
  server.Start();

  // No request paths and no server defaults: typed failure.
  Result<JsonValue> no_paths =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"reload\"}"));
  ASSERT_TRUE(no_paths.ok());
  EXPECT_FALSE(no_paths->BoolOr("ok", true));

  Result<JsonValue> swapped = JsonValue::Parse(server.HandleRequest(
      "{\"op\":\"reload\",\"edges\":\"" + edges_b + "\",\"attrs\":\"" +
      attrs_b + "\",\"policy\":\"cancel\"}"));
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(swapped->BoolOr("ok", false)) << swapped->Dump();
  EXPECT_EQ(swapped->NumberOr("epoch", 0), 2.0);
  const JsonValue* shape = swapped->Find("graph");
  ASSERT_NE(shape, nullptr);
  EXPECT_EQ(shape->NumberOr("vertices", 0), 4.0);

  // Server defaults (the CLI's argv paths) back the bare verb.
  server.set_reload_paths(edges_a, attrs_a);
  Result<JsonValue> defaulted =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"reload\"}"));
  ASSERT_TRUE(defaulted.ok());
  EXPECT_TRUE(defaulted->BoolOr("ok", false)) << defaulted->Dump();
  EXPECT_EQ(defaulted->NumberOr("epoch", 0), 3.0);

  Result<JsonValue> stats =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->NumberOr("epoch", 0), 3.0);
  EXPECT_EQ(stats->NumberOr("reloads", 0), 2.0);

  for (const std::string& p : {edges_a, attrs_a, edges_b, attrs_b}) {
    std::remove(p.c_str());
  }
}

// ---------------------------------------------------------------------
// Satellites: protocol versioning, default deadline, the unified
// request front door.

TEST(PreemptTest, WireProtocolVersionGate) {
  ServerOptions options;
  ScpmServer server(SharedGraph(RandomAttributed(42)), options);
  server.Start();

  // Absent "v" means v1; explicit v1 is accepted.
  Result<JsonValue> bare =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\"}"));
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->BoolOr("ok", false));
  EXPECT_EQ(bare->NumberOr("protocol_version", 0), 1.0);
  Result<JsonValue> v1 =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\",\"v\":1}"));
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->BoolOr("ok", false));

  // Any other version is a typed kInvalidArgument before op dispatch.
  for (const std::string& req :
       {std::string("{\"op\":\"stats\",\"v\":2}"),
        std::string("{\"op\":\"shutdown\",\"v\":0}"),
        std::string("{\"op\":\"stats\",\"v\":\"1\"}")}) {
    Result<JsonValue> r = JsonValue::Parse(server.HandleRequest(req));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->BoolOr("ok", true)) << req;
    EXPECT_EQ(r->StringOr("code", ""), "invalid-argument") << req;
  }
  // The bad-version shutdown above must NOT have shut the server down.
  Result<JsonValue> alive =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\"}"));
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive->BoolOr("ok", false));
}

TEST(PreemptTest, DefaultDeadlineAppliesOnlyWhenQueryHasNone) {
  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.memo.max_bytes = 0;
  options.default_deadline_ms = 100;
  ScpmServer server(SharedGraph(HeavyGraph()), options);
  server.Start();

  // No deadline in the spec: the server default cuts the heavy query.
  std::shared_ptr<QuerySession> defaulted =
      SubmitOk(&server, AccumulateSpec(HeavyOptions()));
  defaulted->WaitTerminal();
  ASSERT_EQ(defaulted->state(), QueryState::kDone);
  EXPECT_FALSE(defaulted->run().exhausted);

  // An explicit deadline wins over the server default.
  QuerySpec own = AccumulateSpec(HeavyOptions());
  own.budget.deadline_ms = 30;
  std::shared_ptr<QuerySession> explicit_deadline =
      SubmitOk(&server, std::move(own));
  explicit_deadline->WaitTerminal();
  ASSERT_EQ(explicit_deadline->state(), QueryState::kDone);
  EXPECT_FALSE(explicit_deadline->run().exhausted);

  Result<JsonValue> stats =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->NumberOr("default_deadline_ms", 0), 100.0);
}

TEST(PreemptTest, ParseQuerySpecRejectsProcessGlobalToggles) {
  // The former process-global kernel toggles no longer exist; a query
  // that still sends them is rejected like any other unknown member.
  for (const char* key : {"simd", "chunked"}) {
    JsonValue query = JsonValue::MakeObject();
    query.Set(key, JsonValue(true));
    Result<QuerySpec> spec = ParseQuerySpec(query);
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_NE(spec.status().message().find("unknown query member"),
              std::string::npos)
        << spec.status();
  }
}

TEST(RequestTest, ValidateCatchesBadRequests) {
  MiningRequest jsonl_without_destination;
  jsonl_without_destination.sink = MiningRequest::Sink::kJsonl;
  EXPECT_FALSE(jsonl_without_destination.Validate().ok());

  MiningRequest zero_k;
  zero_k.sink = MiningRequest::Sink::kTopK;
  zero_k.sink_k = 0;
  EXPECT_FALSE(zero_k.Validate().ok());

  MiningRequest bad_options;
  bad_options.options.quasi_clique.gamma = 2.0;
  EXPECT_FALSE(bad_options.Validate().ok());

  EXPECT_TRUE(MiningRequest().Validate().ok());
}

TEST(RequestTest, ExecuteRequestMatchesLegacyFrontDoors) {
  const AttributedGraph graph = RandomAttributed(42);
  const ScpmResult direct = DirectMine(graph, Table1Options());

  // Accumulate through the unified front door == legacy Mine().
  MiningRequest accumulate;
  accumulate.options = Table1Options();
  Result<MiningResponse> mined = ExecuteRequest(graph, accumulate);
  ASSERT_TRUE(mined.ok()) << mined.status();
  EXPECT_TRUE(mined->run.exhausted);
  ExpectIdenticalResults(mined->result, direct);

  // The miner-level overload is the same path.
  ScpmMiner miner(Table1Options());
  Result<MiningResponse> via_miner = miner.Mine(graph, accumulate);
  ASSERT_TRUE(via_miner.ok()) << via_miner.status();
  ExpectIdenticalResults(via_miner->result, direct);

  // Top-k through the request == the direct result's pattern prefix.
  MiningRequest topk;
  topk.options = Table1Options();
  topk.sink = MiningRequest::Sink::kTopK;
  topk.sink_k = 3;
  Result<MiningResponse> top = ExecuteRequest(graph, topk);
  ASSERT_TRUE(top.ok()) << top.status();
  const std::size_t expect = std::min<std::size_t>(3, direct.patterns.size());
  ASSERT_EQ(top->top_patterns.size(), expect);
  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_EQ(top->top_patterns[i].attributes, direct.patterns[i].attributes);
    EXPECT_EQ(top->top_patterns[i].vertices, direct.patterns[i].vertices);
  }

  // JSONL to a borrowed stream: one parseable line per finalized set.
  std::ostringstream lines;
  MiningRequest jsonl;
  jsonl.options = Table1Options();
  jsonl.sink = MiningRequest::Sink::kJsonl;
  jsonl.jsonl_stream = &lines;
  Result<MiningResponse> streamed = ExecuteRequest(graph, jsonl);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(streamed->jsonl_lines, direct.attribute_sets.size());
  std::istringstream in(lines.str());
  std::string line;
  std::size_t parsed_lines = 0;
  while (std::getline(in, line)) {
    Result<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    ++parsed_lines;
  }
  EXPECT_EQ(parsed_lines, direct.attribute_sets.size());
}

}  // namespace
}  // namespace scpm
