// Distributed mining tests: byte-identity of rows, patterns, and
// summed work counters against a single-process run for every worker
// count / batch shape, under injected worker kills, dropped
// heartbeats, and corrupted results; the inline fallback that
// guarantees termination when every worker is gone; typed lease
// events; coordinator SIGKILL recovery from a StateStore journal; and
// the frontier pool's class bookkeeping across lease remainders. The
// seeded sweep honors SCPM_FAULT_SEED so CI can shake different kill
// schedules. These tests fork real processes and run under TSan in CI.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/request.h"
#include "core/scpm.h"
#include "dist/dist.h"
#include "dist/pool.h"
#include "dist/protocol.h"
#include "graph/attributed_graph.h"
#include "server/journal.h"
#include "server/json.h"
#include "util/fault.h"
#include "util/random.h"

namespace scpm {
namespace {

std::string TempDir(const std::string& tag) {
  std::string templ = "./dist_" + tag + "_XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  const char* made = ::mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return made != nullptr ? made : templ;
}

/// Random attributed graph (same construction as engine_test.cc).
AttributedGraph RandomAttributed(int seed, VertexId n = 24, int num_attrs = 5,
                                 double edge_p = 0.3, double attr_p = 0.4) {
  Rng rng(seed);
  AttributedGraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < edge_p) builder.AddEdge(u, v);
    }
  }
  for (int a = 0; a < num_attrs; ++a) {
    const AttributeId id = builder.InternAttribute("a" + std::to_string(a));
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

MiningRequest JsonlRequest(const std::string& out_path) {
  MiningRequest request;
  request.options.quasi_clique.gamma = 0.6;
  request.options.quasi_clique.min_size = 4;
  request.options.min_support = 2;
  request.options.min_epsilon = 0.05;
  request.options.top_k = 5;
  request.sink = MiningRequest::Sink::kJsonl;
  request.jsonl_path = out_path;
  return request;
}

std::vector<std::string> SortedLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

void ExpectCountersEq(const ScpmCounters& a, const ScpmCounters& b) {
  EXPECT_EQ(a.attribute_sets_evaluated, b.attribute_sets_evaluated);
  EXPECT_EQ(a.attribute_sets_reported, b.attribute_sets_reported);
  EXPECT_EQ(a.attribute_sets_extended, b.attribute_sets_extended);
  EXPECT_EQ(a.coverage_candidates, b.coverage_candidates);
  EXPECT_EQ(a.evaluation_batches, b.evaluation_batches);
  EXPECT_EQ(a.intra_search_evaluations, b.intra_search_evaluations);
  EXPECT_EQ(a.intra_branch_tasks, b.intra_branch_tasks);
  EXPECT_EQ(a.bitmap_intersections, b.bitmap_intersections);
  EXPECT_EQ(a.galloping_intersections, b.galloping_intersections);
  EXPECT_EQ(a.dense_conversions, b.dense_conversions);
}

/// Single-process memo-less reference for `request`'s options, written
/// to `out_path`.
MiningRun Baseline(const AttributedGraph& graph, const std::string& out_path) {
  Result<MiningResponse> response =
      ExecuteRequest(graph, JsonlRequest(out_path));
  EXPECT_TRUE(response.ok()) << response.status();
  return response->run;
}

void Disarm() {
  ASSERT_TRUE(FaultInjector::Instance().Configure("").ok());
}

TEST(DistIdentity, MatchesSingleProcessAcrossWorkerAndBatchShapes) {
  Disarm();
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("identity");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");
  const std::vector<std::string> base_lines = SortedLines(dir + "/base.jsonl");
  ASSERT_GT(base_lines.size(), 0u);

  int variant = 0;
  for (std::size_t workers : {1, 2, 4}) {
    for (std::size_t batch_entries : {1, 3, 8}) {
      for (std::uint64_t batch_evals : {2, 64}) {
        const std::string out =
            dir + "/d" + std::to_string(variant++) + ".jsonl";
        MiningRequest request = JsonlRequest(out);
        dist::DistOptions dopts;
        dopts.workers = workers;
        dopts.batch_entries = batch_entries;
        dopts.batch_evals = batch_evals;
        dopts.worker_wave = 2;
        dist::DistStats stats;
        Result<MiningResponse> response =
            dist::Mine(graph, request, dopts, nullptr, &stats);
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_TRUE(response->run.exhausted);
        EXPECT_EQ(response->run.emitted, base.emitted);
        EXPECT_EQ(response->run.patterns_emitted, base.patterns_emitted);
        ExpectCountersEq(response->run.counters, base.counters);
        EXPECT_EQ(SortedLines(out), base_lines)
            << "workers=" << workers << " batch_entries=" << batch_entries
            << " batch_evals=" << batch_evals;
        EXPECT_TRUE(stats.events.empty());
      }
    }
  }
}

TEST(DistFaults, WorkerKillIsRetriedOnSurvivorsIdentically) {
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("kill");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");

  // Worker 1 dies on its first lease; the batch re-leases elsewhere.
  ASSERT_TRUE(FaultInjector::Instance().Configure("worker-kill:1=0").ok());
  MiningRequest request = JsonlRequest(dir + "/dist.jsonl");
  dist::DistOptions dopts;
  dopts.workers = 3;
  dopts.batch_entries = 1;
  dopts.batch_evals = 4;
  dopts.backoff_ms = 1;
  dist::DistStats stats;
  Result<MiningResponse> response =
      dist::Mine(graph, request, dopts, nullptr, &stats);
  Disarm();
  ASSERT_TRUE(response.ok()) << response.status();
  ExpectCountersEq(response->run.counters, base.counters);
  EXPECT_EQ(SortedLines(dir + "/dist.jsonl"), SortedLines(dir + "/base.jsonl"));
  EXPECT_EQ(stats.worker_exits, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.workers[1].reassignments, 1u);
  EXPECT_GT(stats.workers[1].backoff_ms, 0u);
  ASSERT_EQ(stats.events.size(), 1u);
  // Every lease failure is typed: worker death is an I/O-class loss.
  EXPECT_EQ(stats.events[0].code, StatusCode::kIoError);
  EXPECT_NE(stats.events[0].detail.find("exited mid-lease"),
            std::string::npos);
}

TEST(DistFaults, DroppedHeartbeatRevokesTheLease) {
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("hb");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");

  // Worker 0 swallows its first heartbeat and oversleeps the lease —
  // the coordinator must revoke it on deadline, not wait forever.
  ASSERT_TRUE(FaultInjector::Instance().Configure("heartbeat-drop:0=0").ok());
  MiningRequest request = JsonlRequest(dir + "/dist.jsonl");
  dist::DistOptions dopts;
  dopts.workers = 2;
  dopts.batch_entries = 1;
  dopts.batch_evals = 2;
  dopts.worker_wave = 1;
  dopts.lease_ms = 100;
  dopts.backoff_ms = 1;
  dist::DistStats stats;
  Result<MiningResponse> response =
      dist::Mine(graph, request, dopts, nullptr, &stats);
  Disarm();
  ASSERT_TRUE(response.ok()) << response.status();
  ExpectCountersEq(response->run.counters, base.counters);
  EXPECT_EQ(SortedLines(dir + "/dist.jsonl"), SortedLines(dir + "/base.jsonl"));
  EXPECT_GE(stats.heartbeat_timeouts, 1u);
  EXPECT_GE(stats.workers[0].reassignments, 1u);
  ASSERT_GE(stats.events.size(), 1u);
  EXPECT_EQ(stats.events[0].code, StatusCode::kIoError);
}

TEST(DistFaults, CorruptResultFailsTheLeaseByChecksum) {
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("corrupt");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");

  ASSERT_TRUE(FaultInjector::Instance().Configure("result-corrupt:0=0").ok());
  MiningRequest request = JsonlRequest(dir + "/dist.jsonl");
  dist::DistOptions dopts;
  dopts.workers = 2;
  dopts.batch_entries = 1;
  dopts.batch_evals = 4;
  dopts.backoff_ms = 1;
  dist::DistStats stats;
  Result<MiningResponse> response =
      dist::Mine(graph, request, dopts, nullptr, &stats);
  Disarm();
  ASSERT_TRUE(response.ok()) << response.status();
  // The corrupted payload must be dropped whole (no partial merge):
  // totals still match the reference exactly.
  ExpectCountersEq(response->run.counters, base.counters);
  EXPECT_EQ(SortedLines(dir + "/dist.jsonl"), SortedLines(dir + "/base.jsonl"));
  EXPECT_EQ(stats.corrupt_results, 1u);
  ASSERT_GE(stats.events.size(), 1u);
  EXPECT_EQ(stats.events[0].code, StatusCode::kIoError);
  EXPECT_NE(stats.events[0].detail.find("checksum"), std::string::npos);
}

TEST(DistFaults, AllWorkersDeadFallsBackInlineAndTerminates) {
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("inline");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");

  // A bare point name fires in EVERY worker: the whole fleet dies on
  // its first lease, and the job must still terminate via the
  // coordinator's inline path.
  ASSERT_TRUE(FaultInjector::Instance().Configure("worker-kill=0").ok());
  MiningRequest request = JsonlRequest(dir + "/dist.jsonl");
  dist::DistOptions dopts;
  dopts.workers = 3;
  dopts.batch_entries = 2;
  dopts.batch_evals = 4;
  dopts.backoff_ms = 1;
  dist::DistStats stats;
  Result<MiningResponse> response =
      dist::Mine(graph, request, dopts, nullptr, &stats);
  Disarm();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->run.exhausted);
  ExpectCountersEq(response->run.counters, base.counters);
  EXPECT_EQ(SortedLines(dir + "/dist.jsonl"), SortedLines(dir + "/base.jsonl"));
  EXPECT_EQ(stats.worker_exits, 3u);
  EXPECT_GE(stats.inline_fallbacks, 1u);
  EXPECT_EQ(stats.batches, 0u);  // no worker ever completed a lease
  for (const dist::DistEvent& event : stats.events) {
    EXPECT_EQ(event.code, StatusCode::kIoError);
    EXPECT_FALSE(event.detail.empty());
  }
}

TEST(DistFaults, ExhaustedRetriesFallBackInlinePerBatch) {
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("retries");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");

  // Worker 0 is the only worker and dies on its first lease; with zero
  // retries the batch goes straight inline while later batches keep
  // failing over — the job terminates regardless of max_retries.
  ASSERT_TRUE(FaultInjector::Instance().Configure("worker-kill:0=0").ok());
  MiningRequest request = JsonlRequest(dir + "/dist.jsonl");
  dist::DistOptions dopts;
  dopts.workers = 1;
  dopts.batch_entries = 2;
  dopts.batch_evals = 4;
  dopts.max_retries = 0;
  dopts.backoff_ms = 1;
  dist::DistStats stats;
  Result<MiningResponse> response =
      dist::Mine(graph, request, dopts, nullptr, &stats);
  Disarm();
  ASSERT_TRUE(response.ok()) << response.status();
  ExpectCountersEq(response->run.counters, base.counters);
  EXPECT_EQ(SortedLines(dir + "/dist.jsonl"), SortedLines(dir + "/base.jsonl"));
  EXPECT_GE(stats.inline_fallbacks, 1u);
}

TEST(DistBudget, BudgetedRequestsAreRejectedTyped) {
  Disarm();
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("budget");
  MiningRequest request = JsonlRequest(dir + "/out.jsonl");
  request.budget.max_evaluations = 5;
  dist::DistOptions dopts;
  Result<MiningResponse> response = dist::Mine(graph, request, dopts);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(DistOptionsValidate, RejectsDegenerateKnobs) {
  dist::DistOptions dopts;
  dopts.batch_evals = 0;
  EXPECT_EQ(dopts.Validate().code(), StatusCode::kInvalidArgument);
  dopts = dist::DistOptions();
  dopts.batch_entries = 0;
  EXPECT_EQ(dopts.Validate().code(), StatusCode::kInvalidArgument);
  dopts = dist::DistOptions();
  dopts.lease_ms = 0;
  EXPECT_EQ(dopts.Validate().code(), StatusCode::kInvalidArgument);
}

/// A result payload written with the previous ScpmCounters field list
/// (format version 1) must be rejected typed, never misread as counters.
/// A lease's remainder repeats the classes of the batch it was cut
/// from. While pool entries still reference such a class, the remainder
/// must join it rather than add a second class with the same path: a
/// batch carrying one path twice repeats its member attribute sets,
/// which the engine cannot resume.
TEST(DistPool, RemainderRejoinsItsLiveClass) {
  EngineCheckpoint cut;
  cut.num_vertices = 8;
  cut.num_attributes = 4;
  cut.num_edges = 6;
  cut.valid = true;
  EngineCheckpoint::PendingClass cls;
  cls.path = {1};
  for (AttributeId a : {1u, 2u, 3u}) {
    EngineCheckpoint::Member m;
    m.items = {0, a};
    m.covered = {0, 1, 2};
    cls.members.push_back(std::move(m));
  }
  cut.classes.push_back(cls);
  for (std::uint32_t s = 0; s < 3; ++s) {
    cut.expansions.push_back(EngineCheckpoint::PendingExpansion{0, s});
  }

  dist::FrontierPool pool;
  pool.BindTo(cut);
  pool.Ingest(cut);
  const EngineCheckpoint leased = pool.MakeBatch(1);
  ASSERT_EQ(leased.expansions.size(), 1u);

  // The lease was cut before finishing its one entry.
  EngineCheckpoint remainder = cut;
  remainder.expansions = leased.expansions;
  pool.Ingest(remainder);

  const EngineCheckpoint next = pool.MakeBatch(8);
  EXPECT_EQ(next.expansions.size(), 3u);
  std::set<std::vector<std::uint32_t>> paths;
  for (const EngineCheckpoint::PendingClass& pc : next.classes) {
    EXPECT_TRUE(paths.insert(pc.path).second) << "path repeated in a batch";
  }
  EXPECT_EQ(next.classes.size(), 1u);
}

TEST(DistProtocol, ResultWithOldCounterLayoutIsRejectedTyped) {
  dist::ResultPayload result;
  result.counters.attribute_sets_evaluated = 7;
  const std::string current = dist::EncodeResult(result);
  Result<dist::ResultPayload> decoded = dist::DecodeResult(current);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->counters.attribute_sets_evaluated, 7u);

  const std::string magic = "dist-result ";
  ASSERT_EQ(current.rfind(magic, 0), 0u);
  std::string old = current;
  old.replace(magic.size(), old.find('\n') - magic.size(), "1");
  Result<dist::ResultPayload> rejected = dist::DecodeResult(old);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kIoError);
  EXPECT_NE(rejected.status().message().find("unsupported"), std::string::npos)
      << rejected.status();
}

TEST(DistRecovery, CoordinatorSigkillResumesByteIdentical) {
  Disarm();
  // Heavy enough that the job outlives the parent's kill window.
  const AttributedGraph graph = RandomAttributed(11, 40, 6, 0.3, 0.45);
  const std::string dir = TempDir("sigkill");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");
  const std::string out = dir + "/dist.jsonl";
  const std::string state = dir + "/state";

  dist::DistOptions dopts;
  dopts.workers = 2;
  dopts.batch_entries = 1;
  dopts.batch_evals = 2;
  dopts.state_dir = state;
  dopts.checkpoint_interval_ms = 1;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    MiningRequest request = JsonlRequest(out);
    (void)dist::Mine(graph, request, dopts);
    ::_exit(0);
  }
  // Kill the coordinator the moment its first durable snapshot lands
  // (or let it finish — recovery must cope with both).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool saw_checkpoint = false;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream probe(state + "/q1.ckpt");
    if (probe.good()) {
      saw_checkpoint = true;
      break;
    }
    int wstatus = 0;
    if (::waitpid(child, &wstatus, WNOHANG) == child) break;  // finished
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (saw_checkpoint) {
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ::waitpid(child, &wstatus, 0);
  }

  MiningRequest request = JsonlRequest(out);
  dist::DistStats stats;
  Result<MiningResponse> response =
      dist::Mine(graph, request, dopts, nullptr, &stats);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->run.exhausted);
  // Rows, patterns, and summed counters must all be file-cumulative
  // byte-identical to the uninterrupted single-process reference.
  EXPECT_EQ(response->run.emitted, base.emitted);
  EXPECT_EQ(response->run.patterns_emitted, base.patterns_emitted);
  ExpectCountersEq(response->run.counters, base.counters);
  EXPECT_EQ(response->jsonl_lines, base.emitted);
  EXPECT_EQ(SortedLines(out), SortedLines(dir + "/base.jsonl"));
}

TEST(DistRecovery, ChangedOptionsRestartInsteadOfResuming) {
  Disarm();
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("rebind");
  const std::string state = dir + "/state";
  const std::string out = dir + "/dist.jsonl";
  dist::DistOptions dopts;
  dopts.workers = 1;
  dopts.state_dir = state;
  dopts.checkpoint_interval_ms = 1;
  {
    MiningRequest request = JsonlRequest(out);
    Result<MiningResponse> first = dist::Mine(graph, request, dopts);
    ASSERT_TRUE(first.ok()) << first.status();
  }
  // Different thresholds on the same state dir: the journal's admit
  // fingerprint no longer matches, so this must be a fresh run (and a
  // fresh epoch), never a resume of the old frontier.
  MiningRequest changed = JsonlRequest(out);
  changed.options.min_support = 3;
  dist::DistStats stats;
  Result<MiningResponse> second = dist::Mine(graph, changed, dopts, nullptr,
                                             &stats);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(stats.recovered);
  Result<MiningResponse> reference = ExecuteRequest(graph, changed);
  ASSERT_TRUE(reference.ok());
  ExpectCountersEq(second->run.counters, reference->run.counters);
}

/// A v1 text q1.ckpt (the retired whitespace-token encoding, written by
/// hand) in the job's state dir is unreadable: the scan drops it and the
/// job restarts fresh — no abort, no resume, byte-identical output.
TEST(DistRecovery, V1TextSnapshotRestartsFresh) {
  Disarm();
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("textv1");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");
  const std::string state = dir + "/state";
  const std::string out = dir + "/dist.jsonl";
  MiningRequest request = JsonlRequest(out);
  const std::uint64_t fingerprint =
      ScpmEngine::OptionsFingerprint(request.options, false);
  {
    Result<std::unique_ptr<StateStore>> store = StateStore::Open(state);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)
                    ->AppendServer(
                        1, static_cast<std::uint64_t>(graph.NumVertices()),
                        graph.graph().NumEdges(), graph.NumAttributes())
                    .ok());
    JsonValue admit = JsonValue::MakeObject();
    admit.Set("fingerprint", JsonValue(std::to_string(fingerprint)));
    admit.Set("sink", JsonValue("jsonl"));
    admit.Set("out", JsonValue(out));
    ASSERT_TRUE((*store)->AppendAdmit(1, 1, admit).ok());
    std::ofstream ckpt(state + "/q1.ckpt");
    ckpt << "scpm-query-meta 1 1 0 1\n"
         << "scpm-checkpoint 1\n"
         << "graph " << graph.NumVertices() << ' ' << graph.NumAttributes()
         << ' ' << graph.graph().NumEdges() << "\noptions " << fingerprint
         << "\nphase tree\ndone-roots 0\nroot-batches 0\nclasses 0\n"
         << "expansions 0\nend\n";
    std::ofstream partial(out);
    partial << "{\"stale\":\"line\"}\n";
  }

  dist::DistOptions dopts;
  dopts.workers = 1;
  dopts.state_dir = state;
  dist::DistStats stats;
  Result<MiningResponse> response =
      dist::Mine(graph, request, dopts, nullptr, &stats);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(stats.recovered);
  EXPECT_TRUE(response->run.exhausted);
  ExpectCountersEq(response->run.counters, base.counters);
  EXPECT_EQ(SortedLines(out), SortedLines(dir + "/base.jsonl"));
}

TEST(DistFaultSweep, SeededKillSchedulesStayIdenticalAndTyped) {
  std::uint64_t seed = 424242;
  if (const char* env = std::getenv("SCPM_FAULT_SEED")) {
    seed = static_cast<std::uint64_t>(std::atoll(env));
  }
  const AttributedGraph graph = RandomAttributed(3);
  const std::string dir = TempDir("sweep");
  const MiningRun base = Baseline(graph, dir + "/base.jsonl");
  const std::vector<std::string> base_lines = SortedLines(dir + "/base.jsonl");

  Rng rng(seed);
  const char* points[] = {fault::kWorkerKill, fault::kHeartbeatDrop,
                          fault::kResultCorrupt};
  for (int round = 0; round < 4; ++round) {
    // One or two random faults aimed at random workers / hit indices.
    const std::size_t workers = 2 + (rng.Next() % 3);
    std::string spec;
    const int terms = 1 + static_cast<int>(rng.Next() % 2);
    for (int t = 0; t < terms; ++t) {
      if (t > 0) spec += ',';
      spec += points[rng.Next() % 3];
      spec += ':' + std::to_string(rng.Next() % workers);
      spec += '=' + std::to_string(rng.Next() % 2);
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) + " spec=" + spec +
                 " workers=" + std::to_string(workers));
    ASSERT_TRUE(FaultInjector::Instance().Configure(spec).ok());
    const std::string out = dir + "/r" + std::to_string(round) + ".jsonl";
    MiningRequest request = JsonlRequest(out);
    dist::DistOptions dopts;
    dopts.workers = workers;
    dopts.batch_entries = 1 + (rng.Next() % 3);
    dopts.batch_evals = 2 + (rng.Next() % 8);
    dopts.lease_ms = 150;
    dopts.worker_wave = 1;
    dopts.backoff_ms = 1;
    dist::DistStats stats;
    Result<MiningResponse> response =
        dist::Mine(graph, request, dopts, nullptr, &stats);
    Disarm();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->run.exhausted);
    ExpectCountersEq(response->run.counters, base.counters);
    EXPECT_EQ(SortedLines(out), base_lines);
    for (const dist::DistEvent& event : stats.events) {
      EXPECT_NE(event.code, StatusCode::kOk);
      EXPECT_FALSE(event.detail.empty());
    }
  }
}

}  // namespace
}  // namespace scpm
