// Durability and crash-recovery tests: the deterministic fault
// injector, the StateStore journal/checkpoint discipline (atomic
// replace, torn-tail tolerance, stale-epoch discard), periodic engine
// auto-checkpointing, and end-to-end recovery — a query interrupted
// mid-run (simulated crash state, clean drain, and a real fork +
// SIGKILL) resumes on a fresh server and produces output byte-identical
// to an uninterrupted run. The seeded fault sweep runs the whole
// workflow under probabilistic-but-reproducible failures and asserts
// every failure lands in a typed error and a recoverable state. These
// tests run under TSan in CI.

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/request.h"
#include "core/scpm.h"
#include "graph/attributed_graph.h"
#include "server/journal.h"
#include "server/server.h"
#include "server/session.h"
#include "util/fault.h"
#include "util/random.h"

namespace scpm {
namespace {

/// Fresh scratch directory under the test's working directory. The
/// owner removes it on scope exit unless the test has already failed,
/// so a failing case leaves its state behind for inspection.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    std::string templ = "./recovery_" + tag + "_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : templ;
  }
  ~TempDir() {
    if (::testing::Test::HasFailure()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

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

/// A query spec heavy enough to be sliced and snapshotted a few times.
QuerySpec JsonlSpec(const std::string& out_path) {
  QuerySpec spec;
  spec.options.quasi_clique.gamma = 0.6;
  spec.options.quasi_clique.min_size = 4;
  spec.options.min_support = 2;
  spec.options.min_epsilon = 0.05;
  spec.options.top_k = 5;
  spec.sink = QuerySpec::Sink::kJsonl;
  spec.jsonl_path = out_path;
  return spec;
}

std::vector<std::string> SortedLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

ServerOptions DurableOptions(const std::string& state_dir) {
  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.state_dir = state_dir;
  options.checkpoint_interval_ms = 1;  // snapshot eagerly in tests
  options.slice_evals = 3;             // many short slices
  return options;
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, ScriptedNthHitFiresExactlyOnce) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  ASSERT_TRUE(fi.Configure("checkpoint-write=1").ok());
  EXPECT_TRUE(fi.armed());
  EXPECT_FALSE(fi.ShouldFail(fault::kCheckpointWrite));  // hit 0
  EXPECT_FALSE(fi.ShouldFail(fault::kJournalWrite));     // other point
  EXPECT_TRUE(fi.ShouldFail(fault::kCheckpointWrite));   // hit 1 fires
  EXPECT_FALSE(fi.ShouldFail(fault::kCheckpointWrite));  // fired once only
  EXPECT_EQ(fi.injected(), 1u);
  fi.Reset();
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.ShouldFail(fault::kCheckpointWrite));
}

TEST(FaultInjector, MalformedSpecLeavesDisarmed) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  EXPECT_EQ(fi.Configure("not a spec").code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(fi.armed());
  EXPECT_EQ(fi.Configure("point=").code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(fi.armed());
  fi.Reset();
}

TEST(FaultInjector, SeededModeIsDeterministic) {
  FaultInjector& fi = FaultInjector::Instance();
  const auto draw = [&fi](std::uint64_t seed) {
    fi.Reset();
    fi.Seed(seed, 300);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(fi.ShouldFail(fault::kJournalWrite));
    }
    return outcomes;
  };
  const std::vector<bool> a = draw(42);
  const std::vector<bool> b = draw(42);
  const std::vector<bool> c = draw(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide over 64 draws
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
  fi.Reset();
}

// ---------------------------------------------------------------------------
// StateStore

TEST(StateStore, JournalRoundTripAndTerminalFiltering) {
  FaultInjector::Instance().Reset();
  const TempDir dir("journal");
  Result<std::unique_ptr<StateStore>> store =
      StateStore::Open(dir.path() + "/state");
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->AppendServer(1, 24, 80, 5).ok());
  JsonValue q1 = QuerySpecToJson(JsonlSpec("/tmp/out1.jsonl"));
  JsonValue q2 = QuerySpecToJson(QuerySpec{});
  EXPECT_TRUE((*store)->AppendAdmit(1, 1, q1).ok());
  EXPECT_TRUE((*store)->AppendAdmit(2, 1, q2).ok());
  EXPECT_TRUE((*store)->AppendProgress(1, 7, 7).ok());
  EXPECT_TRUE((*store)->AppendTerminal(2, "done").ok());

  const RecoveryScan scan = (*store)->Scan();
  EXPECT_EQ(scan.epoch, 1u);
  EXPECT_EQ(scan.vertices, 24u);
  EXPECT_EQ(scan.edges, 80u);
  EXPECT_EQ(scan.attributes, 5u);
  EXPECT_EQ(scan.max_id, 2u);
  ASSERT_EQ(scan.queries.size(), 1u);  // 2 is terminal
  EXPECT_EQ(scan.queries[0].id, 1u);
  EXPECT_FALSE(scan.queries[0].has_checkpoint);
  EXPECT_TRUE(scan.warnings.empty()) << scan.warnings[0];
  // The admit spec round-trips through ParseQuerySpec.
  Result<QuerySpec> reparsed = ParseQuerySpec(scan.queries[0].query);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->jsonl_path, "/tmp/out1.jsonl");
  EXPECT_EQ(reparsed->options.min_support, 2u);

  const JournalStats stats = (*store)->stats();
  EXPECT_EQ(stats.appends, 5u);
  EXPECT_EQ(stats.fsyncs, 5u);
  EXPECT_EQ(stats.io_errors, 0u);
}

TEST(StateStore, CheckpointMetaRidesAtomicallyWithSnapshot) {
  FaultInjector::Instance().Reset();
  const TempDir dir("ckptmeta");
  Result<std::unique_ptr<StateStore>> store =
      StateStore::Open(dir.path() + "/state");
  ASSERT_TRUE(store.ok());

  // A real checkpoint from a budget-cut run.
  AttributedGraph graph = RandomAttributed(3);
  MiningRequest request = JsonlSpec(dir.path() + "/out.jsonl");
  request.budget.max_evaluations = 4;
  Result<MiningResponse> cut = ExecuteRequest(graph, request);
  ASSERT_TRUE(cut.ok());
  ASSERT_FALSE(cut->run.exhausted);

  EXPECT_TRUE((*store)->AppendServer(1, 24, 80, 5).ok());
  EXPECT_TRUE(
      (*store)
          ->AppendAdmit(1, 1, QuerySpecToJson(JsonlSpec(dir.path() + "/o")))
          .ok());
  ASSERT_TRUE(
      (*store)->WriteCheckpoint(1, cut->run.checkpoint, 7, 21, 7).ok());

  RecoveryScan scan = (*store)->Scan();
  ASSERT_EQ(scan.queries.size(), 1u);
  EXPECT_TRUE(scan.queries[0].has_checkpoint);
  EXPECT_EQ(scan.queries[0].emitted, 7u);
  EXPECT_EQ(scan.queries[0].patterns_emitted, 21u);
  EXPECT_EQ(scan.queries[0].jsonl_lines, 7u);

  // An injected I/O failure must leave the previous checkpoint intact:
  // same counters, same snapshot, typed error, io_errors counted.
  ASSERT_TRUE(FaultInjector::Instance().Configure("checkpoint-write=0").ok());
  const Status failed =
      (*store)->WriteCheckpoint(1, cut->run.checkpoint, 999, 999, 999);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  FaultInjector::Instance().Reset();
  scan = (*store)->Scan();
  ASSERT_EQ(scan.queries.size(), 1u);
  EXPECT_TRUE(scan.queries[0].has_checkpoint);
  EXPECT_EQ(scan.queries[0].emitted, 7u);
  EXPECT_EQ((*store)->stats().io_errors, 1u);

  // A torn checkpoint file (truncated mid-snapshot at the final path,
  // as if the filesystem lost the rename's durability) degrades to
  // "re-run from scratch" with a warning, never an error.
  std::ofstream torn(dir.path() + "/state/q1.ckpt", std::ios::trunc);
  torn << "scpm-query-meta 1 7 21 7\nscpm-checkpoint";  // cut mid-header
  torn.close();
  scan = (*store)->Scan();
  ASSERT_EQ(scan.queries.size(), 1u);
  EXPECT_FALSE(scan.queries[0].has_checkpoint);
  EXPECT_EQ(scan.queries[0].emitted, 0u);
  ASSERT_FALSE(scan.warnings.empty());
  EXPECT_NE(scan.warnings.back().find("re-run from scratch"),
            std::string::npos);
}

TEST(StateStore, BitFlippedBinarySnapshotWarnsAndRerunsFromScratch) {
  FaultInjector::Instance().Reset();
  const TempDir dir("bitflip");
  Result<std::unique_ptr<StateStore>> store =
      StateStore::Open(dir.path() + "/state");
  ASSERT_TRUE(store.ok());

  AttributedGraph graph = RandomAttributed(3);
  MiningRequest request = JsonlSpec(dir.path() + "/out.jsonl");
  request.budget.max_evaluations = 4;
  Result<MiningResponse> cut = ExecuteRequest(graph, request);
  ASSERT_TRUE(cut.ok());
  ASSERT_FALSE(cut->run.exhausted);

  EXPECT_TRUE((*store)->AppendServer(1, 24, 80, 5).ok());
  EXPECT_TRUE(
      (*store)
          ->AppendAdmit(1, 1, QuerySpecToJson(JsonlSpec(dir.path() + "/o")))
          .ok());
  ASSERT_TRUE(
      (*store)->WriteCheckpoint(1, cut->run.checkpoint, 7, 21, 7).ok());

  // The snapshot after the meta line is the binary v2 form.
  const std::string path = dir.path() + "/state/q1.ckpt";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const std::size_t magic = bytes.find("SCPB");
  ASSERT_NE(magic, std::string::npos) << "snapshot is not binary";

  // Flip one bit at several depths of the binary region: the payload
  // checksum must turn each into a typed "re-run from scratch" warning,
  // never a silently different frontier and never a Scan failure.
  const std::size_t offsets[] = {magic + 6, (magic + bytes.size()) / 2,
                                 bytes.size() - 1};
  for (const std::size_t offset : offsets) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << corrupt;
    }
    const RecoveryScan scan = (*store)->Scan();
    ASSERT_EQ(scan.queries.size(), 1u);
    EXPECT_FALSE(scan.queries[0].has_checkpoint)
        << "flip at offset " << offset << " went undetected";
    EXPECT_EQ(scan.queries[0].emitted, 0u);
    ASSERT_FALSE(scan.warnings.empty());
    EXPECT_NE(scan.warnings.back().find("re-run from scratch"),
              std::string::npos);
  }

  // The pristine bytes still scan fine afterwards (the corruption above
  // was in the copy, not the codec).
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
  }
  const RecoveryScan scan = (*store)->Scan();
  ASSERT_EQ(scan.queries.size(), 1u);
  EXPECT_TRUE(scan.queries[0].has_checkpoint);
  EXPECT_EQ(scan.queries[0].emitted, 7u);
}

TEST(StateStore, InjectedJournalFailureIsTypedAndCounted) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  const TempDir dir("jfail");
  Result<std::unique_ptr<StateStore>> store =
      StateStore::Open(dir.path() + "/state");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(fi.Configure("journal-write=1").ok());
  EXPECT_TRUE((*store)->AppendServer(1, 1, 1, 1).ok());
  const Status failed = (*store)->AppendTerminal(1, "done");
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE((*store)->AppendTerminal(1, "done").ok());  // next one lands
  fi.Reset();
  EXPECT_EQ((*store)->stats().io_errors, 1u);
}

TEST(StateStore, TornTailAndMidFileGarbageTolerated) {
  FaultInjector::Instance().Reset();
  const TempDir dir("torn");
  {
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE((*store)->AppendServer(1, 24, 80, 5).ok());
    EXPECT_TRUE(
        (*store)
            ->AppendAdmit(1, 1, QuerySpecToJson(JsonlSpec(dir.path() + "/o")))
            .ok());
  }
  // Mid-file garbage (a corrupted but complete line) and a torn tail (a
  // crash mid-append): both are warnings, neither loses the admit.
  {
    std::ofstream out(dir.path() + "/state/journal.jsonl", std::ios::app);
    out << "%% corrupted line %%\n";
    out << "{\"t\":\"admit\",\"id\":2,\"epoch\":1,\"query\":{}}\n";
    out << "{\"t\":\"terminal\",\"id\":2,\"sta";  // torn: no newline, cut
  }
  Result<std::unique_ptr<StateStore>> store =
      StateStore::Open(dir.path() + "/state");
  ASSERT_TRUE(store.ok());
  const RecoveryScan scan = (*store)->Scan();
  EXPECT_EQ(scan.queries.size(), 2u);
  ASSERT_EQ(scan.warnings.size(), 2u);
  EXPECT_NE(scan.warnings[0].find("unparseable"), std::string::npos);
  EXPECT_NE(scan.warnings[1].find("torn record"), std::string::npos);
}

TEST(StateStore, StaleEpochQueriesDiscarded) {
  FaultInjector::Instance().Reset();
  const TempDir dir("epoch");
  Result<std::unique_ptr<StateStore>> store =
      StateStore::Open(dir.path() + "/state");
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->AppendServer(1, 24, 80, 5).ok());
  EXPECT_TRUE(
      (*store)->AppendAdmit(1, 1, QuerySpecToJson(QuerySpec{})).ok());
  // A reload bumped the epoch; query 1 pinned the old graph.
  EXPECT_TRUE((*store)->AppendServer(2, 30, 90, 6).ok());
  EXPECT_TRUE(
      (*store)->AppendAdmit(2, 2, QuerySpecToJson(QuerySpec{})).ok());
  const RecoveryScan scan = (*store)->Scan();
  EXPECT_EQ(scan.epoch, 2u);
  ASSERT_EQ(scan.queries.size(), 1u);
  EXPECT_EQ(scan.queries[0].id, 2u);
  ASSERT_EQ(scan.warnings.size(), 1u);
  EXPECT_NE(scan.warnings[0].find("discarded as stale"), std::string::npos);
}

TEST(StateStore, OpenFailsTypedOnUnusablePath) {
  FaultInjector::Instance().Reset();
  const TempDir dir("openfail");
  { std::ofstream file(dir.path() + "/blocker"); }
  Result<std::unique_ptr<StateStore>> store =
      StateStore::Open(dir.path() + "/blocker/state");
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Engine periodic checkpoint observer

TEST(PeriodicCheckpoint, ObserverFiresBetweenWavesWithColdSnapshots) {
  FaultInjector::Instance().Reset();
  AttributedGraph graph = RandomAttributed(11, 40, 6, 0.3, 0.45);
  MiningRequest request;
  request.options.quasi_clique.gamma = 0.6;
  request.options.quasi_clique.min_size = 4;
  request.options.min_support = 2;
  request.options.min_epsilon = 0.01;
  request.checkpoint_interval_ms = 1;
  std::uint64_t fired = 0;
  std::string last_snapshot;
  std::uint64_t last_emitted = 0;
  request.on_checkpoint = [&](const EngineCheckpoint& cp,
                              const EngineProgress& progress) {
    ++fired;
    last_snapshot = cp.Serialize();
    last_emitted = progress.emitted;
  };
  Result<MiningResponse> response = ExecuteRequest(graph, request);
  ASSERT_TRUE(response.ok());
  ASSERT_GE(fired, 1u) << "graph too small for a 1ms interval";
  // Snapshots are cold (serializable) and re-loadable.
  std::istringstream in(last_snapshot);
  Result<EngineCheckpoint> loaded = EngineCheckpoint::Load(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices, graph.NumVertices());
  EXPECT_LE(last_emitted, response->run.emitted);
}

TEST(PeriodicCheckpoint, IntervalZeroRequiresNoCallbackAndDisables) {
  FaultInjector::Instance().Reset();
  MiningRequest request;
  request.checkpoint_interval_ms = 5;
  EXPECT_EQ(request.Validate().code(), StatusCode::kInvalidArgument);
  request.checkpoint_interval_ms = 0;
  EXPECT_TRUE(request.Validate().ok());
}

// ---------------------------------------------------------------------------
// Server crash recovery

/// The uninterrupted baseline for JsonlSpec on `graph`.
std::vector<std::string> BaselineJsonl(const AttributedGraph& graph,
                                       const std::string& scratch) {
  const std::string path = scratch + "/baseline.jsonl";
  MiningRequest request = JsonlSpec(path);
  Result<MiningResponse> response = ExecuteRequest(graph, request);
  EXPECT_TRUE(response.ok());
  return SortedLines(path);
}

TEST(ServerRecovery, ResumesInterruptedJsonlByteIdentical) {
  FaultInjector::Instance().Reset();
  const TempDir dir("resume");
  auto graph = std::make_shared<const AttributedGraph>(
      RandomAttributed(11, 40, 6, 0.3, 0.45));
  const std::vector<std::string> expected = BaselineJsonl(*graph, dir.path());
  ASSERT_GT(expected.size(), 4u);

  // Simulate the state a crashed server leaves behind: a journal with
  // the admit, a checkpoint from partway through, and an output file
  // holding the lines counted by the snapshot meta plus one trailing
  // line written after it (which recovery must truncate away and
  // re-emit via the resume).
  const std::string out = dir.path() + "/out.jsonl";
  QuerySpec spec = JsonlSpec(out);
  {
    MiningRequest partial = spec;
    partial.budget.max_evaluations = 6;
    Result<MiningResponse> cut = ExecuteRequest(*graph, partial);
    ASSERT_TRUE(cut.ok());
    ASSERT_FALSE(cut->run.exhausted);
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendServer(
                        1, static_cast<std::uint64_t>(graph->NumVertices()),
                        graph->graph().NumEdges(), graph->NumAttributes())
                    .ok());
    ASSERT_TRUE((*store)->AppendAdmit(1, 1, QuerySpecToJson(spec)).ok());
    ASSERT_TRUE((*store)
                    ->WriteCheckpoint(1, cut->run.checkpoint,
                                      cut->run.emitted,
                                      cut->run.patterns_emitted,
                                      cut->jsonl_lines)
                    .ok());
    std::ofstream trailing(out, std::ios::app);
    trailing << "{\"written\":\"after the snapshot\"}\n";
  }

  ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  EXPECT_EQ(server.recovered_queries(), 1u);
  EXPECT_TRUE(server.recovery_warnings().empty())
      << server.recovery_warnings()[0];
  server.Start();
  std::shared_ptr<QuerySession> session = server.Find(1);
  ASSERT_NE(session, nullptr);
  session->WaitTerminal();
  EXPECT_EQ(session->state(), QueryState::kDone);
  EXPECT_TRUE(session->run().exhausted);
  server.Shutdown();

  EXPECT_EQ(SortedLines(out), expected);
  // Reported emission totals are file-cumulative across the crash.
  EXPECT_EQ(session->run().emitted, expected.size());
}

/// A v1 text q<id>.ckpt (the retired whitespace-token encoding, as an
/// older server wrote it) is input recovery no longer reads: the scan
/// warns "re-run from scratch", and the query re-runs whole to
/// byte-identical output, overwriting the stale partial file.
TEST(ServerRecovery, V1TextSnapshotWarnsAndRerunsFromScratch) {
  FaultInjector::Instance().Reset();
  const TempDir dir("textv1");
  auto graph = std::make_shared<const AttributedGraph>(
      RandomAttributed(11, 40, 6, 0.3, 0.45));
  const std::vector<std::string> expected = BaselineJsonl(*graph, dir.path());
  ASSERT_GT(expected.size(), 4u);

  const std::string out = dir.path() + "/out.jsonl";
  QuerySpec spec = JsonlSpec(out);
  {
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendServer(
                        1, static_cast<std::uint64_t>(graph->NumVertices()),
                        graph->graph().NumEdges(), graph->NumAttributes())
                    .ok());
    ASSERT_TRUE((*store)->AppendAdmit(1, 1, QuerySpecToJson(spec)).ok());
    // Bound to this graph and these options, so only the encoding is
    // wrong.
    std::ofstream ckpt(dir.path() + "/state/q1.ckpt");
    ckpt << "scpm-query-meta 1 2 0 2\n"
         << "scpm-checkpoint 1\n"
         << "graph " << graph->NumVertices() << ' ' << graph->NumAttributes()
         << ' ' << graph->graph().NumEdges() << "\n"
         << "options " << ScpmEngine::OptionsFingerprint(spec.options, false)
         << "\nphase tree\ndone-roots 0\nroot-batches 0\nclasses 0\n"
         << "expansions 0\nend\n";
    std::ofstream partial(out);
    partial << expected[0] << "\n" << expected[1] << "\n";
  }

  ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  EXPECT_EQ(server.recovered_queries(), 1u);
  ASSERT_EQ(server.recovery_warnings().size(), 1u);
  EXPECT_NE(server.recovery_warnings()[0].find("re-run from scratch"),
            std::string::npos)
      << server.recovery_warnings()[0];
  EXPECT_NE(server.recovery_warnings()[0].find("invalid-argument"),
            std::string::npos)
      << server.recovery_warnings()[0];
  server.Start();
  std::shared_ptr<QuerySession> session = server.Find(1);
  ASSERT_NE(session, nullptr);
  session->WaitTerminal();
  EXPECT_EQ(session->state(), QueryState::kDone);
  EXPECT_TRUE(session->run().exhausted);
  server.Shutdown();

  EXPECT_EQ(SortedLines(out), expected);
}

TEST(ServerRecovery, AccumulateReRunsFromScratchByteIdentical) {
  FaultInjector::Instance().Reset();
  const TempDir dir("scratch");
  auto graph = std::make_shared<const AttributedGraph>(RandomAttributed(5));
  QuerySpec spec;
  spec.options.quasi_clique.gamma = 0.6;
  spec.options.quasi_clique.min_size = 4;
  spec.options.min_support = 3;
  spec.options.min_epsilon = 0.5;
  spec.options.top_k = 10;

  Result<MiningResponse> direct = ExecuteRequest(*graph, spec);
  ASSERT_TRUE(direct.ok());

  {
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendServer(
                        1, static_cast<std::uint64_t>(graph->NumVertices()),
                        graph->graph().NumEdges(), graph->NumAttributes())
                    .ok());
    ASSERT_TRUE((*store)->AppendAdmit(1, 1, QuerySpecToJson(spec)).ok());
  }
  ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  EXPECT_EQ(server.recovered_queries(), 1u);
  server.Start();
  std::shared_ptr<QuerySession> session = server.Find(1);
  ASSERT_NE(session, nullptr);
  session->WaitTerminal();
  ASSERT_EQ(session->state(), QueryState::kDone);
  server.Shutdown();

  const ScpmResult& a = direct->result;
  const ScpmResult& b = session->result();
  ASSERT_EQ(a.attribute_sets.size(), b.attribute_sets.size());
  for (std::size_t i = 0; i < a.attribute_sets.size(); ++i) {
    EXPECT_EQ(a.attribute_sets[i].attributes, b.attribute_sets[i].attributes);
    EXPECT_EQ(a.attribute_sets[i].support, b.attribute_sets[i].support);
    EXPECT_EQ(a.attribute_sets[i].covered, b.attribute_sets[i].covered);
  }
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].vertices, b.patterns[i].vertices);
    EXPECT_EQ(a.patterns[i].attributes, b.patterns[i].attributes);
  }
}

/// Admit records journaled while queries still carried the retired
/// "batch_grain" perf knob recover and run: the member is dropped on
/// replay, although a fresh submit naming it is rejected.
TEST(ServerRecovery, JournaledRetiredBatchGrainStillRecovers) {
  FaultInjector::Instance().Reset();
  const TempDir dir("grain");
  auto graph = std::make_shared<const AttributedGraph>(RandomAttributed(5));
  JsonValue query = QuerySpecToJson(QuerySpec{});
  query.Set("batch_grain", JsonValue(std::uint64_t{256}));
  ASSERT_FALSE(ParseQuerySpec(query).ok());
  {
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendServer(
                        1, static_cast<std::uint64_t>(graph->NumVertices()),
                        graph->graph().NumEdges(), graph->NumAttributes())
                    .ok());
    ASSERT_TRUE((*store)->AppendAdmit(1, 1, query).ok());
  }
  ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  EXPECT_EQ(server.recovered_queries(), 1u);
  EXPECT_TRUE(server.recovery_warnings().empty());
  server.Start();
  std::shared_ptr<QuerySession> session = server.Find(1);
  ASSERT_NE(session, nullptr);
  session->WaitTerminal();
  EXPECT_EQ(session->state(), QueryState::kDone);
  server.Shutdown();
}

TEST(ServerRecovery, ChangedGraphShapeDiscardsEverything) {
  FaultInjector::Instance().Reset();
  const TempDir dir("shape");
  auto old_graph = std::make_shared<const AttributedGraph>(RandomAttributed(5));
  {
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)
            ->AppendServer(3,
                           static_cast<std::uint64_t>(old_graph->NumVertices()),
                           old_graph->graph().NumEdges(),
                           old_graph->NumAttributes())
            .ok());
    ASSERT_TRUE(
        (*store)->AppendAdmit(9, 3, QuerySpecToJson(QuerySpec{})).ok());
  }
  auto new_graph = std::make_shared<const AttributedGraph>(
      RandomAttributed(6, 30, 6, 0.25, 0.4));
  ScpmServer server(new_graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  EXPECT_EQ(server.recovered_queries(), 0u);
  ASSERT_FALSE(server.recovery_warnings().empty());
  EXPECT_NE(server.recovery_warnings().back().find("shape changed"),
            std::string::npos);
  EXPECT_EQ(server.epoch(), 4u);  // moved past the stale epoch
  // The discarded query's id is still burned: new submissions go above.
  server.Start();
  Result<std::shared_ptr<QuerySession>> fresh = server.Submit(QuerySpec{});
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT((*fresh)->id(), 9u);
}

TEST(ServerRecovery, InvalidJournaledSpecWarnsTypedAndSkips) {
  FaultInjector::Instance().Reset();
  const TempDir dir("invalid");
  auto graph = std::make_shared<const AttributedGraph>(RandomAttributed(5));
  // Journal an admit whose JSON is perfectly well-formed but whose
  // decoded QuerySpec fails Validate(): gamma outside (0, 1]. A crashed
  // server could leave this behind only through a bug or a hand-edited
  // journal — replay must not enqueue it, and must say why.
  QuerySpec bad;
  bad.options.quasi_clique.gamma = 1.5;
  {
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendServer(
                        1, static_cast<std::uint64_t>(graph->NumVertices()),
                        graph->graph().NumEdges(), graph->NumAttributes())
                    .ok());
    ASSERT_TRUE((*store)->AppendAdmit(7, 1, QuerySpecToJson(bad)).ok());
  }
  ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  EXPECT_EQ(server.recovered_queries(), 0u);
  ASSERT_EQ(server.recovery_warnings().size(), 1u);
  const std::string& warning = server.recovery_warnings()[0];
  EXPECT_NE(warning.find("query 7"), std::string::npos) << warning;
  // Typed: the warning carries the rejecting status code.
  EXPECT_NE(warning.find("invalid-argument"), std::string::npos) << warning;
  EXPECT_NE(warning.find("skipped"), std::string::npos) << warning;
  // The skipped admit must not wedge the server: it starts, serves, and
  // a fresh submission lands above the burned id.
  server.Start();
  Result<std::shared_ptr<QuerySession>> fresh = server.Submit(QuerySpec{});
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT((*fresh)->id(), 7u);
  (*fresh)->WaitTerminal();
  EXPECT_EQ((*fresh)->state(), QueryState::kDone);
  server.Shutdown();
}

TEST(ServerRecovery, DrainSuspendsPersistsAndRecovers) {
  FaultInjector::Instance().Reset();
  const TempDir dir("drain");
  auto graph = std::make_shared<const AttributedGraph>(
      RandomAttributed(11, 40, 6, 0.3, 0.45));
  const std::vector<std::string> expected = BaselineJsonl(*graph, dir.path());
  const std::string out = dir.path() + "/out.jsonl";

  std::uint64_t id = 0;
  {
    ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
    ASSERT_TRUE(server.Recover().ok());
    server.Start();
    Result<std::shared_ptr<QuerySession>> submitted =
        server.Submit(JsonlSpec(out));
    ASSERT_TRUE(submitted.ok());
    id = (*submitted)->id();
    // Let it run at least one slice, then drain mid-flight.
    while ((*submitted)->slices() == 0 && !(*submitted)->terminal()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.Drain();
    // Admissions are closed with a typed, non-retryable code.
    Result<std::shared_ptr<QuerySession>> rejected =
        server.Submit(JsonlSpec(out));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
  }

  ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  // Either the query finished before the drain latched it (then the
  // terminal record exists and nothing recovers) or it was suspended
  // and now resumes; both must end in the byte-identical file.
  if (server.recovered_queries() > 0) {
    server.Start();
    std::shared_ptr<QuerySession> session = server.Find(id);
    ASSERT_NE(session, nullptr);
    session->WaitTerminal();
    EXPECT_EQ(session->state(), QueryState::kDone);
    server.Shutdown();
  }
  EXPECT_EQ(SortedLines(out), expected);
}

TEST(ServerRecovery, StatsReportDurabilityCounters) {
  FaultInjector::Instance().Reset();
  const TempDir dir("stats");
  auto graph = std::make_shared<const AttributedGraph>(RandomAttributed(5));
  ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
  ASSERT_TRUE(server.Recover().ok());
  server.Start();
  Result<std::shared_ptr<QuerySession>> submitted =
      server.Submit(JsonlSpec(dir.path() + "/out.jsonl"));
  ASSERT_TRUE(submitted.ok());
  (*submitted)->WaitTerminal();
  const JsonValue stats = server.Stats();
  EXPECT_GE(stats.NumberOr("uptime_ms", -1.0), 0.0);
  EXPECT_EQ(stats.NumberOr("recovered_queries", -1.0), 0.0);
  const JsonValue* durability = stats.Find("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_TRUE(durability->BoolOr("enabled", false));
  EXPECT_GE(durability->NumberOr("journal_appends", 0.0), 2.0);
  EXPECT_GE(durability->NumberOr("journal_fsyncs", 0.0), 2.0);
  EXPECT_EQ(durability->NumberOr("io_errors", -1.0), 0.0);
}

// ---------------------------------------------------------------------------
// Fork + SIGKILL end-to-end

/// Child half of the e2e test: a durable server mining one long jsonl
/// query, killed from outside. Communicates only through the state dir.
void RunCrashChildServer(const std::shared_ptr<const AttributedGraph>& graph,
                         const std::string& state_dir,
                         const std::string& out) {
  ServerOptions options = DurableOptions(state_dir);
  ScpmServer server(graph, options);
  if (!server.Recover().ok()) _exit(3);
  server.Start();
  std::shared_ptr<QuerySession> session = server.Find(1);
  if (session == nullptr) {
    Result<std::shared_ptr<QuerySession>> submitted =
        server.Submit(JsonlSpec(out));
    if (!submitted.ok()) _exit(4);
    session = *submitted;
  }
  session->WaitTerminal();
  server.Shutdown();
  _exit(0);
}

TEST(CrashRecoveryE2E, SigkillMidQueryThenByteIdenticalRecovery) {
  FaultInjector::Instance().Reset();
  const TempDir dir("sigkill");
  const std::string state_dir = dir.path() + "/state";
  const std::string out = dir.path() + "/out.jsonl";
  auto graph = std::make_shared<const AttributedGraph>(
      RandomAttributed(17, 52, 6, 0.3, 0.45));

  // Two incarnations killed mid-run: the second one is killed while
  // *recovering* from the first kill, which is the nastiest window
  // (its poll sees the first incarnation's leftover checkpoint, so the
  // kill lands anywhere between startup and mid-resume).
  int kills = 0;
  for (int incarnation = 0; incarnation < 2; ++incarnation) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      RunCrashChildServer(graph, state_dir, out);  // never returns
    }
    // Wait for fresh durable progress, then SIGKILL — no warning, no
    // drain, exactly what a crash looks like.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    bool progressed = false;
    while (std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) break;  // finished early
      if (FileExists(state_dir + "/q1.ckpt")) {
        progressed = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (progressed) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFSIGNALED(status));
      ++kills;
    }
    if (incarnation == 0 && !progressed) {
      // The child exhausted the query before the first snapshot — the
      // graph is too small for this machine; nothing left to crash.
      break;
    }
  }
  EXPECT_GE(kills, 1) << "query finished before the first snapshot; "
                         "nothing was ever crashed";

  // Final incarnation, in-process: recover and run to completion.
  ScpmServer server(graph, DurableOptions(state_dir));
  ASSERT_TRUE(server.Recover().ok());
  server.Start();
  std::shared_ptr<QuerySession> session = server.Find(1);
  if (session != nullptr) {
    session->WaitTerminal();
    EXPECT_EQ(session->state(), QueryState::kDone);
  }
  server.Shutdown();

  EXPECT_EQ(SortedLines(out), BaselineJsonl(*graph, dir.path()));
}

// ---------------------------------------------------------------------------
// Seeded fault sweep

TEST(FaultSweep, SeededFailuresAlwaysLandTypedAndRecoverable) {
  std::vector<std::uint64_t> seeds = {1, 7, 20260808};
  if (const char* env = std::getenv("SCPM_FAULT_SEED")) {
    seeds = {std::strtoull(env, nullptr, 10)};
  }
  auto graph = std::make_shared<const AttributedGraph>(
      RandomAttributed(11, 40, 6, 0.3, 0.45));
  std::uint64_t total_hits = 0;
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TempDir dir("sweep" + std::to_string(seed));
    FaultInjector::Instance().Seed(seed, 200);

    // Incarnation 1: mine under fire, then drain (snapshots may fail).
    {
      ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
      ASSERT_TRUE(server.Recover().ok());
      server.Start();
      Result<std::shared_ptr<QuerySession>> submitted =
          server.Submit(JsonlSpec(dir.path() + "/out.jsonl"));
      if (submitted.ok()) {
        while (!(*submitted)->terminal() && (*submitted)->slices() < 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      server.Drain();
    }
    // Incarnation 2: recovery itself runs under the same fault seed and
    // must still come up; queries either finish or fail typed.
    {
      ScpmServer server(graph, DurableOptions(dir.path() + "/state"));
      ASSERT_TRUE(server.Recover().ok());
      server.Start();
      std::shared_ptr<QuerySession> session = server.Find(1);
      if (session != nullptr) {
        session->WaitTerminal();
        const QueryState state = session->state();
        EXPECT_TRUE(state == QueryState::kDone ||
                    state == QueryState::kFailed);
        if (state == QueryState::kFailed) {
          EXPECT_FALSE(session->error().ok());
          EXPECT_FALSE(session->error().message().empty());
        }
      }
      server.Shutdown();
    }
    total_hits += FaultInjector::Instance().hits();
    FaultInjector::Instance().Reset();
    // The state dir stays scannable whatever the faults did to it.
    Result<std::unique_ptr<StateStore>> store =
        StateStore::Open(dir.path() + "/state");
    ASSERT_TRUE(store.ok());
    (void)(*store)->Scan();
  }
  EXPECT_GT(total_hits, 0u);  // the sweep actually exercised fault points
}

}  // namespace
}  // namespace scpm
