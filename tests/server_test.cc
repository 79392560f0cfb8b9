// Query-server tests: byte-identity of server results against a direct
// ScpmMiner::Mine for thread counts {1, 2, 8} with the memo cold and
// hot, deterministic admission-control rejection at the configured queue
// depth, cancellation of queued and running queries, streaming sinks
// through the server, the wire protocol via HandleRequest, the socket
// front end's request-line cap and its reaping of closed connections'
// threads, and memo-disabled operation. The concurrency tests run under
// TSan in CI.

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/scpm.h"
#include "graph/attributed_graph.h"
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
/// (same construction as engine_test.cc).
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

/// Rows and patterns only — what a memo-hot run must still reproduce
/// byte-identically (its work counters legitimately shrink).
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

/// Output plus the lattice and set-kernel counters (memo-cold runs do
/// all the work, so even the set-kernel counters match a direct Mine()).
/// The quasi-clique work counters are left out: a session runs on the
/// server's pool, where they depend on scheduling.
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

TEST(ServerTest, MatchesDirectMineMemoColdAndHotAcrossThreadCounts) {
  const AttributedGraph graph = RandomAttributed(42);
  const ScpmResult direct = DirectMine(graph, Table1Options());
  ASSERT_FALSE(direct.attribute_sets.empty());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServerOptions options;
    options.threads = threads;
    options.max_concurrent = 2;
    ScpmServer server(&graph, options);
    server.Start();

    std::shared_ptr<QuerySession> cold =
        SubmitOk(&server, AccumulateSpec(Table1Options()));
    cold->WaitTerminal();
    ASSERT_EQ(cold->state(), QueryState::kDone);
    EXPECT_TRUE(cold->run().exhausted);
    // Cold: all evaluations did real work, so the counters match a
    // direct Mine().
    ExpectIdenticalResults(cold->result(), direct);
    EXPECT_EQ(cold->run().memo_hits, 0u);
    EXPECT_EQ(cold->run().memo_misses,
              cold->result().counters.attribute_sets_evaluated);

    std::shared_ptr<QuerySession> hot =
        SubmitOk(&server, AccumulateSpec(Table1Options()));
    hot->WaitTerminal();
    ASSERT_EQ(hot->state(), QueryState::kDone);
    // Hot: rows and patterns are byte-identical, every evaluation was a
    // replay, and the deterministic lattice counters did not move.
    ExpectIdenticalRows(hot->result(), direct);
    EXPECT_EQ(hot->run().memo_hits,
              hot->result().counters.attribute_sets_evaluated);
    EXPECT_EQ(hot->run().memo_misses, 0u);
    EXPECT_EQ(hot->result().counters.attribute_sets_evaluated,
              direct.counters.attribute_sets_evaluated);
    EXPECT_EQ(hot->result().counters.attribute_sets_reported,
              direct.counters.attribute_sets_reported);
    EXPECT_EQ(hot->result().counters.coverage_candidates, 0u);
  }
}

TEST(ServerTest, ConcurrentQueriesStayIsolated) {
  const AttributedGraph graph = RandomAttributed(11);
  ScpmOptions loose = Table1Options();
  loose.min_support = 2;
  loose.min_epsilon = 0.3;
  ScpmOptions strict = Table1Options();
  strict.min_epsilon = 0.7;

  const ScpmResult direct_base = DirectMine(graph, Table1Options());
  const ScpmResult direct_loose = DirectMine(graph, loose);
  const ScpmResult direct_strict = DirectMine(graph, strict);

  ServerOptions options;
  options.threads = 4;
  options.max_concurrent = 3;
  ScpmServer server(&graph, options);
  server.Start();

  // Three different fingerprints mine concurrently over one pool; two
  // more repeat the first spec and may race it on the same memo keys.
  std::vector<std::shared_ptr<QuerySession>> sessions;
  sessions.push_back(SubmitOk(&server, AccumulateSpec(Table1Options())));
  sessions.push_back(SubmitOk(&server, AccumulateSpec(loose)));
  sessions.push_back(SubmitOk(&server, AccumulateSpec(strict)));
  sessions.push_back(SubmitOk(&server, AccumulateSpec(Table1Options())));
  sessions.push_back(SubmitOk(&server, AccumulateSpec(Table1Options())));
  for (const auto& session : sessions) session->WaitTerminal();
  for (const auto& session : sessions) {
    ASSERT_EQ(session->state(), QueryState::kDone);
  }

  ExpectIdenticalRows(sessions[0]->result(), direct_base);
  ExpectIdenticalRows(sessions[1]->result(), direct_loose);
  ExpectIdenticalRows(sessions[2]->result(), direct_strict);
  ExpectIdenticalRows(sessions[3]->result(), direct_base);
  ExpectIdenticalRows(sessions[4]->result(), direct_base);
  // Whatever the interleaving, every evaluation either hit or missed.
  for (const auto& session : sessions) {
    EXPECT_EQ(session->run().memo_hits + session->run().memo_misses,
              session->result().counters.attribute_sets_evaluated);
  }
}

TEST(ServerTest, AdmissionRejectsDeterministicallyAtQueueDepth) {
  const AttributedGraph graph = RandomAttributed(3);
  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  options.queue_depth = 2;
  ScpmServer server(&graph, options);
  // No Start() yet: the queue fills deterministically.

  std::shared_ptr<QuerySession> first =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  std::shared_ptr<QuerySession> second =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  Result<std::shared_ptr<QuerySession>> third =
      server.Submit(AccumulateSpec(Table1Options()));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);

  server.Start();
  first->WaitTerminal();
  second->WaitTerminal();
  EXPECT_EQ(first->state(), QueryState::kDone);
  EXPECT_EQ(second->state(), QueryState::kDone);

  // The queue drained: admission works again.
  std::shared_ptr<QuerySession> fourth =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  fourth->WaitTerminal();
  EXPECT_EQ(fourth->state(), QueryState::kDone);
}

TEST(ServerTest, CancelQueuedQueryNeverRuns) {
  const AttributedGraph graph = RandomAttributed(3);
  ServerOptions options;
  options.max_concurrent = 1;
  ScpmServer server(&graph, options);

  std::shared_ptr<QuerySession> session =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  Result<QueryState> observed = server.Cancel(session->id());
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, QueryState::kQueued);
  EXPECT_EQ(session->state(), QueryState::kCancelled);
  EXPECT_EQ(session->error().code(), StatusCode::kCancelled);

  // The driver skips the cancelled session and serves the next one.
  server.Start();
  std::shared_ptr<QuerySession> live =
      SubmitOk(&server, AccumulateSpec(Table1Options()));
  live->WaitTerminal();
  EXPECT_EQ(live->state(), QueryState::kDone);
  EXPECT_EQ(session->state(), QueryState::kCancelled);
}

TEST(ServerTest, CancelRunningQueryCutsAndFreesTheSlot) {
  // A lattice big enough that the query cannot finish before the cancel
  // lands (hundreds of thousands of evaluations at these thresholds).
  const AttributedGraph graph = RandomAttributed(7, 80, 14, 0.3, 0.5);
  ScpmOptions heavy;
  heavy.quasi_clique.gamma = 0.5;
  heavy.quasi_clique.min_size = 3;
  heavy.min_support = 1;
  heavy.min_epsilon = 0.0;

  ServerOptions options;
  options.threads = 2;
  options.max_concurrent = 1;
  ScpmServer server(&graph, options);
  server.Start();

  std::shared_ptr<QuerySession> session =
      SubmitOk(&server, AccumulateSpec(heavy));
  while (session->state() == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(session->state(), QueryState::kRunning);
  server.Cancel(session->id());
  session->WaitTerminal();

  EXPECT_EQ(session->state(), QueryState::kCancelled);
  EXPECT_EQ(session->error().code(), StatusCode::kCancelled);
  EXPECT_FALSE(session->run().exhausted);

  // The driver slot is free again: a budgeted follow-up query runs to a
  // normal (budget-cut) completion instead of waiting behind a zombie.
  QuerySpec follow_up = AccumulateSpec(heavy);
  follow_up.budget.deadline_ms = 100;
  std::shared_ptr<QuerySession> after = SubmitOk(&server, std::move(follow_up));
  after->WaitTerminal();
  EXPECT_EQ(after->state(), QueryState::kDone);
  EXPECT_FALSE(after->run().exhausted);
}

TEST(ServerTest, JsonlAndTopKSinksThroughTheServer) {
  const AttributedGraph graph = RandomAttributed(42);
  const ScpmResult direct = DirectMine(graph, Table1Options());
  ServerOptions options;
  options.threads = 2;
  ScpmServer server(&graph, options);
  server.Start();

  const std::string path =
      ::testing::TempDir() + "/server_test_sink.jsonl";
  QuerySpec jsonl = AccumulateSpec(Table1Options());
  jsonl.sink = QuerySpec::Sink::kJsonl;
  jsonl.jsonl_path = path;
  std::shared_ptr<QuerySession> jsonl_session =
      SubmitOk(&server, std::move(jsonl));
  jsonl_session->WaitTerminal();
  ASSERT_EQ(jsonl_session->state(), QueryState::kDone);
  EXPECT_EQ(jsonl_session->run().emitted, direct.attribute_sets.size());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    Result<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    ++lines;
  }
  EXPECT_EQ(lines, direct.attribute_sets.size());
  std::remove(path.c_str());

  QuerySpec topk = AccumulateSpec(Table1Options());
  topk.sink = QuerySpec::Sink::kTopK;
  topk.sink_k = 3;
  std::shared_ptr<QuerySession> topk_session =
      SubmitOk(&server, std::move(topk));
  topk_session->WaitTerminal();
  ASSERT_EQ(topk_session->state(), QueryState::kDone);
  // The top-k sink's global ranking equals the accumulated result's
  // pattern order, so its output is the direct result's prefix.
  const std::size_t expect =
      std::min<std::size_t>(3, direct.patterns.size());
  ASSERT_EQ(topk_session->top_patterns().size(), expect);
  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_EQ(topk_session->top_patterns()[i].attributes,
              direct.patterns[i].attributes);
    EXPECT_EQ(topk_session->top_patterns()[i].vertices,
              direct.patterns[i].vertices);
  }
}

TEST(ServerTest, WireProtocolRoundTrip) {
  const AttributedGraph graph = RandomAttributed(42);
  ServerOptions options;
  options.threads = 2;
  ScpmServer server(&graph, options);
  server.Start();

  // Malformed JSON and unknown ops are typed protocol errors.
  Result<JsonValue> bad = JsonValue::Parse(server.HandleRequest("{nope"));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->BoolOr("ok", true));
  EXPECT_EQ(bad->StringOr("code", ""), "invalid-argument");
  Result<JsonValue> unknown =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"mystery\"}"));
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->BoolOr("ok", true));

  // Submit-and-wait returns the full terminal description.
  const std::string submit =
      "{\"op\":\"submit\",\"wait\":true,\"query\":{\"gamma\":0.6,"
      "\"min_size\":4,\"sigma_min\":3,\"eps_min\":0.5,\"top_k\":10}}";
  Result<JsonValue> first = JsonValue::Parse(server.HandleRequest(submit));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->BoolOr("ok", false));
  const JsonValue* query = first->Find("query");
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->StringOr("state", ""), "done");
  EXPECT_TRUE(query->BoolOr("exhausted", false));
  EXPECT_GT(query->NumberOr("emitted", 0), 0.0);
  EXPECT_EQ(query->NumberOr("memo_hits", -1), 0.0);

  // The identical second query is memo-hot and byte-identical on the
  // wire (minus the work counters and timings).
  Result<JsonValue> second = JsonValue::Parse(server.HandleRequest(submit));
  ASSERT_TRUE(second.ok());
  const JsonValue* hot = second->Find("query");
  ASSERT_NE(hot, nullptr);
  EXPECT_GT(hot->NumberOr("memo_hits", 0), 0.0);
  EXPECT_EQ(hot->NumberOr("memo_misses", -1), 0.0);
  ASSERT_NE(query->Find("result"), nullptr);
  ASSERT_NE(hot->Find("result"), nullptr);
  EXPECT_EQ(query->Find("result")->Dump(), hot->Find("result")->Dump());

  // Status by id; cancel of an unknown id is typed not-found.
  const std::uint64_t id =
      static_cast<std::uint64_t>(first->NumberOr("id", 0));
  Result<JsonValue> status = JsonValue::Parse(server.HandleRequest(
      "{\"op\":\"status\",\"id\":" + std::to_string(id) + "}"));
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->BoolOr("ok", false));
  Result<JsonValue> missing = JsonValue::Parse(
      server.HandleRequest("{\"op\":\"cancel\",\"id\":999999}"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->StringOr("code", ""), "not-found");

  // Stats aggregate the repeated query into a positive memo hit rate.
  Result<JsonValue> stats =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  const JsonValue* memo = stats->Find("memo");
  ASSERT_NE(memo, nullptr);
  EXPECT_TRUE(memo->BoolOr("enabled", false));
  EXPECT_GT(memo->NumberOr("hit_rate", 0), 0.0);
  EXPECT_EQ(stats->NumberOr("submitted", 0), 2.0);

  // Shutdown stops admission with a typed error.
  Result<JsonValue> stop =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(stop.ok());
  EXPECT_TRUE(stop->BoolOr("ok", false));
  Result<JsonValue> late = JsonValue::Parse(server.HandleRequest(submit));
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late->BoolOr("ok", true));
}

/// Connects to the server's socket, retrying while Serve() is still
/// binding. Returns -1 if it never comes up.
int ConnectWithRetry(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      // A server that never answers fails the test instead of hanging it.
      const timeval timeout{10, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends all of `data`, stopping quietly if the peer closes.
void SendQuietly(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Reads up to and excluding the first newline ("" on EOF before one).
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return "";
}

TEST(ServerTest, OverlongRequestLineIsRejectedTypedAndClosed) {
  const AttributedGraph graph = RandomAttributed(42);
  ServerOptions options;
  options.threads = 2;
  ScpmServer server(&graph, options);
  server.Start();
  const std::string path = "./server_test_cap_" + std::to_string(::getpid());
  std::thread serve([&] { EXPECT_TRUE(server.Serve(path).ok()); });
  struct StopOnExit {
    ScpmServer* server;
    std::thread* serve;
    ~StopOnExit() {
      server->Shutdown();
      serve->join();
    }
  } stop_on_exit{&server, &serve};

  // A client streaming past the cap with no newline gets one typed
  // error, then the server closes the connection.
  const int hog = ConnectWithRetry(path);
  ASSERT_GE(hog, 0);
  SendQuietly(hog, std::string(kMaxRequestLineBytes + 8192, 'x'));
  Result<JsonValue> error = JsonValue::Parse(ReadLine(hog));
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->BoolOr("ok", true));
  EXPECT_EQ(error->StringOr("code", ""), "invalid-argument");
  EXPECT_EQ(ReadLine(hog), "");  // closed: nothing more arrives
  ::close(hog);

  // The server itself is unharmed: a fresh connection is served.
  const int fresh = ConnectWithRetry(path);
  ASSERT_GE(fresh, 0);
  SendQuietly(fresh, "{\"op\":\"stats\"}\n");
  Result<JsonValue> stats = JsonValue::Parse(ReadLine(fresh));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->BoolOr("ok", false));
  SendQuietly(fresh, "{\"op\":\"shutdown\"}\n");
  Result<JsonValue> stop = JsonValue::Parse(ReadLine(fresh));
  ASSERT_TRUE(stop.ok());
  EXPECT_TRUE(stop->BoolOr("ok", false));
  ::close(fresh);
}

/// Entries under /proc/self/task: the process's live threads.
std::size_t LiveThreads() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// The process's mapped address space (VmSize), in bytes. A thread that
/// exited without being joined keeps its stack mapped here.
std::size_t MappedBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoull(line.substr(7)) * 1024;  // reported in kB
    }
  }
  return 0;
}

/// Connection threads are reaped as their connections close: after 200
/// sequential one-request connections the thread count is back near
/// where it started, and the address space has not kept a stack per
/// connection ever accepted.
TEST(ServerTest, ClosedConnectionsLeaveNoThreadsBehind) {
  const AttributedGraph graph = RandomAttributed(42);
  ServerOptions options;
  options.threads = 2;
  ScpmServer server(&graph, options);
  server.Start();
  const std::string path = "./server_test_reap_" + std::to_string(::getpid());
  std::thread serve([&] { EXPECT_TRUE(server.Serve(path).ok()); });
  struct StopOnExit {
    ScpmServer* server;
    std::thread* serve;
    ~StopOnExit() {
      server->Shutdown();
      serve->join();
    }
  } stop_on_exit{&server, &serve};

  const auto one_request = [&path] {
    const int fd = ConnectWithRetry(path);
    ASSERT_GE(fd, 0);
    SendQuietly(fd, "{\"op\":\"stats\"}\n");
    Result<JsonValue> stats = JsonValue::Parse(ReadLine(fd));
    ::close(fd);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->BoolOr("ok", false));
  };
  one_request();  // the server is up and has served once
  const std::size_t threads_before = LiveThreads();
  const std::size_t mapped_before = MappedBytes();
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) one_request();

  // The last connection's thread may still be on its way out.
  for (int wait = 0; wait < 200 && LiveThreads() > threads_before + 1;
       ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(LiveThreads(), threads_before + 1);
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  // Unjoined, the 200 exited threads would keep 200 stacks mapped.
  EXPECT_LT(MappedBytes(), mapped_before + kConnections / 10 * stack_bytes);
}

TEST(ServerTest, MemoDisabledStillMatchesDirectMine) {
  const AttributedGraph graph = RandomAttributed(42);
  const ScpmResult direct = DirectMine(graph, Table1Options());
  ServerOptions options;
  options.threads = 2;
  options.memo.max_bytes = 0;  // memo off entirely
  ScpmServer server(&graph, options);
  server.Start();

  for (int round = 0; round < 2; ++round) {
    std::shared_ptr<QuerySession> session =
        SubmitOk(&server, AccumulateSpec(Table1Options()));
    session->WaitTerminal();
    ASSERT_EQ(session->state(), QueryState::kDone);
    // No memo: both rounds do the full work and match on every counter.
    ExpectIdenticalResults(session->result(), direct);
    EXPECT_EQ(session->run().memo_hits, 0u);
    EXPECT_EQ(session->run().memo_misses, 0u);
  }
  Result<JsonValue> stats =
      JsonValue::Parse(server.HandleRequest("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->Find("memo")->BoolOr("enabled", true));
}

/// The retired "batch_grain" perf knob is an unknown member now: a
/// submit naming it gets a typed invalid-argument that names it, and no
/// query is admitted.
TEST(ServerTest, SubmitWithRetiredBatchGrainIsTypedInvalidArgument) {
  const AttributedGraph graph = RandomAttributed(42);
  ServerOptions options;
  options.threads = 2;
  ScpmServer server(&graph, options);
  server.Start();
  Result<JsonValue> reply = JsonValue::Parse(server.HandleRequest(
      "{\"op\":\"submit\",\"wait\":true,"
      "\"query\":{\"sigma_min\":3,\"batch_grain\":256}}"));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->BoolOr("ok", true));
  EXPECT_EQ(reply->StringOr("code", ""), "invalid-argument");
  EXPECT_NE(reply->StringOr("error", "").find("batch_grain"),
            std::string::npos)
      << reply->Dump();
  EXPECT_EQ(server.Find(1), nullptr);
  server.Shutdown();
}

TEST(ServerTest, ParseQuerySpecRejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuerySpec(JsonValue(3.0)).ok());

  JsonValue unknown = JsonValue::MakeObject();
  unknown.Set("bogus_member", JsonValue(1.0));
  EXPECT_FALSE(ParseQuerySpec(unknown).ok());

  JsonValue wrong_type = JsonValue::MakeObject();
  wrong_type.Set("gamma", JsonValue("0.5"));
  EXPECT_FALSE(ParseQuerySpec(wrong_type).ok());

  JsonValue jsonl_no_out = JsonValue::MakeObject();
  jsonl_no_out.Set("sink", JsonValue("jsonl"));
  EXPECT_FALSE(ParseQuerySpec(jsonl_no_out).ok());

  JsonValue ok = JsonValue::MakeObject();
  ok.Set("gamma", JsonValue(0.6));
  ok.Set("sink", JsonValue("topk"));
  ok.Set("sink_k", JsonValue(7.0));
  Result<QuerySpec> spec = ParseQuerySpec(ok);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->sink, QuerySpec::Sink::kTopK);
  EXPECT_EQ(spec->sink_k, 7u);
  EXPECT_DOUBLE_EQ(spec->options.quasi_clique.gamma, 0.6);
}

/// Parses `text` as a query object; the test's inputs are well-formed.
Result<QuerySpec> ParseQueryText(const std::string& text) {
  Result<JsonValue> query = JsonValue::Parse(text);
  EXPECT_TRUE(query.ok()) << text;
  return ParseQuerySpec(*query);
}

/// Integer members take only whole numbers that fit their type: a
/// negative, fractional or oversized number is a typed invalid-argument
/// naming the member, never a wrapped or truncated value.
TEST(ServerTest, ParseQuerySpecRangeChecksIntegerMembers) {
  const std::vector<std::string> integer_members = {
      "min_size",    "sigma_min", "top_k",        "max_set_size",
      "min_report_size", "intra_min", "intra_depth",
      "deadline_ms", "max_evals", "max_patterns", "sink_k",
      "max_rows"};
  for (const std::string& member : integer_members) {
    for (const std::string bad :
         {"-1", "-3", "2.5", "0.5", "1e300", "18446744073709551616"}) {
      const std::string text = "{\"" + member + "\":" + bad + "}";
      Result<QuerySpec> spec = ParseQueryText(text);
      ASSERT_FALSE(spec.ok()) << text;
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
      EXPECT_NE(spec.status().message().find(member), std::string::npos)
          << spec.status();
    }
  }
  // 32-bit members reject 2^32 + 1 rather than wrapping it to 1, which
  // would pass the intra_depth <= 16 check.
  for (const std::string member : {"min_size", "intra_depth"}) {
    const std::string text = "{\"" + member + "\":4294967297}";
    Result<QuerySpec> spec = ParseQueryText(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // In range: a whole number, written with or without a fraction.
  Result<QuerySpec> ok = ParseQueryText(
      "{\"sigma_min\":3.0,\"min_size\":4,\"max_evals\":4294967297}");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->options.min_support, 3u);
  EXPECT_EQ(ok->options.quasi_clique.min_size, 4u);
  EXPECT_EQ(ok->budget.max_evaluations, 4294967297u);
  // A non-number is still reported as one.
  Result<QuerySpec> text_value = ParseQueryText("{\"sigma_min\":\"3\"}");
  ASSERT_FALSE(text_value.ok());
  EXPECT_NE(text_value.status().message().find("must be a number"),
            std::string::npos)
      << text_value.status();
}

TEST(ServerTest, StatusAndCancelRangeCheckTheId) {
  const AttributedGraph graph = RandomAttributed(42);
  ServerOptions options;
  options.threads = 1;
  ScpmServer server(&graph, options);
  server.Start();
  for (const std::string op : {"status", "cancel"}) {
    for (const std::string id : {"-1", "1.5", "1e300"}) {
      const std::string request =
          "{\"op\":\"" + op + "\",\"id\":" + id + "}";
      Result<JsonValue> reply = JsonValue::Parse(server.HandleRequest(request));
      ASSERT_TRUE(reply.ok());
      EXPECT_FALSE(reply->BoolOr("ok", true)) << request;
      EXPECT_EQ(reply->StringOr("code", ""), "invalid-argument") << request;
    }
    // A whole id that names no query is still not-found.
    Result<JsonValue> missing = JsonValue::Parse(
        server.HandleRequest("{\"op\":\"" + op + "\",\"id\":99}"));
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing->StringOr("code", ""), "not-found");
  }
}

}  // namespace
}  // namespace scpm
