// Long-lived SCPM query server.
//
// ScpmServer loads an attributed graph once and multiplexes many
// concurrent mining queries over one shared work-stealing pool:
//
//   submit --> [bounded admission queue] --> driver threads --> engine
//                     |                         (max_concurrent)
//                     +-- full? typed kResourceExhausted reject
//
// Each admitted query is a QuerySession (server/session.h) around one
// core MiningRequest. Drivers run sessions through ScpmEngine with the
// server's shared ThreadPool (placement only — output stays
// byte-identical to a direct ScpmMiner::Mine) and a cross-query
// MemoCache view bound to (graph epoch, options fingerprint).
//
// Preemptive scheduling: with a slice policy configured (slice_ms /
// slice_evals), drivers run each query as a chain of budgeted engine
// segments through the checkpoint/resume machinery — a session whose
// slice is cut goes to the BACK of the run queue (round-robin), so a
// cheap query admitted behind a multi-second one completes within a
// couple of slices instead of waiting it out. Slicing never changes
// what a query returns: rows, patterns, and summed lattice counters stay
// byte-identical to an unpreempted run (memo aside, which replays
// work across queries by design).
//
// Live reload: Reload() swaps the graph under the server mutex, bumps
// the epoch, eagerly purges the memo, and prunes stale null models.
// In-flight queries keep mining the graph they pinned at first
// schedule (shared_ptr) or are cancelled, by policy. New queries see
// the new graph immediately; the memo re-warms under the new epoch.
//
// The wire protocol is newline-delimited JSON over a Unix domain
// socket (docs/SERVER.md): ops submit / status / cancel / stats /
// reload / shutdown, optionally versioned with "v": 1 (the only
// version; anything else is a typed kInvalidArgument). HandleRequest()
// is the socket-free core of that protocol — tests and embedders call
// it directly.

#ifndef SCPM_SERVER_SERVER_H_
#define SCPM_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/attributed_graph.h"
#include "nullmodel/expectation.h"
#include "server/json.h"
#include "server/journal.h"
#include "server/memo.h"
#include "server/session.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace scpm {

/// The one protocol version this server speaks. Requests may carry
/// "v": <n>; absent means 1, anything other than 1 is rejected with
/// kInvalidArgument, and stats reports protocol_version.
inline constexpr std::uint64_t kProtocolVersion = 1;

/// Longest request line Serve() buffers, newline excluded. A client
/// whose line grows past it gets one typed kInvalidArgument response
/// and the connection closes.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct ServerOptions {
  /// Worker threads of the shared pool (every query's evaluation and
  /// intra-search tasks run here).
  std::size_t threads = 4;
  /// Driver threads = queries mining at once. Admitted queries beyond
  /// this wait in the queue.
  std::size_t max_concurrent = 2;
  /// Waiting fresh (never-run) queries. A submit past this depth is
  /// rejected with StatusCode::kResourceExhausted. Preempted sessions
  /// re-queueing do not count against admission.
  std::size_t queue_depth = 16;
  /// Cross-query evaluation memo; max_bytes 0 disables it entirely.
  MemoCacheOptions memo;
  /// Preemption slice policy: per-slice wall clock / evaluation budget
  /// granted to a session each time a driver picks it up. Both 0 =
  /// run-to-completion (no preemption).
  std::uint64_t slice_ms = 0;
  std::uint64_t slice_evals = 0;
  /// Wall-clock budget applied to queries that specify no deadline_ms
  /// of their own; 0 = none.
  std::uint64_t default_deadline_ms = 0;
  /// Durable state directory (journal + per-query checkpoints). Empty =
  /// no durability; set it and call Recover() before Start() to arm
  /// auto-checkpointing and crash recovery.
  std::string state_dir;
  /// How often a running query's snapshot is persisted, both by the
  /// engine's between-wave observer and at slice boundaries. Used only
  /// with state_dir set.
  std::uint64_t checkpoint_interval_ms = 1000;
};

/// What happens to queries pinned to the old graph at Reload().
enum class ReloadPolicy {
  kFinishOnOldGraph,  // they keep mining the graph they started on
  kCancelRunning,     // they are cancelled at their next wave boundary
};

class ScpmServer {
 public:
  /// The server shares ownership of the graph; Reload() swaps it.
  ScpmServer(std::shared_ptr<const AttributedGraph> graph,
             ServerOptions options);
  /// Deprecated borrowing constructor (the graph must outlive the
  /// server and every session); kept so existing call sites compile.
  ScpmServer(const AttributedGraph* graph, ServerOptions options);
  ~ScpmServer();
  ScpmServer(const ScpmServer&) = delete;
  ScpmServer& operator=(const ScpmServer&) = delete;

  /// Launches the driver threads. Submit works before Start — sessions
  /// just wait in the queue — which is also how tests fill the admission
  /// queue deterministically.
  void Start();

  /// Stops admission, cancels every queued and running query, and joins
  /// the drivers. Idempotent; implied by the destructor.
  void Shutdown();

  /// Crash recovery + durability arming. With options().state_dir set,
  /// opens the state store, replays the journal, and re-admits every
  /// interrupted query of the last epoch — resuming jsonl queries from
  /// their snapshot (output truncated to the durably counted lines, so
  /// the final file is byte-identical to an uninterrupted run), and
  /// re-running accumulate/topk queries from scratch (their sink state
  /// is in-memory only; the deterministic engine reproduces the same
  /// result). Stale state — foreign epoch, changed graph shape, torn
  /// checkpoint, malformed spec — is discarded with a typed warning
  /// (see recovery_warnings()), never an error. Adopts the journal's
  /// epoch when the graph still matches, else bumps past it. Call once,
  /// before Start(); a no-op without a state_dir.
  Status Recover();

  /// Clean drain for SIGTERM: stops admissions (typed kInternal
  /// reject), suspends running queries at their next wave boundary,
  /// joins the drivers, persists every non-terminal query's snapshot,
  /// and wakes a blocking Serve(). Unlike Shutdown(), nothing is
  /// cancelled — a later Recover() on the same state_dir resumes the
  /// suspended queries. Idempotent; Shutdown() after it is a no-op.
  void Drain();

  /// Human-readable notes from the last Recover() — stale or torn state
  /// that was discarded. Empty on a clean recovery.
  const std::vector<std::string>& recovery_warnings() const {
    return recovery_warnings_;
  }

  /// Queries Recover() re-admitted (also in Stats()).
  std::uint64_t recovered_queries() const;

  /// Admission control: enqueues a session or rejects it. Rejection is
  /// typed — StatusCode::kResourceExhausted when the fresh-query queue
  /// is at queue_depth, kInternal after Shutdown. The server default
  /// deadline is applied here when the spec carries none.
  Result<std::shared_ptr<QuerySession>> Submit(QuerySpec spec);

  /// Session registry lookup (sessions stay queryable after finishing).
  std::shared_ptr<QuerySession> Find(std::uint64_t id) const;

  /// Cancels a query; returns its state as observed by the cancel.
  Result<QueryState> Cancel(std::uint64_t id);

  /// Swaps the served graph under the server mutex, bumps the epoch,
  /// purges the memo (eager BeginEpoch) and stale null models, and
  /// applies `policy` to queries pinned to an older epoch. Queued
  /// sessions that never ran bind to the new graph.
  Status Reload(std::shared_ptr<const AttributedGraph> graph,
                ReloadPolicy policy);

  /// Default graph files for the wire "reload" op when the request
  /// names none (the CLI passes its argv paths). Set before Serve().
  void set_reload_paths(std::string edges_path, std::string attrs_path) {
    reload_edges_path_ = std::move(edges_path);
    reload_attrs_path_ = std::move(attrs_path);
  }

  /// Server-wide aggregates: admission counters, per-state session
  /// counts, memo hit/miss/size, pool shape, epoch, slice policy,
  /// protocol version.
  JsonValue Stats() const;

  /// Executes one protocol request (one JSON line, no trailing newline)
  /// and returns the response JSON (no trailing newline). Never throws;
  /// malformed input yields an {"ok":false,...} response.
  std::string HandleRequest(const std::string& line);

  /// Serves the newline-delimited JSON protocol on a Unix domain socket
  /// until a shutdown request (or Shutdown()) arrives. Blocking; one
  /// thread per accepted connection. An existing socket file at `path`
  /// is replaced. Request lines are capped at kMaxRequestLineBytes.
  Status Serve(const std::string& path);

  /// Snapshot of the currently served graph (epoch-dependent).
  std::shared_ptr<const AttributedGraph> graph() const;
  std::uint64_t epoch() const;
  const MemoCache* memo() const { return memo_.get(); }
  const ServerOptions& options() const { return options_; }

 private:
  struct QueueItem {
    std::shared_ptr<QuerySession> session;
    bool fresh = true;  // counts against queue_depth; preempted don't
  };

  void DriverLoop();
  /// Reads newline-delimited requests off one accepted connection and
  /// answers each, until the peer hangs up, a send fails, or a line
  /// outgrows kMaxRequestLineBytes.
  void ServeConnection(int client);
  /// One driver pickup: bind pins if first time, run one slice, report
  /// whether the session must be re-enqueued.
  bool RunSlice(const std::shared_ptr<QuerySession>& session);
  /// Lazily builds / returns the shared null model for (epoch, quasi-
  /// clique params); nullptr when min_delta == 0.
  std::shared_ptr<ExpectationModel> NullModelFor(
      const ScpmOptions& query_options, std::uint64_t epoch,
      const AttributedGraph& graph);
  JsonValue ErrorResponse(const Status& status) const;
  JsonValue HandleReload(const JsonValue& request);

  /// Best-effort terminal bookkeeping for one finished query: journal
  /// record + checkpoint removal. No-op without a state store.
  void JournalTerminal(const QuerySession& session);

  const ServerOptions options_;
  const SlicePolicy slice_policy_;
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();

  std::unique_ptr<ThreadPool> pool_;
  /// Server-wide intra-search slot pool shared by all concurrent
  /// queries (the per-run 2x rule, applied once to the shared pool).
  ParallelismBudget intra_budget_;
  std::unique_ptr<MemoCache> memo_;  // nullptr when memo.max_bytes == 0

  std::string reload_edges_path_;  // set before Serve, then read-only
  std::string reload_attrs_path_;

  mutable std::mutex mutex_;  // graph/epoch + queue + registry + lifecycle
  std::condition_variable queue_cv_;
  std::shared_ptr<const AttributedGraph> graph_;
  std::uint64_t epoch_ = 1;
  std::uint64_t reloads_ = 0;
  std::deque<QueueItem> queue_;
  std::size_t queued_fresh_ = 0;
  std::uint64_t preemptions_ = 0;
  std::map<std::uint64_t, std::shared_ptr<QuerySession>> sessions_;
  std::vector<std::thread> drivers_;
  bool started_ = false;
  bool stopping_ = false;
  bool draining_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::size_t running_ = 0;
  std::uint64_t recovered_queries_ = 0;

  /// Durable state (journal + checkpoints); nullptr until Recover()
  /// opens it. The store synchronizes internally.
  std::unique_ptr<StateStore> store_;
  std::vector<std::string> recovery_warnings_;  // written by Recover() only

  std::mutex null_models_mutex_;
  std::map<std::tuple<std::uint64_t, double, std::uint32_t>,
           std::shared_ptr<MaxExpectationModel>>
      null_models_;

  /// Serve() lifecycle: write end of the self-pipe that Shutdown() uses
  /// to wake the poll/accept loop.
  std::atomic<int> serve_wake_fd_{-1};
};

}  // namespace scpm

#endif  // SCPM_SERVER_SERVER_H_
