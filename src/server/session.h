// One admitted query of the SCPM query server.
//
// A QuerySession carries everything a single query owns: its parsed
// QuerySpec (a core MiningRequest plus response-shaping extras), its
// state machine (queued -> running -> done | cancelled | failed), its
// timings, its execution pins (graph shared_ptr, epoch, null model) and
// its outcome (the cumulative MiningRun and the sink-dependent result
// payload). The server owns admission and driver threads; the session
// owns running engine *segments* and describing itself as response
// JSON.
//
// Preemption model: the server drives a query as a chain of budgeted
// segments. Each ExecuteSlice() call runs ScpmEngine::Run/Resume with
// a per-slice budget derived from the slice policy and the remaining
// query budget, keeps the EngineCheckpoint in memory on a cut, and
// returns whether the session reached a terminal state; the server
// re-enqueues non-terminal sessions round-robin. The request's sinks
// live in the session across slices, so streaming output survives
// suspension with no duplicate or lost finalized sets.
//
// Determinism contract: Resume() reproduces the exact uncut union and
// every resume seeds uncounted, so a query sliced into N segments
// reports rows, patterns, AND summed lattice and set-kernel counters
// byte-identical to a direct ScpmMiner::Mine with the same options —
// for any slice size and thread count (memo detached; a memo adds
// cross-segment replay that legitimately shrinks work counters). The
// quasi-clique work counters depend on pool scheduling (see
// ScpmCounters).
//
// Thread safety: Cancel() and Describe() may race ExecuteSlice() and
// each other; state, pins, timings, and results are published under
// one mutex. The execution-progress fields (sinks, checkpoint,
// cumulative run) are owned by whichever driver thread holds the
// session between queue pop and re-enqueue — the server's queue mutex
// sequences that handoff.

#ifndef SCPM_SERVER_SESSION_H_
#define SCPM_SERVER_SESSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/request.h"
#include "core/scpm.h"
#include "core/sink.h"
#include "server/json.h"
#include "util/cancel.h"
#include "util/result.h"

namespace scpm {

class ParallelismBudget;
class StateStore;
class ThreadPool;

/// Session lifecycle. Terminal states: kDone, kCancelled, kFailed.
enum class QueryState { kQueued, kRunning, kDone, kCancelled, kFailed };

/// Wire name of a state ("queued", "running", ...).
const char* QueryStateName(QueryState state);

/// Everything a submit request chooses: the unified core MiningRequest
/// (options + budget + sink selection) plus wire-only response shaping.
/// Wire field names mirror the CLI flags (docs/SERVER.md has the full
/// table).
struct QuerySpec : MiningRequest {
  /// Attribute-set rows embedded in an accumulate response (the full
  /// result is always mined; this caps only the response payload).
  std::size_t max_rows = 10000;
};

/// Decodes the "query" object of a submit request into a QuerySpec — a
/// thin JSON -> MiningRequest binder. Unknown members are an error
/// (they are silent typos otherwise); absent members keep the defaults
/// above.
Result<QuerySpec> ParseQuerySpec(const JsonValue& query);

/// Inverse of ParseQuerySpec: the wire object that re-parses to `spec`.
/// Every member ParseQuerySpec knows is emitted explicitly (round-trip
/// does not depend on defaults staying put), except members whose
/// absence IS the value (max_set_size when unlimited) and sink extras
/// that don't apply. The server journals this for crash recovery.
JsonValue QuerySpecToJson(const QuerySpec& spec);

/// Per-slice budget the server grants each ExecuteSlice call. Both
/// zero means "run to the query's own budget" (no preemption).
struct SlicePolicy {
  std::uint64_t slice_ms = 0;     // wall-clock per slice; 0 = unbounded
  std::uint64_t slice_evals = 0;  // evaluations per slice; 0 = unbounded
};

class QuerySession {
 public:
  QuerySession(std::uint64_t id, QuerySpec spec);
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  std::uint64_t id() const { return id_; }
  const QuerySpec& spec() const { return spec_; }

  QueryState state() const;
  bool terminal() const;

  /// Applies the server's default wall-clock budget when the query did
  /// not choose one. Call before the session is queued.
  void ApplyDefaultDeadline(std::uint64_t deadline_ms);

  /// Arms durability: each slice registers the engine's periodic
  /// checkpoint observer, and the driver additionally persists at slice
  /// end when `interval_ms` has elapsed since the last snapshot (engine
  /// observers alone never fire when slices are shorter than the
  /// interval — each segment restarts the engine's clock). Persistence
  /// is best-effort: I/O failures are counted by the store and the
  /// query keeps running. Call before queueing; `store` must outlive
  /// the session.
  void EnableDurability(StateStore* store, std::uint64_t interval_ms);

  /// Seeds a crash-recovered session from its persisted snapshot so the
  /// first slice resumes instead of starting fresh. `jsonl_lines` is
  /// the durable line count already in the output file (the sink then
  /// appends, and reported totals stay file-cumulative). Call before
  /// queueing, only for jsonl-sink queries.
  void SeedRecovered(EngineCheckpoint checkpoint, std::uint64_t emitted,
                     std::uint64_t patterns_emitted, std::uint64_t jsonl_lines);

  /// Asks the running slice (if any) to cut at the next wave boundary
  /// WITHOUT cancelling the query: ExecuteSlice returns false with the
  /// checkpoint retained, exactly like a slice-budget preemption. The
  /// drain path uses this to suspend live queries quickly.
  void Suspend();

  /// Persists the latest snapshot + cumulative counters to `store`
  /// (best-effort, like every durability write). Driver-side state:
  /// call only when no slice is running — e.g. at drain, after the
  /// drivers joined. No-op without a checkpoint.
  void PersistSnapshot(StateStore* store);

  /// Pins the graph epoch this query executes against. Called once by
  /// the driver that first pops the session (under the server's mutex,
  /// so a concurrent reload either re-points the session before the
  /// bind or observes the bind and applies its cancel policy). The
  /// shared_ptr keeps the old graph alive across reloads until the
  /// query finishes on it.
  void Bind(std::shared_ptr<const AttributedGraph> graph, std::uint64_t epoch);
  bool bound() const;
  std::uint64_t pinned_epoch() const;
  std::shared_ptr<const AttributedGraph> pinned_graph() const;

  /// Driver-only: the null model for the pinned graph, attached once
  /// after Bind (built outside the server mutex; shared_ptr so a
  /// reload pruning the server's model cache never invalidates it).
  void set_null_model(std::shared_ptr<ExpectationModel> model) {
    null_model_ = std::move(model);
  }
  bool needs_null_model() const {
    return spec_.options.min_delta > 0 && null_model_ == nullptr;
  }

  /// Runs one budgeted engine segment on the calling (driver) thread
  /// against the pinned graph and returns true when the session is
  /// terminal (done / cancelled / failed) — false means "preempted,
  /// re-enqueue me". `pool`, `intra_budget`, and `memo` are borrowed
  /// for the duration of the call; any may be nullptr. Requires
  /// Bind() first.
  ///
  /// Progress guarantee: a wall-clock slice discards in-flight frontier
  /// entries whole (the byte-identity mechanism), so an entry slower
  /// than the slice would otherwise be retried identically forever.
  /// When a segment completes no entry, the next slice's budget is
  /// doubled (and doubled again, geometrically) until one does, then
  /// the policy budget is restored — every query makes forward
  /// progress at any slice size.
  bool ExecuteSlice(ThreadPool* pool, ParallelismBudget* intra_budget,
                    EvalMemo* memo, const SlicePolicy& policy);

  /// Requests cancellation: a queued session becomes kCancelled
  /// immediately; a running one has its current slice's token latched
  /// (or, when between slices, is reaped at its next slice) and
  /// reaches kCancelled with the partial results harvested; a terminal
  /// one is untouched. Returns the state observed at the call.
  QueryState Cancel();

  /// Blocks until the session is terminal.
  void WaitTerminal() const;

  /// Response JSON for status/submit-wait replies: id, state, timings,
  /// slice count, memo + engine counters, and the sink-dependent
  /// result payload (in terminal states). `graph` supplies attribute
  /// names when the session never bound one; the pinned graph wins.
  JsonValue Describe(const AttributedGraph* graph) const;

  // Terminal-state accessors for in-process callers (tests, smoke
  // drivers). Valid only once terminal() is true.
  const Status& error() const { return error_; }
  const MiningRun& run() const { return run_; }
  /// Accumulate sink only: the assembled result, counters included.
  const ScpmResult& result() const { return result_; }
  /// Top-k sink only.
  const std::vector<StructuralCorrelationPattern>& top_patterns() const {
    return top_patterns_;
  }
  double queue_wait_ms() const;
  double wall_ms() const;
  /// Engine segments run so far.
  std::uint64_t slices() const;

 private:
  /// Remaining-budget slice bounds; false when the query budget is
  /// already spent (caller terminalizes as a budget-cut kDone).
  bool RemainingBudget(const SlicePolicy& policy, EngineBudget* out) const;
  bool QueryBudgetSpent() const;
  /// Publishes the terminal state: harvests the sinks (except on
  /// kFailed), moves the cumulative run into place, notifies waiters.
  void Terminalize(QueryState state, Status error);

  const std::uint64_t id_;
  QuerySpec spec_;  // deadline default applied before queueing

  mutable std::mutex mutex_;
  mutable std::condition_variable terminal_cv_;
  QueryState state_ = QueryState::kQueued;
  bool cancel_requested_ = false;
  /// The running slice's stack-local token (a CancelToken latches
  /// forever, so every slice gets a fresh one; Cancel() latches
  /// whichever is current).
  CancelToken* live_token_ = nullptr;
  std::uint64_t slices_ = 0;
  // Execution pins, written by Bind under mutex_.
  std::shared_ptr<const AttributedGraph> graph_;
  std::uint64_t epoch_ = 0;
  std::chrono::steady_clock::time_point submitted_;
  double queue_wait_ms_ = 0.0;
  double wall_ms_ = 0.0;

  // Driver-only execution progress: owned by the driver thread holding
  // the session; handoff between drivers is sequenced by the server's
  // queue mutex.
  std::shared_ptr<ExpectationModel> null_model_;
  std::unique_ptr<RequestSinks> sinks_;
  MiningRun cum_;  // cumulative across segments
  EngineCheckpoint checkpoint_;
  bool has_checkpoint_ = false;
  /// Zero-progress escalation: multiplies the slice policy's budgets
  /// after a segment that completed no frontier entry; reset to 1 the
  /// moment a segment makes progress.
  std::uint64_t stall_factor_ = 1;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_at_;
  // Durability (driver-only, like the fields above). jsonl_base_lines_
  // is the durable line count a recovered session's output file already
  // held; snapshots and reported totals add it so they stay
  // file-cumulative across crashes.
  StateStore* store_ = nullptr;
  std::uint64_t persist_interval_ms_ = 0;
  std::chrono::steady_clock::time_point last_persist_;
  std::uint64_t jsonl_base_lines_ = 0;

  // Outcome, published under mutex_ at the terminal transition.
  Status error_;
  MiningRun run_;
  ScpmResult result_;                                       // accumulate
  std::vector<StructuralCorrelationPattern> top_patterns_;  // topk
  std::uint64_t topk_sets_seen_ = 0;                        // topk
  std::uint64_t jsonl_lines_ = 0;                           // jsonl
};

/// Engine counters as a JSON object (sorted keys; field names match
/// ScpmCountersJson / docs/SERVER.md).
JsonValue CountersToJson(const ScpmCounters& counters);

}  // namespace scpm

#endif  // SCPM_SERVER_SESSION_H_
