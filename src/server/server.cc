#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include "core/engine.h"
#include "graph/io.h"
#include "util/fault.h"

namespace scpm {

namespace {

/// Writes the whole buffer, retrying partial writes; SIGPIPE suppressed
/// so a client hanging up mid-response just fails the send.
bool SendAll(int fd, const std::string& data) {
  if (FaultInjector::Instance().ShouldFail(fault::kSocketSend)) {
    return false;  // simulated client hang-up mid-response
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Truncates `path` after its first `lines` newline-terminated lines.
/// Returns false when the file holds fewer lines than that (the durable
/// count outran the file — the snapshot can't be resumed against it).
bool TruncateToLines(const std::string& path, std::uint64_t lines) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return lines == 0;
  std::uint64_t seen = 0;
  std::uint64_t offset = 0;
  char c;
  while (seen < lines && in.get(c)) {
    ++offset;
    if (c == '\n') ++seen;
  }
  in.close();
  if (seen < lines) return false;
  return ::truncate(path.c_str(), static_cast<off_t>(offset)) == 0;
}

}  // namespace

ScpmServer::ScpmServer(std::shared_ptr<const AttributedGraph> graph,
                       ServerOptions options)
    : options_(options),
      slice_policy_{options.slice_ms, options.slice_evals},
      pool_(std::make_unique<ThreadPool>(
          std::max<std::size_t>(1, options.threads))),
      // The per-run "2x threads" intra-search slot rule, applied once to
      // the shared pool: concurrent queries borrow decomposition slots
      // from one server-wide pot instead of oversubscribing per query.
      intra_budget_(2 * std::max<std::size_t>(1, options.threads)),
      graph_(std::move(graph)) {
  if (options_.memo.max_bytes > 0) {
    memo_ = std::make_unique<MemoCache>(options_.memo);
    memo_->BeginEpoch(epoch_);
  }
}

ScpmServer::ScpmServer(const AttributedGraph* graph, ServerOptions options)
    : ScpmServer(std::shared_ptr<const AttributedGraph>(graph,
                                                        [](const auto*) {}),
                 options) {}

ScpmServer::~ScpmServer() { Shutdown(); }

void ScpmServer::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_ || stopping_) return;
  started_ = true;
  const std::size_t drivers = std::max<std::size_t>(1, options_.max_concurrent);
  drivers_.reserve(drivers);
  for (std::size_t i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { DriverLoop(); });
  }
}

void ScpmServer::Shutdown() {
  std::vector<std::thread> drivers;
  std::vector<std::shared_ptr<QuerySession>> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    drivers.swap(drivers_);
    for (const auto& [id, session] : sessions_) {
      if (!session->terminal()) to_cancel.push_back(session);
    }
  }
  queue_cv_.notify_all();
  // Cancel queued sessions (their next driver pickup terminalizes them)
  // and cut running ones at their next wave boundary. Drivers drain the
  // queue before exiting, so every preempted session reaches a terminal
  // state.
  for (const std::shared_ptr<QuerySession>& session : to_cancel) {
    session->Cancel();
  }
  for (std::thread& t : drivers) t.join();
  // Wake a blocking Serve() accept loop, if one is running. A pipe write
  // is the only portably reliable wakeup — shutdown() on a listening
  // AF_UNIX socket does not interrupt accept() everywhere.
  const int wake = serve_wake_fd_.load();
  if (wake >= 0) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake, &byte, 1);
  }
}

Status ScpmServer::Recover() {
  if (options_.state_dir.empty()) return Status::OK();
  Result<std::unique_ptr<StateStore>> opened =
      StateStore::Open(options_.state_dir);
  if (!opened.ok()) return opened.status();

  std::unique_ptr<StateStore> store = std::move(opened).value();
  const RecoveryScan scan = store->Scan();
  recovery_warnings_ = scan.warnings;

  std::shared_ptr<const AttributedGraph> graph;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_ || stopping_) {
      return Status::Internal("Recover() must run before Start()");
    }
    graph = graph_;
  }
  const std::uint64_t vertices =
      static_cast<std::uint64_t>(graph->NumVertices());
  const std::uint64_t edges = graph->graph().NumEdges();
  const std::uint64_t attributes = graph->NumAttributes();
  // Epoch adoption: same graph shape -> continue the journal's epoch
  // (checkpoints stay valid); different shape -> everything in the
  // journal is stale, move past its epoch so the scan's own epoch
  // filter would discard it even on a later scan.
  const bool shape_matches = scan.epoch != 0 && scan.vertices == vertices &&
                             scan.edges == edges &&
                             scan.attributes == attributes;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (scan.epoch != 0) epoch_ = shape_matches ? scan.epoch : scan.epoch + 1;
    if (scan.max_id >= next_id_) next_id_ = scan.max_id + 1;
    epoch = epoch_;
    store_ = std::move(store);
  }
  if (memo_ != nullptr) memo_->BeginEpoch(epoch);
  (void)store_->AppendServer(epoch, vertices, edges, attributes);

  if (scan.epoch != 0 && !shape_matches) {
    for (const RecoveredQuery& q : scan.queries) {
      recovery_warnings_.push_back(
          "query " + std::to_string(q.id) +
          " pinned a graph whose shape changed; discarded as stale");
    }
    return Status::OK();
  }

  for (const RecoveredQuery& q : scan.queries) {
    // Journals written while the retired "batch_grain" perf knob existed
    // carry it in every admit record; it never changed what was mined.
    JsonValue query = q.query;
    if (query.is_object()) query.MutableObject()->erase("batch_grain");
    Result<QuerySpec> parsed = ParseQuerySpec(query);
    if (!parsed.ok()) {
      // Covers both malformed JSON members and well-formed specs that
      // fail Validate() (ParseQuerySpec is the single gate); the typed
      // status says which.
      recovery_warnings_.push_back("query " + std::to_string(q.id) +
                                   " has a journaled spec the binder "
                                   "rejects (" +
                                   parsed.status().ToString() + "); skipped");
      continue;
    }
    QuerySpec spec = std::move(parsed).value();
    // Where can the query restart? Resuming mid-walk needs both a valid
    // snapshot bound to this graph+options AND a sink whose emitted
    // prefix is durable. Only jsonl qualifies: its lines are on disk,
    // truncated here to the snapshot's atomically-counted prefix (lines
    // written after the snapshot re-emit on resume). Accumulate/topk
    // sinks lose their in-memory state with the process, so they re-run
    // from scratch — the engine is deterministic, the client still gets
    // the byte-identical result, just recomputed.
    bool resume = q.has_checkpoint;
    if (resume && (q.checkpoint.num_vertices != graph->NumVertices() ||
                   q.checkpoint.num_edges != edges ||
                   q.checkpoint.num_attributes != attributes ||
                   q.checkpoint.options_fingerprint !=
                       ScpmEngine::OptionsFingerprint(
                           spec.options, spec.options.min_delta > 0.0))) {
      recovery_warnings_.push_back(
          "query " + std::to_string(q.id) +
          " checkpoint does not bind to the current graph/options; "
          "re-running from scratch");
      resume = false;
    }
    if (resume && spec.sink != QuerySpec::Sink::kJsonl) resume = false;
    if (resume && !TruncateToLines(spec.jsonl_path, q.jsonl_lines)) {
      recovery_warnings_.push_back(
          "query " + std::to_string(q.id) + " output " + spec.jsonl_path +
          " is shorter than its snapshot recorded; re-running from scratch");
      resume = false;
    }

    auto session = std::make_shared<QuerySession>(q.id, std::move(spec));
    session->ApplyDefaultDeadline(options_.default_deadline_ms);
    session->EnableDurability(store_.get(), options_.checkpoint_interval_ms);
    if (resume) {
      session->SeedRecovered(q.checkpoint, q.emitted, q.patterns_emitted,
                             q.jsonl_lines);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.emplace(session->id(), session);
      // fresh=false: recovered queries were admitted before the crash
      // and bypass the admission queue_depth on the way back in.
      queue_.push_back(QueueItem{session, /*fresh=*/false});
      ++recovered_queries_;
    }
    queue_cv_.notify_one();
  }
  return Status::OK();
}

void ScpmServer::Drain() {
  std::vector<std::thread> drivers;
  std::vector<std::shared_ptr<QuerySession>> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || draining_) return;
    draining_ = true;
    drivers.swap(drivers_);
    for (const auto& [id, session] : sessions_) {
      if (!session->terminal()) live.push_back(session);
    }
  }
  queue_cv_.notify_all();
  // Suspend in a loop until the drivers are gone: a driver that was
  // between queue pop and slice start when the first sweep ran only
  // registers its token afterwards, so one latch pass isn't enough.
  std::atomic<bool> joined{false};
  std::thread suspender([&live, &joined] {
    while (!joined.load()) {
      for (const std::shared_ptr<QuerySession>& session : live) {
        session->Suspend();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  for (std::thread& t : drivers) t.join();
  joined.store(true);
  suspender.join();
  // Single-threaded now: persist every suspended query's latest
  // snapshot so Recover() on this state_dir resumes instead of
  // re-running. Best-effort, like all durability writes.
  if (store_ != nullptr) {
    for (const std::shared_ptr<QuerySession>& session : live) {
      if (session->terminal()) {
        JournalTerminal(*session);
      } else {
        session->PersistSnapshot(store_.get());
      }
    }
  }
  // Wake a blocking Serve() loop the same way Shutdown() does.
  const int wake = serve_wake_fd_.load();
  if (wake >= 0) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake, &byte, 1);
  }
}

std::uint64_t ScpmServer::recovered_queries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovered_queries_;
}

Result<std::shared_ptr<QuerySession>> ScpmServer::Submit(QuerySpec spec) {
  std::shared_ptr<QuerySession> session;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ++rejected_;
      return Status::Internal("server is shutting down");
    }
    if (draining_) {
      // Deliberately NOT kResourceExhausted: a drain never un-fills, so
      // retry loops keyed on that code must not spin against it.
      ++rejected_;
      return Status::Internal("server is draining");
    }
    if (queued_fresh_ >= options_.queue_depth) {
      ++rejected_;
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queued_fresh_) + "/" +
          std::to_string(options_.queue_depth) + " queued)");
    }
    session = std::make_shared<QuerySession>(next_id_++, std::move(spec));
    session->ApplyDefaultDeadline(options_.default_deadline_ms);
    if (store_ != nullptr) {
      session->EnableDurability(store_.get(), options_.checkpoint_interval_ms);
    }
    sessions_.emplace(session->id(), session);
    queue_.push_back(QueueItem{session, /*fresh=*/true});
    ++queued_fresh_;
    ++submitted_;
    epoch = epoch_;
  }
  // Journal the admission outside the lock (fsync per record). Best
  // effort like every durability write: on failure the query still runs,
  // it just won't be recovered after a crash.
  if (store_ != nullptr) {
    (void)store_->AppendAdmit(session->id(), epoch,
                              QuerySpecToJson(session->spec()));
  }
  queue_cv_.notify_one();
  return session;
}

std::shared_ptr<QuerySession> ScpmServer::Find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Result<QueryState> ScpmServer::Cancel(std::uint64_t id) {
  std::shared_ptr<QuerySession> session = Find(id);
  if (session == nullptr) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  const QueryState observed = session->Cancel();
  // Cancelled-while-queued terminalizes synchronously, with no driver
  // pickup guaranteed to follow (drain!) — journal the terminal here.
  // Running sessions terminalize on their driver, which journals then;
  // a duplicate record (driver still pops the queued session) is
  // harmless, the scan keeps terminal state idempotent.
  if (observed == QueryState::kQueued) JournalTerminal(*session);
  return observed;
}

void ScpmServer::JournalTerminal(const QuerySession& session) {
  if (store_ == nullptr) return;
  (void)store_->AppendTerminal(session.id(), QueryStateName(session.state()));
  store_->RemoveCheckpoint(session.id());
}

std::shared_ptr<const AttributedGraph> ScpmServer::graph() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_;
}

std::uint64_t ScpmServer::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

Status ScpmServer::Reload(std::shared_ptr<const AttributedGraph> graph,
                          ReloadPolicy policy) {
  if (graph == nullptr) {
    return Status::InvalidArgument("reload graph must not be null");
  }
  std::vector<std::shared_ptr<QuerySession>> to_cancel;
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Status::Internal("server is shutting down");
    graph_ = std::move(graph);
    epoch = ++epoch_;
    ++reloads_;
    if (policy == ReloadPolicy::kCancelRunning) {
      // Sessions pinned to an older epoch — running a slice right now
      // or preempted in the queue. Never-run sessions stay: they bind
      // to the new graph at their first pickup. (Binds happen under
      // this mutex, so a session is either pinned old here or will pin
      // new.)
      for (const auto& [id, session] : sessions_) {
        if (!session->terminal() && session->bound() &&
            session->pinned_epoch() < epoch) {
          to_cancel.push_back(session);
        }
      }
    }
  }
  // Epoch-keyed caches: the memo purges eagerly (stale entries are
  // unreachable the moment the epoch bumped); null models for old
  // epochs drop from the server cache (in-flight sessions hold their
  // own shared_ptr).
  if (memo_ != nullptr) memo_->BeginEpoch(epoch);
  {
    std::lock_guard<std::mutex> lock(null_models_mutex_);
    for (auto it = null_models_.begin(); it != null_models_.end();) {
      it = std::get<0>(it->first) != epoch ? null_models_.erase(it)
                                           : std::next(it);
    }
  }
  for (const std::shared_ptr<QuerySession>& session : to_cancel) {
    session->Cancel();
  }
  return Status::OK();
}

std::shared_ptr<ExpectationModel> ScpmServer::NullModelFor(
    const ScpmOptions& query_options, std::uint64_t epoch,
    const AttributedGraph& graph) {
  if (query_options.min_delta <= 0.0) return nullptr;
  const std::tuple<std::uint64_t, double, std::uint32_t> key(
      epoch, query_options.quasi_clique.gamma,
      query_options.quasi_clique.min_size);
  std::lock_guard<std::mutex> lock(null_models_mutex_);
  auto it = null_models_.find(key);
  if (it == null_models_.end()) {
    it = null_models_
             .emplace(key, std::make_shared<MaxExpectationModel>(
                               graph.graph(), query_options.quasi_clique))
             .first;
  }
  return it->second;
}

void ScpmServer::DriverLoop() {
  while (true) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_ || draining_ || !queue_.empty();
      });
      // Draining: exit immediately, leaving the queue as-is — Drain()
      // persists the suspended sessions once the drivers are gone.
      // (Shutdown instead drains the queue: every item left is
      // cancelled and terminalizes on pickup.)
      if (draining_) return;
      if (queue_.empty()) return;  // stopping_, nothing left to drain
      item = std::move(queue_.front());
      queue_.pop_front();
      if (item.fresh) --queued_fresh_;
      ++running_;
      // Pin the session's graph epoch under the same mutex that Reload
      // swaps under, closing the race between binding and the reload
      // cancel sweep.
      if (!item.session->bound()) item.session->Bind(graph_, epoch_);
    }
    const bool terminal = RunSlice(item.session);
    if (terminal) JournalTerminal(*item.session);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (!terminal) {
        // Round-robin: a preempted session goes to the back, behind
        // every waiting query.
        queue_.push_back(QueueItem{item.session, /*fresh=*/false});
        ++preemptions_;
      }
    }
    if (!terminal) queue_cv_.notify_one();
  }
}

bool ScpmServer::RunSlice(const std::shared_ptr<QuerySession>& session) {
  // The session pins graph + epoch + null model for its whole life, so
  // a concurrent reload never changes what this query computes.
  const std::shared_ptr<const AttributedGraph> graph = session->pinned_graph();
  const std::uint64_t epoch = session->pinned_epoch();
  if (session->needs_null_model()) {
    session->set_null_model(
        NullModelFor(session->spec().options, epoch, *graph));
  }
  if (memo_ == nullptr) {
    return session->ExecuteSlice(pool_.get(), &intra_budget_, nullptr,
                                 slice_policy_);
  }
  // Bind the cross-query memo to this query's (epoch, output-relevant
  // options): queries with different thresholds never share entries,
  // queries differing only in perf knobs do.
  MemoCache::BoundView memo = memo_->Bind(
      epoch,
      ScpmEngine::OptionsFingerprint(session->spec().options,
                                     session->spec().options.min_delta > 0.0));
  return session->ExecuteSlice(pool_.get(), &intra_budget_, &memo,
                               slice_policy_);
}

JsonValue ScpmServer::Stats() const {
  JsonValue out = JsonValue::MakeObject();
  std::uint64_t by_state[5] = {0, 0, 0, 0, 0};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.Set("submitted", JsonValue(submitted_));
    out.Set("rejected", JsonValue(rejected_));
    out.Set("queued", JsonValue(std::uint64_t{queued_fresh_}));
    out.Set("preempted_queued",
            JsonValue(std::uint64_t{queue_.size() - queued_fresh_}));
    out.Set("preemptions", JsonValue(preemptions_));
    out.Set("running", JsonValue(std::uint64_t{running_}));
    out.Set("epoch", JsonValue(epoch_));
    out.Set("reloads", JsonValue(reloads_));
    out.Set("draining", JsonValue(draining_));
    out.Set("recovered_queries", JsonValue(recovered_queries_));
    JsonValue graph = JsonValue::MakeObject();
    graph.Set("vertices",
              JsonValue(static_cast<std::uint64_t>(graph_->NumVertices())));
    graph.Set("edges", JsonValue(graph_->graph().NumEdges()));
    graph.Set("attributes", JsonValue(graph_->NumAttributes()));
    out.Set("graph", std::move(graph));
    for (const auto& [id, session] : sessions_) {
      ++by_state[static_cast<int>(session->state())];
    }
  }
  JsonValue states = JsonValue::MakeObject();
  for (int s = 0; s < 5; ++s) {
    states.Set(QueryStateName(static_cast<QueryState>(s)),
               JsonValue(by_state[s]));
  }
  out.Set("sessions", std::move(states));
  out.Set("protocol_version", JsonValue(kProtocolVersion));
  out.Set("threads", JsonValue(std::uint64_t{pool_->num_threads()}));
  out.Set("max_concurrent", JsonValue(std::uint64_t{options_.max_concurrent}));
  out.Set("queue_depth", JsonValue(std::uint64_t{options_.queue_depth}));
  out.Set("slice_ms", JsonValue(options_.slice_ms));
  out.Set("slice_evals", JsonValue(options_.slice_evals));
  out.Set("default_deadline_ms", JsonValue(options_.default_deadline_ms));

  JsonValue memo = JsonValue::MakeObject();
  memo.Set("enabled", JsonValue(memo_ != nullptr));
  if (memo_ != nullptr) {
    const MemoCache::Stats stats = memo_->stats();
    memo.Set("hits", JsonValue(stats.hits));
    memo.Set("misses", JsonValue(stats.misses));
    const std::uint64_t lookups = stats.hits + stats.misses;
    memo.Set("hit_rate",
             JsonValue(lookups == 0
                           ? 0.0
                           : static_cast<double>(stats.hits) /
                                 static_cast<double>(lookups)));
    memo.Set("insertions", JsonValue(stats.insertions));
    memo.Set("evictions", JsonValue(stats.evictions));
    memo.Set("entries", JsonValue(stats.entries));
    memo.Set("bytes", JsonValue(stats.bytes));
    memo.Set("max_bytes", JsonValue(std::uint64_t{options_.memo.max_bytes}));
  }
  out.Set("memo", std::move(memo));

  out.Set("uptime_ms",
          JsonValue(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started_at_)
                        .count()));
  JsonValue durability = JsonValue::MakeObject();
  durability.Set("enabled", JsonValue(store_ != nullptr));
  if (store_ != nullptr) {
    const JournalStats js = store_->stats();
    durability.Set("state_dir", JsonValue(options_.state_dir));
    durability.Set("checkpoint_interval_ms",
                   JsonValue(options_.checkpoint_interval_ms));
    durability.Set("journal_appends", JsonValue(js.appends));
    durability.Set("journal_fsyncs", JsonValue(js.fsyncs));
    durability.Set("checkpoint_writes", JsonValue(js.checkpoint_writes));
    durability.Set("io_errors", JsonValue(js.io_errors));
  }
  out.Set("durability", std::move(durability));
  return out;
}

JsonValue ScpmServer::ErrorResponse(const Status& status) const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue(false));
  out.Set("error", JsonValue(status.ToString()));
  out.Set("code", JsonValue(StatusCodeToString(status.code())));
  return out;
}

JsonValue ScpmServer::HandleReload(const JsonValue& request) {
  const JsonValue* edges = request.Find("edges");
  const JsonValue* attrs = request.Find("attrs");
  const JsonValue* policy_value = request.Find("policy");
  if ((edges != nullptr && !edges->is_string()) ||
      (attrs != nullptr && !attrs->is_string())) {
    return ErrorResponse(
        Status::InvalidArgument("reload \"edges\"/\"attrs\" must be strings"));
  }
  if (policy_value != nullptr && !policy_value->is_string()) {
    return ErrorResponse(
        Status::InvalidArgument("reload \"policy\" must be a string"));
  }
  const std::string edges_path =
      edges != nullptr ? edges->AsString() : reload_edges_path_;
  const std::string attrs_path =
      attrs != nullptr ? attrs->AsString() : reload_attrs_path_;
  if (edges_path.empty() || attrs_path.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "reload requires \"edges\" and \"attrs\" (no server default paths)"));
  }
  ReloadPolicy policy = ReloadPolicy::kFinishOnOldGraph;
  if (policy_value != nullptr) {
    const std::string& name = policy_value->AsString();
    if (name == "cancel") {
      policy = ReloadPolicy::kCancelRunning;
    } else if (name != "finish") {
      return ErrorResponse(
          Status::InvalidArgument("unknown reload policy: " + name));
    }
  }
  // The load happens outside the server mutex — only the pointer swap
  // is a barrier; queries keep draining while the files parse.
  Result<AttributedGraph> loaded = LoadAttributedGraph(edges_path, attrs_path);
  if (!loaded.ok()) return ErrorResponse(loaded.status());
  auto graph =
      std::make_shared<const AttributedGraph>(std::move(loaded).value());
  const Status status = Reload(graph, policy);
  if (!status.ok()) return ErrorResponse(status);
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue(true));
  out.Set("epoch", JsonValue(epoch()));
  out.Set("policy", JsonValue(policy == ReloadPolicy::kCancelRunning
                                  ? "cancel"
                                  : "finish"));
  JsonValue shape = JsonValue::MakeObject();
  shape.Set("vertices",
            JsonValue(static_cast<std::uint64_t>(graph->NumVertices())));
  shape.Set("edges", JsonValue(graph->graph().NumEdges()));
  shape.Set("attributes", JsonValue(graph->NumAttributes()));
  out.Set("graph", std::move(shape));
  return out;
}

std::string ScpmServer::HandleRequest(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) return ErrorResponse(parsed.status()).Dump();
  const JsonValue& request = *parsed;
  if (!request.is_object()) {
    return ErrorResponse(Status::InvalidArgument("request must be an object"))
        .Dump();
  }
  // Protocol versioning: absent "v" means version 1 (the pre-versioning
  // wire format is version 1); any other version is a typed reject so
  // future clients fail loudly instead of being half-understood.
  const JsonValue* version = request.Find("v");
  if (version != nullptr &&
      (!version->is_number() ||
       version->AsNumber() != static_cast<double>(kProtocolVersion))) {
    return ErrorResponse(Status::InvalidArgument(
                             "unsupported protocol version (server speaks v" +
                             std::to_string(kProtocolVersion) + ")"))
        .Dump();
  }
  const std::string op = request.StringOr("op", "");

  if (op == "submit") {
    const JsonValue* query = request.Find("query");
    Result<QuerySpec> spec =
        ParseQuerySpec(query != nullptr ? *query : JsonValue::MakeObject());
    if (!spec.ok()) return ErrorResponse(spec.status()).Dump();
    Result<std::shared_ptr<QuerySession>> session =
        Submit(std::move(spec).value());
    if (!session.ok()) return ErrorResponse(session.status()).Dump();
    JsonValue out = JsonValue::MakeObject();
    out.Set("ok", JsonValue(true));
    out.Set("id", JsonValue((*session)->id()));
    if (request.BoolOr("wait", false)) {
      (*session)->WaitTerminal();
      out.Set("query", (*session)->Describe(graph().get()));
    } else {
      out.Set("state", JsonValue(QueryStateName((*session)->state())));
    }
    return out.Dump();
  }

  if (op == "status" || op == "cancel") {
    const JsonValue* id_value = request.Find("id");
    if (id_value == nullptr || !id_value->is_number()) {
      return ErrorResponse(
                 Status::InvalidArgument("op \"" + op + "\" requires \"id\""))
          .Dump();
    }
    Result<std::uint64_t> parsed_id = JsonWholeNumber(
        *id_value, "id", std::numeric_limits<std::uint64_t>::max());
    if (!parsed_id.ok()) return ErrorResponse(parsed_id.status()).Dump();
    const std::uint64_t id = *parsed_id;
    std::shared_ptr<QuerySession> session = Find(id);
    if (session == nullptr) {
      return ErrorResponse(
                 Status::NotFound("no query with id " + std::to_string(id)))
          .Dump();
    }
    JsonValue out = JsonValue::MakeObject();
    out.Set("ok", JsonValue(true));
    if (op == "cancel") {
      // Through the server, not the session: cancel-while-queued must
      // also journal the terminal record.
      const QueryState observed = Cancel(id).value();
      out.Set("id", JsonValue(id));
      out.Set("was", JsonValue(QueryStateName(observed)));
      out.Set("state", JsonValue(QueryStateName(session->state())));
    } else {
      out.Set("query", session->Describe(graph().get()));
    }
    return out.Dump();
  }

  if (op == "reload") return HandleReload(request).Dump();

  if (op == "stats") {
    JsonValue out = Stats();
    out.Set("ok", JsonValue(true));
    return out.Dump();
  }

  if (op == "shutdown") {
    Shutdown();
    JsonValue out = JsonValue::MakeObject();
    out.Set("ok", JsonValue(true));
    out.Set("state", JsonValue("stopped"));
    return out.Dump();
  }

  return ErrorResponse(Status::InvalidArgument(
                           op.empty() ? "request is missing \"op\""
                                      : "unknown op: " + op))
      .Dump();
}

void ScpmServer::ServeConnection(int client) {
  std::string buffer;  // the unterminated tail of the stream
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(client, chunk, sizeof(chunk), 0);
    if (n <= 0) return;
    // Bytes already buffered were scanned on an earlier chunk and hold
    // no newline: only the bytes just appended are searched.
    std::size_t from = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t newline;
    bool too_long = false;
    while ((newline = buffer.find('\n', from)) != std::string::npos) {
      too_long = newline - start > kMaxRequestLineBytes;
      if (too_long) break;
      const std::string line = buffer.substr(start, newline - start);
      start = from = newline + 1;
      if (!line.empty() && !SendAll(client, HandleRequest(line) + "\n")) {
        return;
      }
    }
    buffer.erase(0, start);
    if (too_long || buffer.size() > kMaxRequestLineBytes) {
      const Status status = Status::InvalidArgument(
          "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
          " bytes");
      (void)SendAll(client, ErrorResponse(status).Dump() + "\n");
      return;
    }
  }
}

Status ScpmServer::Serve(const std::string& path) {
  if (path.size() + 1 > sizeof(sockaddr_un::sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IoError("bind " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) < 0) {
    const Status status =
        Status::IoError("listen " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  int wake_pipe[2];
  if (::pipe(wake_pipe) < 0) {
    const Status status =
        Status::IoError(std::string("pipe: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  serve_wake_fd_.store(wake_pipe[1]);
  {
    // Shutdown() may already have run (e.g. before Serve was called):
    // don't block in poll for a wakeup that already happened.
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      const char byte = 0;
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe[1], &byte, 1);
    }
  }

  // Live client fds, shared with the connection threads: a thread erases
  // (and closes) its own fd under the mutex when done; shutdown shuts
  // the remaining ones read-side so blocked recv()s return. SHUT_RD
  // (not RDWR) lets an in-flight response — the shutdown ack itself —
  // still reach the client.
  std::mutex clients_mutex;
  std::vector<int> clients;
  // Connection threads by sequence number. A finished thread queues its
  // number in `finished` (under clients_mutex); the accept loop joins
  // those before serving the next client, so the map holds live
  // connections only and an exited thread's stack is released instead
  // of staying mapped until shutdown.
  std::map<std::uint64_t, std::thread> connections;
  std::vector<std::uint64_t> finished;
  std::uint64_t next_connection = 0;
  const auto reap_finished = [&] {
    std::vector<std::uint64_t> done;
    {
      std::lock_guard<std::mutex> lock(clients_mutex);
      done.swap(finished);
    }
    for (const std::uint64_t id : done) {
      auto it = connections.find(id);
      it->second.join();
      connections.erase(it);
    }
  };
  while (true) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      // Shutdown() woke us. Reading its byte orders its write before
      // the close of the pipe below.
      char byte;
      [[maybe_unused]] const ssize_t n = ::read(wake_pipe[0], &byte, 1);
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    reap_finished();
    {
      std::lock_guard<std::mutex> lock(clients_mutex);
      clients.push_back(client);
    }
    const std::uint64_t id = next_connection++;
    connections.emplace(
        id, std::thread([this, client, id, &clients_mutex, &clients,
                         &finished] {
          ServeConnection(client);
          std::lock_guard<std::mutex> lock(clients_mutex);
          clients.erase(std::find(clients.begin(), clients.end(), client));
          ::close(client);
          finished.push_back(id);
        }));
  }
  {
    std::lock_guard<std::mutex> lock(clients_mutex);
    for (const int client : clients) ::shutdown(client, SHUT_RD);
  }
  for (auto& [id, t] : connections) t.join();
  serve_wake_fd_.store(-1);
  ::close(wake_pipe[0]);
  ::close(wake_pipe[1]);
  ::close(fd);
  ::unlink(path.c_str());
  return Status::OK();
}

}  // namespace scpm
