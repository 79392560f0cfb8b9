#include "server/session.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "core/statistics.h"
#include "graph/attributed_graph.h"
#include "server/journal.h"
#include "util/fault.h"

namespace scpm {

namespace {

double MsSince(std::chrono::steady_clock::time_point since,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - since).count();
}

/// Decodes integer query member `key` into *out by the wire rule
/// (JsonWholeNumber). A non-number is left to the type check after the
/// member dispatch in ParseQuerySpec.
template <typename T>
Status ReadWhole(const JsonValue& value, const std::string& key, T* out) {
  if (!value.is_number()) return Status::OK();
  Result<std::uint64_t> n = JsonWholeNumber(value, "query member " + key,
                                            std::numeric_limits<T>::max());
  if (!n.ok()) return n.status();
  *out = static_cast<T>(*n);
  return Status::OK();
}

JsonValue IdArray(const std::vector<AttributeId>& ids) {
  JsonValue out = JsonValue::MakeArray();
  for (AttributeId a : ids) {
    out.MutableArray()->push_back(JsonValue(std::uint64_t{a}));
  }
  return out;
}

JsonValue VertexArray(const VertexSet& vertices) {
  JsonValue out = JsonValue::MakeArray();
  for (VertexId v : vertices) {
    out.MutableArray()->push_back(JsonValue(static_cast<std::uint64_t>(v)));
  }
  return out;
}

JsonValue PatternToJson(const StructuralCorrelationPattern& pattern) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("attributes", IdArray(pattern.attributes));
  out.Set("vertices", VertexArray(pattern.vertices));
  out.Set("min_degree_ratio", JsonValue(pattern.min_degree_ratio));
  out.Set("edge_density", JsonValue(pattern.edge_density));
  return out;
}

JsonValue StatsToJson(const AttributeSetStats& stats,
                      const AttributedGraph* graph) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("attributes", IdArray(stats.attributes));
  if (graph != nullptr) {
    JsonValue names = JsonValue::MakeArray();
    for (AttributeId a : stats.attributes) {
      names.MutableArray()->push_back(JsonValue(graph->AttributeName(a)));
    }
    out.Set("names", std::move(names));
  }
  out.Set("support", JsonValue(std::uint64_t{stats.support}));
  out.Set("covered", JsonValue(std::uint64_t{stats.covered}));
  out.Set("epsilon", JsonValue(stats.epsilon));
  out.Set("expected_epsilon", JsonValue(stats.expected_epsilon));
  out.Set("delta", JsonValue(stats.delta));
  return out;
}

/// min of two limits where 0 means "unlimited".
std::uint64_t CombineLimit(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

}  // namespace

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kRunning:
      return "running";
    case QueryState::kDone:
      return "done";
    case QueryState::kCancelled:
      return "cancelled";
    case QueryState::kFailed:
      return "failed";
  }
  return "unknown";
}

JsonValue CountersToJson(const ScpmCounters& counters) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("attribute_sets_evaluated",
          JsonValue(counters.attribute_sets_evaluated));
  out.Set("attribute_sets_reported",
          JsonValue(counters.attribute_sets_reported));
  out.Set("attribute_sets_extended",
          JsonValue(counters.attribute_sets_extended));
  out.Set("coverage_candidates", JsonValue(counters.coverage_candidates));
  out.Set("intra_search_evaluations",
          JsonValue(counters.intra_search_evaluations));
  out.Set("intra_branch_tasks", JsonValue(counters.intra_branch_tasks));
  out.Set("bitmap_intersections", JsonValue(counters.bitmap_intersections));
  out.Set("galloping_intersections",
          JsonValue(counters.galloping_intersections));
  out.Set("dense_conversions", JsonValue(counters.dense_conversions));
  return out;
}

Result<QuerySpec> ParseQuerySpec(const JsonValue& query) {
  if (!query.is_object()) {
    return Status::InvalidArgument("query must be a JSON object");
  }
  QuerySpec spec;
  // Table 1 / CLI defaults are NOT assumed here: an empty query object
  // mines with the library defaults of ScpmOptions, exactly like a
  // default-constructed ScpmMiner.
  for (const auto& [key, value] : query.AsObject()) {
    // Type discipline up front: a wrong-typed member must not silently
    // decay to 0 / "" / false and mine something else than intended.
    const bool string_key =
        key == "scope" || key == "order" || key == "sink" || key == "out";
    const bool bool_key = key == "collect_patterns" || key == "hybrid";
    if (string_key && !value.is_string()) {
      return Status::InvalidArgument("query member " + key +
                                     " must be a string");
    }
    if (bool_key && !value.is_bool()) {
      return Status::InvalidArgument("query member " + key +
                                     " must be a boolean");
    }
    // Every other member is a number. That is checked after the dispatch
    // below, so an unknown member is reported as unknown whatever its
    // value.
    const bool number_ok = string_key || bool_key || value.is_number();
    const auto number = [&v = value]() { return v.AsNumber(); };
    if (key == "gamma") {
      spec.options.quasi_clique.gamma = number();
    } else if (key == "min_size") {
      SCPM_RETURN_IF_ERROR(
          ReadWhole(value, key, &spec.options.quasi_clique.min_size));
    } else if (key == "sigma_min") {
      SCPM_RETURN_IF_ERROR(ReadWhole(value, key, &spec.options.min_support));
    } else if (key == "eps_min") {
      spec.options.min_epsilon = number();
    } else if (key == "delta_min") {
      spec.options.min_delta = number();
    } else if (key == "top_k") {
      SCPM_RETURN_IF_ERROR(ReadWhole(value, key, &spec.options.top_k));
    } else if (key == "scope") {
      const std::string& scope = value.AsString();
      if (scope == "maximal") {
        spec.options.pattern_scope = PatternScope::kAllMaximal;
      } else if (scope == "topk") {
        spec.options.pattern_scope = PatternScope::kTopK;
      } else {
        return Status::InvalidArgument("unknown scope: " + scope);
      }
    } else if (key == "order") {
      const std::string& order = value.AsString();
      if (order == "bfs") {
        spec.options.search_order = SearchOrder::kBfs;
      } else if (order == "dfs") {
        spec.options.search_order = SearchOrder::kDfs;
      } else {
        return Status::InvalidArgument("unknown order: " + order);
      }
    } else if (key == "max_set_size") {
      SCPM_RETURN_IF_ERROR(
          ReadWhole(value, key, &spec.options.max_attribute_set_size));
    } else if (key == "min_report_size") {
      SCPM_RETURN_IF_ERROR(
          ReadWhole(value, key, &spec.options.min_report_size));
    } else if (key == "collect_patterns") {
      spec.options.collect_patterns = value.AsBool();
    } else if (key == "intra_min") {
      SCPM_RETURN_IF_ERROR(
          ReadWhole(value, key, &spec.options.intra_search_min_universe));
    } else if (key == "intra_depth") {
      SCPM_RETURN_IF_ERROR(
          ReadWhole(value, key, &spec.options.intra_search_spawn_depth));
    } else if (key == "hybrid") {
      spec.options.use_hybrid_sets = value.AsBool();
    } else if (key == "deadline_ms") {
      SCPM_RETURN_IF_ERROR(ReadWhole(value, key, &spec.budget.deadline_ms));
    } else if (key == "max_evals") {
      SCPM_RETURN_IF_ERROR(
          ReadWhole(value, key, &spec.budget.max_evaluations));
    } else if (key == "max_patterns") {
      SCPM_RETURN_IF_ERROR(ReadWhole(value, key, &spec.budget.max_patterns));
    } else if (key == "sink") {
      const std::string& sink = value.AsString();
      if (sink == "accumulate") {
        spec.sink = QuerySpec::Sink::kAccumulate;
      } else if (sink == "jsonl") {
        spec.sink = QuerySpec::Sink::kJsonl;
      } else if (sink == "topk") {
        spec.sink = QuerySpec::Sink::kTopK;
      } else {
        return Status::InvalidArgument("unknown sink: " + sink);
      }
    } else if (key == "out") {
      spec.jsonl_path = value.AsString();
    } else if (key == "sink_k") {
      SCPM_RETURN_IF_ERROR(ReadWhole(value, key, &spec.sink_k));
    } else if (key == "max_rows") {
      SCPM_RETURN_IF_ERROR(ReadWhole(value, key, &spec.max_rows));
    } else {
      return Status::InvalidArgument("unknown query member: " + key);
    }
    if (!number_ok) {
      return Status::InvalidArgument("query member " + key +
                                     " must be a number");
    }
  }
  if (spec.sink == QuerySpec::Sink::kJsonl && spec.jsonl_path.empty()) {
    return Status::InvalidArgument("sink \"jsonl\" requires \"out\"");
  }
  SCPM_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

JsonValue QuerySpecToJson(const QuerySpec& spec) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("gamma", JsonValue(spec.options.quasi_clique.gamma));
  out.Set("min_size",
          JsonValue(std::uint64_t{spec.options.quasi_clique.min_size}));
  out.Set("sigma_min", JsonValue(std::uint64_t{spec.options.min_support}));
  out.Set("eps_min", JsonValue(spec.options.min_epsilon));
  out.Set("delta_min", JsonValue(spec.options.min_delta));
  out.Set("top_k", JsonValue(std::uint64_t{spec.options.top_k}));
  out.Set("scope",
          JsonValue(spec.options.pattern_scope == PatternScope::kTopK
                        ? "topk"
                        : "maximal"));
  out.Set("order", JsonValue(spec.options.search_order == SearchOrder::kDfs
                                 ? "dfs"
                                 : "bfs"));
  // "Unlimited" is spelled by absence: SIZE_MAX does not survive the
  // JSON double round-trip.
  if (spec.options.max_attribute_set_size !=
      std::numeric_limits<std::size_t>::max()) {
    out.Set("max_set_size",
            JsonValue(std::uint64_t{spec.options.max_attribute_set_size}));
  }
  out.Set("min_report_size",
          JsonValue(std::uint64_t{spec.options.min_report_size}));
  out.Set("collect_patterns", JsonValue(spec.options.collect_patterns));
  out.Set("intra_min",
          JsonValue(std::uint64_t{spec.options.intra_search_min_universe}));
  out.Set("intra_depth",
          JsonValue(std::uint64_t{spec.options.intra_search_spawn_depth}));
  out.Set("hybrid", JsonValue(spec.options.use_hybrid_sets));
  out.Set("deadline_ms", JsonValue(spec.budget.deadline_ms));
  out.Set("max_evals", JsonValue(spec.budget.max_evaluations));
  out.Set("max_patterns", JsonValue(spec.budget.max_patterns));
  switch (spec.sink) {
    case QuerySpec::Sink::kAccumulate:
      out.Set("sink", JsonValue("accumulate"));
      break;
    case QuerySpec::Sink::kJsonl:
      out.Set("sink", JsonValue("jsonl"));
      out.Set("out", JsonValue(spec.jsonl_path));
      break;
    case QuerySpec::Sink::kTopK:
      out.Set("sink", JsonValue("topk"));
      out.Set("sink_k", JsonValue(std::uint64_t{spec.sink_k}));
      break;
  }
  out.Set("max_rows", JsonValue(std::uint64_t{spec.max_rows}));
  return out;
}

QuerySession::QuerySession(std::uint64_t id, QuerySpec spec)
    : id_(id),
      spec_(std::move(spec)),
      submitted_(std::chrono::steady_clock::now()) {
  // cum_ is a sum of segments, none of which has run yet.
  cum_.exhausted = false;
}

QueryState QuerySession::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

bool QuerySession::terminal() const {
  const QueryState s = state();
  return s == QueryState::kDone || s == QueryState::kCancelled ||
         s == QueryState::kFailed;
}

void QuerySession::ApplyDefaultDeadline(std::uint64_t deadline_ms) {
  if (spec_.budget.deadline_ms == 0) spec_.budget.deadline_ms = deadline_ms;
}

void QuerySession::EnableDurability(StateStore* store,
                                    std::uint64_t interval_ms) {
  store_ = store;
  persist_interval_ms_ = interval_ms;
}

void QuerySession::SeedRecovered(EngineCheckpoint checkpoint,
                                 std::uint64_t emitted,
                                 std::uint64_t patterns_emitted,
                                 std::uint64_t jsonl_lines) {
  checkpoint_ = std::move(checkpoint);
  has_checkpoint_ = true;
  cum_.emitted = emitted;
  cum_.patterns_emitted = patterns_emitted;
  jsonl_base_lines_ = jsonl_lines;
  spec_.jsonl_append = true;
}

void QuerySession::Suspend() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Latch the slice token WITHOUT cancel_requested_: the engine cuts at
  // the next wave boundary, the checkpoint is kept, and the query stays
  // resumable — BudgetHit() treats an externally latched token as a cut.
  if (live_token_ != nullptr) live_token_->RequestCancel();
}

void QuerySession::PersistSnapshot(StateStore* store) {
  if (store == nullptr || !has_checkpoint_) return;
  const std::uint64_t lines =
      jsonl_base_lines_ + (sinks_ != nullptr ? sinks_->jsonl_lines() : 0);
  (void)store->WriteCheckpoint(id_, checkpoint_, cum_.emitted,
                               cum_.patterns_emitted, lines);
  (void)store->AppendProgress(id_, cum_.emitted, lines);
}

void QuerySession::Bind(std::shared_ptr<const AttributedGraph> graph,
                        std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  graph_ = std::move(graph);
  epoch_ = epoch;
}

bool QuerySession::bound() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_ != nullptr;
}

std::uint64_t QuerySession::pinned_epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::shared_ptr<const AttributedGraph> QuerySession::pinned_graph() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_;
}

bool QuerySession::QueryBudgetSpent() const {
  if (spec_.budget.max_evaluations != 0 &&
      cum_.counters.attribute_sets_evaluated >= spec_.budget.max_evaluations) {
    return true;
  }
  if (spec_.budget.max_patterns != 0 &&
      cum_.patterns_emitted >= spec_.budget.max_patterns) {
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_at_) {
    return true;
  }
  return false;
}

bool QuerySession::RemainingBudget(const SlicePolicy& policy,
                                   EngineBudget* out) const {
  EngineBudget b;  // all unlimited
  if (spec_.budget.max_evaluations != 0) {
    const std::uint64_t done = cum_.counters.attribute_sets_evaluated;
    if (done >= spec_.budget.max_evaluations) return false;
    b.max_evaluations = spec_.budget.max_evaluations - done;
  }
  b.max_evaluations = CombineLimit(b.max_evaluations, policy.slice_evals);
  if (spec_.budget.max_patterns != 0) {
    if (cum_.patterns_emitted >= spec_.budget.max_patterns) return false;
    b.max_patterns = spec_.budget.max_patterns - cum_.patterns_emitted;
  }
  std::uint64_t remaining_ms = 0;
  if (has_deadline_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline_at_) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline_at_ - now)
                          .count();
    // A sub-millisecond remainder must not truncate to 0 (= unlimited).
    remaining_ms = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::max<long long>(0, left)));
  }
  b.deadline_ms = CombineLimit(remaining_ms, policy.slice_ms);
  *out = b;
  return true;
}

void QuerySession::Terminalize(QueryState state, Status error) {
  // Harvest outside the lock: sinks are driver-owned and this is the
  // last driver touch.
  MiningResponse harvested;
  bool have_payload = false;
  if (state != QueryState::kFailed && sinks_ != nullptr) {
    harvested.run = cum_;
    sinks_->Harvest(spec_, &harvested);
    if (harvested.result.attribute_sets.size() > spec_.max_rows) {
      harvested.result.attribute_sets.resize(spec_.max_rows);
    }
    have_payload = true;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = state;
    wall_ms_ = MsSince(submitted_, std::chrono::steady_clock::now()) -
               queue_wait_ms_;
    run_ = std::move(cum_);
    if (have_payload) {
      result_ = std::move(harvested.result);
      top_patterns_ = std::move(harvested.top_patterns);
      topk_sets_seen_ = harvested.top_sets_seen;
      // File-cumulative for recovered queries: the lines the output
      // file held before the crash plus what this incarnation appended.
      jsonl_lines_ = harvested.jsonl_lines + jsonl_base_lines_;
    }
    if (!error.ok()) {
      error_ = std::move(error);
    } else if (state == QueryState::kCancelled) {
      error_ = Status::Cancelled("query cancelled");
    }
  }
  terminal_cv_.notify_all();
}

bool QuerySession::ExecuteSlice(ThreadPool* pool,
                                ParallelismBudget* intra_budget, EvalMemo* memo,
                                const SlicePolicy& policy) {
  bool cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != QueryState::kQueued && state_ != QueryState::kRunning) {
      return true;  // already terminal (cancelled while queued)
    }
    if (state_ == QueryState::kQueued) {
      state_ = QueryState::kRunning;
      queue_wait_ms_ = MsSince(submitted_, std::chrono::steady_clock::now());
    }
    cancelled = cancel_requested_;
  }
  if (cancelled) {
    // Cancelled between slices: harvest whatever earlier segments
    // streamed and stop without running another segment.
    Terminalize(QueryState::kCancelled, Status());
    return true;
  }

  if (sinks_ == nullptr) {  // first slice
    Result<std::unique_ptr<RequestSinks>> created =
        RequestSinks::Create(spec_, graph_.get());
    if (!created.ok()) {
      Terminalize(QueryState::kFailed, created.status());
      return true;
    }
    sinks_ = std::move(created).value();
    last_persist_ = std::chrono::steady_clock::now();
    if (spec_.budget.deadline_ms != 0) {
      // The query deadline is absolute from the first slice: time a
      // preempted query spends re-queued counts against it.
      has_deadline_ = true;
      deadline_at_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(spec_.budget.deadline_ms);
    }
  }

  // A stalled session (previous segment completed no frontier entry —
  // its one in-flight entry needs longer than the slice) gets a
  // geometrically escalated slice; otherwise an entry slower than the
  // slice is discarded and retried identically forever.
  SlicePolicy effective = policy;
  if (stall_factor_ > 1) {
    if (effective.slice_ms != 0) effective.slice_ms *= stall_factor_;
    if (effective.slice_evals != 0) effective.slice_evals *= stall_factor_;
  }

  EngineBudget slice_budget;
  if (!RemainingBudget(effective, &slice_budget)) {
    // The query's own budget is spent: a budget cut, exactly like a
    // direct Mine that ran out — done, not exhausted.
    if (has_checkpoint_) cum_.checkpoint = checkpoint_;
    Terminalize(QueryState::kDone, Status());
    return true;
  }

  ScpmEngine engine(spec_.options, null_model_.get());
  engine.set_budget(slice_budget);
  engine.set_shared_pool(pool, intra_budget);
  engine.set_eval_memo(memo);
  if (store_ != nullptr && persist_interval_ms_ != 0) {
    // Periodic durability: the engine hands out checkpoint copies between
    // waves on this (driver) thread, so cum_/sinks_ access is safe.
    // Counters are cumulative across segments and crashes; write
    // failures are counted by the store and never fail the query.
    engine.set_checkpoint_observer(
        persist_interval_ms_,
        [this](const EngineCheckpoint& cp, const EngineProgress& p) {
          const std::uint64_t lines =
              jsonl_base_lines_ + sinks_->jsonl_lines();
          (void)store_->WriteCheckpoint(id_, cp, cum_.emitted + p.emitted,
                                        cum_.patterns_emitted +
                                            p.patterns_emitted,
                                        lines);
          (void)store_->AppendProgress(id_, cum_.emitted + p.emitted, lines);
          last_persist_ = std::chrono::steady_clock::now();
        });
  }
  // A CancelToken latches forever (a slice deadline would otherwise
  // poison every later segment), so each slice runs on a fresh
  // stack-local token registered for external Cancel().
  CancelToken slice_token;
  engine.set_cancel_token(&slice_token);
  if (FaultInjector::Instance().ShouldFail(fault::kSliceCancel)) {
    // Simulated mid-slice preemption: the segment cuts at its first
    // wave boundary and the query is re-enqueued, never cancelled.
    slice_token.RequestCancel();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cancel_requested_) {
      cancelled = true;
    } else {
      live_token_ = &slice_token;
    }
  }
  if (cancelled) {
    Terminalize(QueryState::kCancelled, Status());
    return true;
  }

  const bool resumed = has_checkpoint_;
  const std::uint64_t prev_frontier = cum_.frontier_entries;
  Result<MiningRun> segment =
      resumed ? engine.Resume(*graph_, checkpoint_, sinks_->sink())
              : engine.Run(*graph_, sinks_->sink());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_token_ = nullptr;
    cancelled = cancel_requested_;
    ++slices_;
  }

  if (!segment.ok()) {
    const bool as_cancel =
        cancelled || segment.status().code() == StatusCode::kCancelled;
    Terminalize(as_cancel ? QueryState::kCancelled : QueryState::kFailed,
                segment.status());
    return true;
  }

  // Every completed entry leaves a trace (evaluations, an emission, or
  // a frontier-size change: an entry that evaluates nothing adds no
  // children); a first segment always progresses (it at least forms the
  // root classes).
  const bool progress =
      !resumed || segment->exhausted || segment->emitted > 0 ||
      segment->counters.attribute_sets_evaluated > 0 ||
      segment->frontier_entries != prev_frontier;
  if (progress) {
    stall_factor_ = 1;
  } else if (stall_factor_ < (std::uint64_t{1} << 20)) {
    stall_factor_ *= 2;
  }

  cum_.counters.MergeFrom(segment->counters);
  cum_.emitted += segment->emitted;
  cum_.patterns_emitted += segment->patterns_emitted;
  cum_.memo_hits += segment->memo_hits;
  cum_.memo_misses += segment->memo_misses;
  cum_.exhausted = segment->exhausted;
  cum_.frontier_entries = segment->frontier_entries;
  if (segment->exhausted) {
    has_checkpoint_ = false;
  } else {
    checkpoint_ = std::move(segment->checkpoint);
    has_checkpoint_ = true;
  }

  // Slice-end durability: the engine's own observer never fires when
  // slices are shorter than the interval (each segment restarts its
  // clock), so the driver also persists here once the interval lapses.
  if (store_ != nullptr && persist_interval_ms_ != 0 && has_checkpoint_) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_persist_ >=
        std::chrono::milliseconds(persist_interval_ms_)) {
      PersistSnapshot(store_);
      last_persist_ = std::chrono::steady_clock::now();
    }
  }

  // Explicit cancellation beats every other verdict: a Cancel() racing
  // the last wave may see the segment finish "exhausted", but the
  // client asked for cancellation and gets it reported.
  if (cancelled) {
    Terminalize(QueryState::kCancelled, Status());
    return true;
  }
  if (cum_.exhausted) {
    Terminalize(QueryState::kDone, Status());
    return true;
  }
  if (QueryBudgetSpent()) {
    cum_.checkpoint = checkpoint_;
    Terminalize(QueryState::kDone, Status());
    return true;
  }
  return false;  // preempted by the slice policy: re-enqueue
}

QueryState QuerySession::Cancel() {
  std::unique_lock<std::mutex> lock(mutex_);
  cancel_requested_ = true;
  if (live_token_ != nullptr) live_token_->RequestCancel();
  const QueryState observed = state_;
  if (state_ == QueryState::kQueued) {
    state_ = QueryState::kCancelled;
    error_ = Status::Cancelled("query cancelled while queued");
    wall_ms_ = 0.0;
    queue_wait_ms_ = MsSince(submitted_, std::chrono::steady_clock::now());
    lock.unlock();
    terminal_cv_.notify_all();
  }
  return observed;
}

void QuerySession::WaitTerminal() const {
  std::unique_lock<std::mutex> lock(mutex_);
  terminal_cv_.wait(lock, [this] {
    return state_ == QueryState::kDone || state_ == QueryState::kCancelled ||
           state_ == QueryState::kFailed;
  });
}

double QuerySession::queue_wait_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_wait_ms_;
}

double QuerySession::wall_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wall_ms_;
}

std::uint64_t QuerySession::slices() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slices_;
}

JsonValue QuerySession::Describe(const AttributedGraph* graph) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // The pinned graph names attributes even after a reload swapped the
  // server's current graph.
  if (graph_ != nullptr) graph = graph_.get();
  JsonValue out = JsonValue::MakeObject();
  out.Set("id", JsonValue(id_));
  out.Set("state", JsonValue(QueryStateName(state_)));
  out.Set("queue_wait_ms", JsonValue(queue_wait_ms_));
  out.Set("wall_ms", JsonValue(wall_ms_));
  out.Set("slices", JsonValue(slices_));
  if (graph_ != nullptr) out.Set("epoch", JsonValue(epoch_));
  const bool terminal = state_ == QueryState::kDone ||
                        state_ == QueryState::kCancelled ||
                        state_ == QueryState::kFailed;
  if (!terminal) return out;

  if (!error_.ok()) out.Set("error", JsonValue(error_.ToString()));
  if (state_ == QueryState::kFailed) return out;

  out.Set("exhausted", JsonValue(run_.exhausted));
  out.Set("emitted", JsonValue(run_.emitted));
  out.Set("patterns_emitted", JsonValue(run_.patterns_emitted));
  out.Set("memo_hits", JsonValue(run_.memo_hits));
  out.Set("memo_misses", JsonValue(run_.memo_misses));
  out.Set("counters", CountersToJson(run_.counters));

  JsonValue result = JsonValue::MakeObject();
  if (spec_.sink == QuerySpec::Sink::kAccumulate) {
    JsonValue rows = JsonValue::MakeArray();
    for (const AttributeSetStats& stats : result_.attribute_sets) {
      rows.MutableArray()->push_back(StatsToJson(stats, graph));
    }
    JsonValue patterns = JsonValue::MakeArray();
    for (const StructuralCorrelationPattern& p : result_.patterns) {
      patterns.MutableArray()->push_back(PatternToJson(p));
    }
    result.Set("attribute_sets", std::move(rows));
    result.Set("patterns", std::move(patterns));
    result.Set("rows_returned",
               JsonValue(std::uint64_t{result_.attribute_sets.size()}));
  } else if (spec_.sink == QuerySpec::Sink::kJsonl) {
    result.Set("out", JsonValue(spec_.jsonl_path));
    result.Set("lines", JsonValue(jsonl_lines_));
  } else {
    JsonValue patterns = JsonValue::MakeArray();
    for (const StructuralCorrelationPattern& p : top_patterns_) {
      patterns.MutableArray()->push_back(PatternToJson(p));
    }
    result.Set("patterns", std::move(patterns));
    result.Set("sets_seen", JsonValue(topk_sets_seen_));
  }
  out.Set("result", std::move(result));
  return out;
}

}  // namespace scpm
