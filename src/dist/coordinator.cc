// The coordinator side of distributed mining: roots phase, lease
// bookkeeping, failure handling, deterministic merge, durability.
// Protocol and failure matrix: docs/DIST.md.

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/statistics.h"
#include "dist/dist.h"
#include "dist/pool.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "nullmodel/expectation.h"
#include "server/journal.h"

namespace scpm {
namespace dist {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t MsUntil(Clock::time_point then, Clock::time_point now) {
  if (then <= now) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(then - now)
          .count()) +
         1;
}

/// One unit of leased work. `attempts` counts failed leases so far; the
/// id is stable across retries so events and logs correlate.
struct Batch {
  std::uint64_t id = 0;
  std::size_t entries = 0;
  EngineCheckpoint checkpoint;
  std::uint32_t attempts = 0;
  Clock::time_point not_before{};
};

struct WorkerSlot {
  pid_t pid = -1;
  int fd = -1;
  bool alive = false;
  bool busy = false;
  Batch lease;
  Clock::time_point deadline{};
};

class Coordinator {
 public:
  Coordinator(const AttributedGraph& graph, const ScpmOptions& options,
              const DistOptions& dist, PatternSink* sink,
              ExpectationModel* null_model, DistStats* stats,
              CancelToken* cancel)
      : graph_(graph),
        options_(options),
        dist_(dist),
        sink_(sink),
        null_model_(null_model),
        stats_(stats != nullptr ? stats : &local_stats_),
        cancel_(cancel) {
    stats_->workers.resize(dist_.workers);
  }

  /// Durability hooks: `resume` seeds the pool from a recovered
  /// snapshot (roots phase skipped), `seed` restores the cumulative
  /// run state merged before the crash, `snapshot` is called with the
  /// un-merged frontier at most every checkpoint_interval_ms.
  void SeedRecovered(const EngineCheckpoint& resume, const MiningRun& seed) {
    resume_ = &resume;
    cum_ = seed;
  }
  void set_snapshot(
      std::function<void(const EngineCheckpoint&, const MiningRun&)> fn) {
    snapshot_ = std::move(fn);
  }

  Result<MiningRun> Run() {
    // Fork before any mining: workers must inherit a process that has
    // never spawned a thread (the roots phase below may build a pool).
    SCPM_RETURN_IF_ERROR(SpawnWorkers());
    Status status = RunJob();
    ShutdownWorkers();
    if (!status.ok()) return status;
    cum_.exhausted = true;
    cum_.frontier_entries = 0;
    cum_.checkpoint = EngineCheckpoint();
    return cum_;
  }

 private:
  Status RunJob() {
    if (resume_ != nullptr) {
      pool_.BindTo(*resume_);
      pool_.Ingest(*resume_);
    } else {
      bool exhausted = false;
      SCPM_RETURN_IF_ERROR(RunRoots(&exhausted));
      if (exhausted) return Status::OK();
    }
    last_snapshot_ = Clock::now();
    return DriveLeases();
  }

  /// Mines the roots phase inline with an evaluation budget equal to
  /// the frequent-singleton count: the engine forms the root classes
  /// the moment the last singleton evaluates and only then notices the
  /// budget, so the cut lands exactly at the roots/tree boundary with
  /// every expansion entry pending — and the roots counters equal a
  /// single-process run's roots share exactly.
  Status RunRoots(bool* exhausted) {
    std::uint64_t frequent = 0;
    for (AttributeId a = 0; a < graph_.NumAttributes(); ++a) {
      if (graph_.VerticesWith(a).size() >= options_.min_support) ++frequent;
    }
    ScpmEngine engine(options_, null_model_);
    if (frequent > 0) {
      EngineBudget budget;
      budget.max_evaluations = frequent;
      engine.set_budget(budget);
    }
    if (cancel_ != nullptr) engine.set_cancel_token(cancel_);
    Result<MiningRun> run = engine.Run(graph_, sink_);
    if (!run.ok()) return run.status();
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::Cancelled("distributed job cancelled");
    }
    cum_.counters.MergeFrom(run->counters);
    cum_.emitted += run->emitted;
    cum_.patterns_emitted += run->patterns_emitted;
    if (run->exhausted) {
      *exhausted = true;  // the lattice ended inside the roots budget
      return Status::OK();
    }
    pool_.BindTo(run->checkpoint);
    pool_.Ingest(run->checkpoint);
    *exhausted = false;
    return Status::OK();
  }

  Status SpawnWorkers() {
    workers_.resize(dist_.workers);
    for (std::size_t i = 0; i < dist_.workers; ++i) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        return Status::IoError("socketpair failed");
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        return Status::IoError("fork failed");
      }
      if (pid == 0) {
        // Worker child: keep only its own socket end, die with the
        // coordinator, and never run parent atexit handlers.
        ::close(sv[0]);
        for (std::size_t j = 0; j < i; ++j) ::close(workers_[j].fd);
#if defined(__linux__)
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() == 1) ::_exit(0);  // parent died before prctl
#endif
        ::_exit(WorkerMain(sv[1], i, graph_, options_, null_model_));
      }
      ::close(sv[1]);
      workers_[i].pid = pid;
      workers_[i].fd = sv[0];
      workers_[i].alive = true;
      if (dist_.on_worker_spawn) dist_.on_worker_spawn(i, pid);
    }
    return Status::OK();
  }

  void KillWorker(WorkerSlot* slot) {
    if (!slot->alive) return;
    ::close(slot->fd);
    slot->fd = -1;
    ::kill(slot->pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(slot->pid, &wstatus, 0);
    slot->alive = false;
    slot->busy = false;
  }

  void ShutdownWorkers() {
    for (WorkerSlot& slot : workers_) {
      if (!slot.alive) continue;
      Frame exit;
      exit.type = FrameType::kExit;
      (void)WriteFrame(slot.fd, exit);
      ::close(slot.fd);
      slot.fd = -1;
      int wstatus = 0;
      ::waitpid(slot.pid, &wstatus, 0);
      slot.alive = false;
    }
  }

  bool AnyBusy() const {
    for (const WorkerSlot& slot : workers_) {
      if (slot.busy) return true;
    }
    return false;
  }

  bool AnyLive() const {
    for (const WorkerSlot& slot : workers_) {
      if (slot.alive) return true;
    }
    return false;
  }

  std::size_t WorkerIndex(const WorkerSlot* slot) const {
    return static_cast<std::size_t>(slot - workers_.data());
  }

  /// Every lease failure funnels here: typed event, stats, backoff,
  /// re-queue. The worker is additionally killed unless `keep_alive`
  /// (an explicit fail frame leaves a healthy worker; everything else
  /// means the worker or its stream can no longer be trusted).
  void LeaseFailed(WorkerSlot* slot, Status why, bool keep_alive) {
    Batch batch = std::move(slot->lease);
    slot->busy = false;
    ++batch.attempts;
    const std::uint64_t backoff =
        dist_.backoff_ms << std::min<std::uint32_t>(batch.attempts - 1, 20);
    batch.not_before = Clock::now() + std::chrono::milliseconds(backoff);
    DistWorkerStats& ws = stats_->workers[WorkerIndex(slot)];
    ++ws.reassignments;
    ws.backoff_ms += backoff;
    ++stats_->retries;
    stats_->backoff_ms_total += backoff;
    stats_->events.push_back(DistEvent{
        why.code(), "batch " + std::to_string(batch.id) + " attempt " +
                        std::to_string(batch.attempts) + ": " + why.message()});
    pending_.push_back(std::move(batch));
    if (!keep_alive) KillWorker(slot);
  }

  /// Merges one finished lease. Validation happens before any side
  /// effect so a bad payload fails the lease atomically.
  Status MergeResult(WorkerSlot* slot, const ResultPayload& result) {
    if (!result.exhausted) {
      const EngineCheckpoint& r = result.remainder;
      if (!r.valid || r.in_roots_phase ||
          r.num_vertices != graph_.NumVertices() ||
          r.num_edges != graph_.graph().NumEdges() ||
          r.num_attributes != graph_.NumAttributes()) {
        return Status::IoError("lease remainder does not bind to this job");
      }
    }
    // Deterministic merge order: emissions sort by their canonical
    // sequential key within the lease (sinks that care about global
    // order sort again at harvest; jsonl byte-identity is defined on
    // sorted lines, as with any multi-threaded run).
    std::vector<const ResultPayload::Emission*> order;
    order.reserve(result.emissions.size());
    for (const ResultPayload::Emission& e : result.emissions) {
      order.push_back(&e);
    }
    std::sort(order.begin(), order.end(),
              [](const ResultPayload::Emission* a,
                 const ResultPayload::Emission* b) { return a->key < b->key; });
    for (const ResultPayload::Emission* e : order) {
      SCPM_RETURN_IF_ERROR(sink_->Emit(e->key, e->output));
      ++cum_.emitted;
      cum_.patterns_emitted += e->output.patterns.size();
    }
    cum_.counters.MergeFrom(result.counters);
    if (!result.exhausted) pool_.Ingest(result.remainder);
    ++stats_->batches;
    ++stats_->workers[WorkerIndex(slot)].batches;
    return Status::OK();
  }

  /// Runs one batch on the coordinator itself — the always-terminates
  /// escape hatch once retries are exhausted or no worker is left.
  Status RunInline(Batch batch) {
    ++stats_->inline_fallbacks;
    ScpmEngine engine(options_, null_model_);
    EngineBudget budget;
    budget.max_evaluations = dist_.batch_evals;
    engine.set_budget(budget);
    engine.set_uncounted_seeding(true);
    if (cancel_ != nullptr) engine.set_cancel_token(cancel_);
    Result<MiningRun> run = engine.Resume(graph_, batch.checkpoint, sink_);
    if (!run.ok()) return run.status();
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::Cancelled("distributed job cancelled");
    }
    cum_.counters.MergeFrom(run->counters);
    cum_.emitted += run->emitted;
    cum_.patterns_emitted += run->patterns_emitted;
    if (!run->exhausted) pool_.Ingest(run->checkpoint);
    return Status::OK();
  }

  Status AssignWork() {
    for (WorkerSlot& slot : workers_) {
      if (!slot.alive || slot.busy) continue;
      const Clock::time_point now = Clock::now();
      Batch batch;
      bool have = false;
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->attempts <= dist_.max_retries && it->not_before <= now) {
          batch = std::move(*it);
          pending_.erase(it);
          have = true;
          break;
        }
      }
      if (!have && !pool_.empty()) {
        batch.id = next_batch_id_++;
        batch.checkpoint = pool_.MakeBatch(dist_.batch_entries);
        batch.entries = batch.checkpoint.expansions.size();
        have = true;
      }
      if (!have) return Status::OK();
      BatchPayload payload;
      payload.max_evaluations = dist_.batch_evals;
      payload.wave = dist_.worker_wave;
      payload.lease_ms = dist_.lease_ms;
      payload.checkpoint = batch.checkpoint;
      Frame frame;
      frame.type = FrameType::kBatch;
      frame.batch_id = batch.id;
      frame.payload = EncodeBatch(payload);
      if (!WriteFrame(slot.fd, frame).ok()) {
        // The worker died between leases; its loss is an event only if
        // it held work, which it did not — put the batch back untouched
        // and retire the worker.
        pending_.push_front(std::move(batch));
        KillWorker(&slot);
        continue;
      }
      if (batch.attempts > 0) ++stats_->workers[WorkerIndex(&slot)].retries;
      slot.busy = true;
      slot.lease = std::move(batch);
      slot.deadline = Clock::now() + std::chrono::milliseconds(dist_.lease_ms);
    }
    return Status::OK();
  }

  /// Inline-mines every batch that exhausted its retries, and — with no
  /// worker left alive — everything else too.
  Status DrainFallbacks() {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->attempts > dist_.max_retries) {
        Batch batch = std::move(*it);
        it = pending_.erase(it);
        SCPM_RETURN_IF_ERROR(RunInline(std::move(batch)));
      } else {
        ++it;
      }
    }
    if (!AnyLive()) {
      while (!pending_.empty()) {
        Batch batch = std::move(pending_.front());
        pending_.pop_front();
        SCPM_RETURN_IF_ERROR(RunInline(std::move(batch)));
      }
      while (!pool_.empty()) {
        Batch batch;
        batch.id = next_batch_id_++;
        batch.checkpoint = pool_.MakeBatch(dist_.batch_entries);
        SCPM_RETURN_IF_ERROR(RunInline(std::move(batch)));
      }
    }
    return Status::OK();
  }

  /// Reads every complete frame a worker has buffered. Draining happens
  /// before any deadline check, so heartbeats that queued up while the
  /// coordinator was busy (an inline fallback, a snapshot) refresh the
  /// lease before expiry is judged.
  Status DrainWorker(WorkerSlot* slot) {
    while (slot->alive) {
      Result<ReadFrameResult> read = ReadFrame(slot->fd);
      if (!read.ok()) {
        ++stats_->worker_exits;
        if (slot->busy) {
          LeaseFailed(slot,
                      Status::IoError("worker " +
                                      std::to_string(WorkerIndex(slot)) +
                                      " exited mid-lease (" +
                                      read.status().message() + ")"),
                      /*keep_alive=*/false);
        } else {
          KillWorker(slot);
        }
        return Status::OK();
      }
      slot->deadline = Clock::now() + std::chrono::milliseconds(dist_.lease_ms);
      if (!read->checksum_ok) {
        ++stats_->corrupt_results;
        LeaseFailed(slot, Status::IoError("corrupt result payload (checksum)"),
                    /*keep_alive=*/false);
        return Status::OK();
      }
      Frame& frame = read->frame;
      switch (frame.type) {
        case FrameType::kHeartbeat:
          break;
        case FrameType::kFail:
          if (slot->busy) {
            ++stats_->worker_failures;
            LeaseFailed(slot, Status::Internal(frame.payload),
                        /*keep_alive=*/true);
          }
          break;
        case FrameType::kResult: {
          if (!slot->busy || frame.batch_id != slot->lease.id) {
            LeaseFailed(slot, Status::IoError("result for a foreign lease"),
                        /*keep_alive=*/false);
            return Status::OK();
          }
          Result<ResultPayload> decoded = DecodeResult(frame.payload);
          Status merged = decoded.ok()
                              ? MergeResult(slot, *decoded)
                              : decoded.status();
          if (!merged.ok()) {
            if (merged.code() == StatusCode::kIoError) {
              ++stats_->corrupt_results;
              LeaseFailed(slot, merged, /*keep_alive=*/false);
            } else {
              return merged;  // sink error: the job itself fails
            }
            return Status::OK();
          }
          slot->busy = false;
          break;
        }
        default:
          LeaseFailed(slot, Status::IoError("unexpected frame from worker"),
                      /*keep_alive=*/false);
          return Status::OK();
      }
      // More buffered input? One zero-timeout poll per extra frame.
      struct pollfd probe{slot->fd, POLLIN, 0};
      if (::poll(&probe, 1, 0) <= 0 || (probe.revents & POLLIN) == 0) break;
    }
    return Status::OK();
  }

  void ExpireLeases() {
    const Clock::time_point now = Clock::now();
    for (WorkerSlot& slot : workers_) {
      if (!slot.busy || slot.deadline > now) continue;
      ++stats_->heartbeat_timeouts;
      LeaseFailed(&slot,
                  Status::IoError("lease deadline expired (worker " +
                                  std::to_string(WorkerIndex(&slot)) +
                                  " heartbeat missed)"),
                  /*keep_alive=*/false);
    }
  }

  void MaybeSnapshot() {
    if (!snapshot_) return;
    const Clock::time_point now = Clock::now();
    if (now - last_snapshot_ <
        std::chrono::milliseconds(dist_.checkpoint_interval_ms)) {
      return;
    }
    // The un-merged frontier: pool + every outstanding lease + every
    // batch waiting on backoff. Taken between merges, so the snapshot,
    // the cumulative counters, and the sink's durable prefix agree.
    EngineCheckpoint snap = pool_.SnapshotRemaining();
    for (const WorkerSlot& slot : workers_) {
      if (slot.busy) FrontierPool::Append(&snap, slot.lease.checkpoint);
    }
    for (const Batch& batch : pending_) {
      FrontierPool::Append(&snap, batch.checkpoint);
    }
    snapshot_(snap, cum_);
    last_snapshot_ = Clock::now();
  }

  Status DriveLeases() {
    while (true) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        return Status::Cancelled("distributed job cancelled");
      }
      SCPM_RETURN_IF_ERROR(DrainFallbacks());
      SCPM_RETURN_IF_ERROR(AssignWork());
      if (pending_.empty() && pool_.empty() && !AnyBusy()) break;
      MaybeSnapshot();

      std::vector<struct pollfd> fds;
      std::vector<WorkerSlot*> polled;
      const Clock::time_point now = Clock::now();
      std::uint64_t timeout = 1000;
      for (WorkerSlot& slot : workers_) {
        if (!slot.busy) continue;
        fds.push_back({slot.fd, POLLIN, 0});
        polled.push_back(&slot);
        timeout = std::min(timeout, MsUntil(slot.deadline, now));
      }
      for (const Batch& batch : pending_) {
        timeout = std::min(timeout, MsUntil(batch.not_before, now));
      }
      if (snapshot_) {
        timeout = std::min(
            timeout, MsUntil(last_snapshot_ + std::chrono::milliseconds(
                                                  dist_.checkpoint_interval_ms),
                             now));
      }
      if (!fds.empty()) {
        const int ready =
            ::poll(fds.data(), fds.size(), static_cast<int>(timeout));
        if (ready > 0) {
          for (std::size_t i = 0; i < fds.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
              SCPM_RETURN_IF_ERROR(DrainWorker(polled[i]));
            }
          }
        }
      } else if (timeout > 0) {
        ::poll(nullptr, 0, static_cast<int>(std::min<std::uint64_t>(
                               timeout, 50)));
      }
      ExpireLeases();
    }
    return Status::OK();
  }

  const AttributedGraph& graph_;
  const ScpmOptions& options_;
  const DistOptions& dist_;
  PatternSink* sink_;
  ExpectationModel* null_model_;
  DistStats* stats_;
  DistStats local_stats_;
  CancelToken* cancel_;

  const EngineCheckpoint* resume_ = nullptr;
  std::function<void(const EngineCheckpoint&, const MiningRun&)> snapshot_;
  Clock::time_point last_snapshot_{};

  FrontierPool pool_;
  std::deque<Batch> pending_;
  std::vector<WorkerSlot> workers_;
  std::uint64_t next_batch_id_ = 1;
  MiningRun cum_;
};

Status ValidateCommon(const ScpmOptions& options, const DistOptions& dist) {
  SCPM_RETURN_IF_ERROR(options.Validate());
  return dist.Validate();
}

/// Truncates `path` after its first `lines` lines (the recovery
/// truncation idiom shared with the query server).
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

// Bumped whenever the ScpmCounters field list changes, so a trailer
// written with another field list is rejected, not misread.
constexpr std::uint64_t kTrailerVersion = 2;

std::string EncodeTrailer(const ScpmCounters& c) {
  std::ostringstream os;
  os << "scpm-dist-trailer " << kTrailerVersion;
  WriteScpmCountersFields(os, c) << '\n';
  return os.str();
}

Status DecodeTrailer(const std::string& text, ScpmCounters* c) {
  std::istringstream in(text);
  std::string magic;
  std::uint64_t version = 0;
  if (!(in >> magic >> version) || magic != "scpm-dist-trailer") {
    return Status::IoError("no counter trailer");
  }
  if (version != kTrailerVersion) {
    return Status::IoError("unsupported counter trailer version " +
                           std::to_string(version));
  }
  if (!ReadScpmCountersFields(in, c)) {
    return Status::IoError("malformed counter trailer");
  }
  return Status::OK();
}

}  // namespace

Status DistOptions::Validate() const {
  if (batch_entries == 0) {
    return Status::InvalidArgument("dist batch_entries must be >= 1");
  }
  if (batch_evals == 0) {
    return Status::InvalidArgument(
        "dist batch_evals must be >= 1 (it bounds lease runtime)");
  }
  if (worker_wave == 0) {
    return Status::InvalidArgument("dist worker_wave must be >= 1");
  }
  if (lease_ms == 0) {
    return Status::InvalidArgument("dist lease_ms must be >= 1");
  }
  if (backoff_ms == 0) {
    return Status::InvalidArgument("dist backoff_ms must be >= 1");
  }
  return Status::OK();
}

Result<MiningResponse> Mine(const AttributedGraph& graph,
                            const MiningRequest& request,
                            const DistOptions& dist_options,
                            ExpectationModel* null_model, DistStats* stats,
                            CancelToken* cancel) {
  SCPM_RETURN_IF_ERROR(request.Validate());
  if (!request.budget.unlimited()) {
    return Status::InvalidArgument(
        "distributed mining runs jobs to completion; budgets "
        "(max_evals/max_patterns/deadline) are not supported");
  }
  SCPM_RETURN_IF_ERROR(ValidateCommon(request.options, dist_options));

  std::unique_ptr<MaxExpectationModel> owned_model;
  if (null_model == nullptr && request.options.min_delta > 0.0) {
    owned_model = std::make_unique<MaxExpectationModel>(
        graph.graph(), request.options.quasi_clique);
    null_model = owned_model.get();
  }

  DistStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // ---- durable job state (optional) ----------------------------------
  std::unique_ptr<StateStore> store;
  EngineCheckpoint recovered;
  MiningRun seed;
  bool resume = false;
  std::uint64_t base_jsonl_lines = 0;
  std::vector<std::string> warnings;
  MiningRequest effective = request;
  const std::uint64_t fingerprint = ScpmEngine::OptionsFingerprint(
      request.options, null_model != nullptr);
  if (!dist_options.state_dir.empty()) {
    Result<std::unique_ptr<StateStore>> opened =
        StateStore::Open(dist_options.state_dir);
    if (!opened.ok()) return opened.status();
    store = std::move(opened).value();
    const RecoveryScan scan = store->Scan();
    std::uint64_t epoch = scan.epoch + 1;
    const bool shape_matches =
        scan.epoch != 0 &&
        scan.vertices == static_cast<std::uint64_t>(graph.NumVertices()) &&
        scan.edges == graph.graph().NumEdges() &&
        scan.attributes == graph.NumAttributes();
    if (shape_matches) {
      for (const RecoveredQuery& q : scan.queries) {
        if (q.id != 1 || !q.has_checkpoint) continue;
        const std::string stored_fp = q.query.StringOr("fingerprint", "");
        const std::string stored_out = q.query.StringOr("out", "");
        if (stored_fp != std::to_string(fingerprint) ||
            q.query.StringOr("sink", "") != "jsonl" ||
            request.sink != MiningRequest::Sink::kJsonl ||
            request.jsonl_path.empty() || stored_out != request.jsonl_path) {
          warnings.push_back(
              "dist job snapshot does not match this request "
              "(options/sink/output changed); restarting from scratch");
          continue;
        }
        if (q.checkpoint.options_fingerprint != fingerprint ||
            q.checkpoint.in_roots_phase) {
          warnings.push_back(
              "dist job snapshot does not bind to these options; "
              "restarting from scratch");
          continue;
        }
        ScpmCounters cum;
        if (Status st = DecodeTrailer(q.trailer, &cum); !st.ok()) {
          warnings.push_back("dist job snapshot unreadable (" + st.ToString() +
                             "); restarting from scratch");
          continue;
        }
        if (!TruncateToLines(request.jsonl_path, q.jsonl_lines)) {
          warnings.push_back("dist job output " + request.jsonl_path +
                             " is shorter than its snapshot recorded; "
                             "restarting from scratch");
          continue;
        }
        recovered = q.checkpoint;
        seed.counters = cum;
        seed.emitted = q.emitted;
        seed.patterns_emitted = q.patterns_emitted;
        base_jsonl_lines = q.jsonl_lines;
        effective.jsonl_append = true;
        resume = true;
        epoch = scan.epoch;  // checkpoints stay valid: keep the epoch
        stats->recovered = true;
        break;
      }
    }
    (void)store->AppendServer(epoch,
                              static_cast<std::uint64_t>(graph.NumVertices()),
                              graph.graph().NumEdges(), graph.NumAttributes());
    if (!resume) {
      JsonValue admit = JsonValue::MakeObject();
      // The fingerprint travels as a string: JSON numbers are doubles
      // and cannot hold a full uint64.
      admit.Set("fingerprint", JsonValue(std::to_string(fingerprint)));
      admit.Set("sink",
                JsonValue(request.sink == MiningRequest::Sink::kJsonl
                              ? "jsonl"
                              : request.sink == MiningRequest::Sink::kTopK
                                    ? "topk"
                                    : "accumulate"));
      admit.Set("out", JsonValue(request.jsonl_path));
      (void)store->AppendAdmit(1, epoch, admit);
    }
  }

  Result<std::unique_ptr<RequestSinks>> sinks =
      RequestSinks::Create(effective, &graph);
  if (!sinks.ok()) return sinks.status();

  Coordinator coordinator(graph, effective.options, dist_options,
                          (*sinks)->sink(), null_model, stats, cancel);
  if (resume) coordinator.SeedRecovered(recovered, seed);
  if (store != nullptr) {
    RequestSinks* raw_sinks = sinks->get();
    StateStore* raw_store = store.get();
    coordinator.set_snapshot([raw_sinks, raw_store, base_jsonl_lines](
                                 const EngineCheckpoint& cp,
                                 const MiningRun& cum) {
      const std::uint64_t lines = base_jsonl_lines + raw_sinks->jsonl_lines();
      (void)raw_store->WriteCheckpoint(1, cp, cum.emitted,
                                       cum.patterns_emitted, lines,
                                       EncodeTrailer(cum.counters));
      (void)raw_store->AppendProgress(1, cum.emitted, lines);
    });
  }

  Result<MiningRun> run = coordinator.Run();
  if (!run.ok()) return run.status();

  if (store != nullptr) {
    (void)store->AppendTerminal(1, "done");
    store->RemoveCheckpoint(1);
  }

  MiningResponse response;
  response.run = std::move(run).value();
  (*sinks)->Harvest(effective, &response);
  response.jsonl_lines += base_jsonl_lines;
  return response;
}

}  // namespace dist
}  // namespace scpm
