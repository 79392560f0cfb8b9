#include "dist/worker.h"

#include <signal.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "core/engine.h"
#include "core/sink.h"
#include "dist/protocol.h"
#include "util/fault.h"

namespace scpm {
namespace dist {

namespace {

/// Consults both the bare point and its per-worker variant
/// ("worker-kill" and "worker-kill:2"): a bare spec hits every worker,
/// the suffixed form aims at one.
bool WorkerFault(const char* point, std::size_t worker_index) {
  FaultInjector& fi = FaultInjector::Instance();
  const std::string scoped = std::string(point) + ':' +
                             std::to_string(worker_index);
  // Evaluate both — each name keeps its own hit counter, and a test
  // scripting "heartbeat-drop:1=2" expects worker 1's third heartbeat
  // to count scoped hits 0,1,2 regardless of the bare point's state.
  const bool bare = fi.ShouldFail(point);
  const bool aimed = fi.ShouldFail(scoped.c_str());
  return bare || aimed;
}

}  // namespace

int WorkerMain(int fd, std::size_t worker_index, const AttributedGraph& graph,
               const ScpmOptions& base_options, ExpectationModel* null_model) {
  // Mining is strictly sequential in a worker: no ThreadPool is ever
  // created, which keeps fork + sanitizers happy and (by the engine's
  // determinism contract) changes no counter.
  ScpmOptions options = base_options;
  options.num_threads = 1;

  for (;;) {
    Result<ReadFrameResult> read = ReadFrame(fd);
    if (!read.ok()) return 0;  // coordinator gone or revoked us
    if (!read->checksum_ok) continue;  // corrupt command: wait for resend
    Frame& frame = read->frame;
    if (frame.type == FrameType::kExit) return 0;
    if (frame.type != FrameType::kBatch) continue;

    if (WorkerFault(fault::kWorkerKill, worker_index)) {
      // The injected crash: die the way a SIGKILL'd worker dies — no
      // goodbye frame, no flush.
      raise(SIGKILL);
    }

    Result<BatchPayload> batch = DecodeBatch(frame.payload);
    if (!batch.ok()) {
      Frame fail;
      fail.type = FrameType::kFail;
      fail.batch_id = frame.batch_id;
      fail.payload = batch.status().ToString();
      if (!WriteFrame(fd, fail).ok()) return 0;
      continue;
    }

    ResultPayload result;
    CallbackSink sink([&result](const SinkKey& key,
                                const AttributeSetOutput& output) {
      result.emissions.push_back(ResultPayload::Emission{key, output});
      return Status::OK();
    });

    ScpmEngine engine(options, null_model);
    EngineBudget budget;
    budget.max_evaluations = batch->max_evaluations;
    engine.set_budget(budget);
    engine.set_frontier_wave(batch->wave);
    // Cold batch checkpoints are a distribution artifact; rebuilding
    // their sets must not show up in the merged work counters.
    engine.set_uncounted_seeding(true);
    // The lease keep-alive: one heartbeat per engine wave. A send
    // failure means the coordinator revoked us (or died) — stop mining,
    // the lease's work will be redone elsewhere.
    CancelToken revoked;
    const std::uint64_t lease_ms = batch->lease_ms;
    engine.set_progress([fd, worker_index, lease_ms,
                         &revoked](const EngineProgress&) {
      if (WorkerFault(fault::kHeartbeatDrop, worker_index)) {
        // Simulate a hang: swallow the heartbeat and oversleep the
        // lease so the coordinator's revocation is guaranteed to fire.
        std::this_thread::sleep_for(std::chrono::milliseconds(3 * lease_ms));
        return;
      }
      Frame hb;
      hb.type = FrameType::kHeartbeat;
      if (!WriteFrame(fd, hb).ok()) revoked.RequestCancel();
    });
    engine.set_cancel_token(&revoked);

    Result<MiningRun> run = engine.Resume(graph, batch->checkpoint, &sink);
    if (revoked.cancelled()) return 0;
    if (!run.ok()) {
      Frame fail;
      fail.type = FrameType::kFail;
      fail.batch_id = frame.batch_id;
      fail.payload = run.status().ToString();
      if (!WriteFrame(fd, fail).ok()) return 0;
      continue;
    }

    result.exhausted = run->exhausted;
    result.counters = run->counters;
    if (!run->exhausted) result.remainder = std::move(run->checkpoint);

    Frame reply;
    reply.type = FrameType::kResult;
    reply.batch_id = frame.batch_id;
    reply.payload = EncodeResult(result);
    const bool corrupt = WorkerFault(fault::kResultCorrupt, worker_index);
    if (!WriteFrame(fd, reply, corrupt).ok()) return 0;
  }
}

}  // namespace dist
}  // namespace scpm
