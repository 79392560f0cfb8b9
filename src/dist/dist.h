// Fault-tolerant distributed frontier mining (docs/DIST.md).
//
// A coordinator process runs the cheap roots phase itself, then shards
// the remaining frontier into leased batches mined by forked worker
// processes over Unix socketpairs. Leases have deadlines kept alive by
// per-wave heartbeats; a missed heartbeat, worker death, or corrupt
// result revokes the lease and re-queues the batch with exponential
// backoff, falling back to inline execution on the coordinator after
// bounded retries — the job always terminates, and its rows, patterns,
// and summed work counters are byte-identical to a single-process
// ScpmMiner::Mine for any worker count, batch size, or kill schedule.

#ifndef SCPM_DIST_DIST_H_
#define SCPM_DIST_DIST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/request.h"
#include "core/scpm.h"
#include "core/sink.h"
#include "graph/attributed_graph.h"
#include "util/cancel.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {
namespace dist {

struct DistOptions {
  /// Worker processes forked at job start. Workers are never respawned:
  /// a revoked or dead worker's share shifts to the survivors, and with
  /// none left the coordinator mines inline.
  std::size_t workers = 2;
  /// Frontier entries leased per batch.
  std::size_t batch_entries = 8;
  /// Evaluation budget per lease: a worker cuts its batch at this many
  /// evaluations and returns the unfinished remainder for re-leasing,
  /// which bounds both lease runtime and result size.
  std::uint64_t batch_evals = 256;
  /// Worker frontier wave size = heartbeat granularity (one heartbeat
  /// per wave).
  std::size_t worker_wave = 4;
  /// Lease deadline: a leased worker silent for this long is revoked.
  std::uint64_t lease_ms = 2000;
  /// Re-queue attempts per batch before the coordinator mines it
  /// inline.
  std::uint32_t max_retries = 3;
  /// Backoff before a failed batch is re-leased: backoff_ms doubling
  /// per failed attempt.
  std::uint64_t backoff_ms = 50;
  /// Durable job state directory, "" = none. With it set, the
  /// coordinator journals the job and snapshots the un-merged frontier
  /// through a StateStore, and a coordinator started on the same
  /// directory after a SIGKILL resumes the job instead of restarting it
  /// (jsonl sinks only; see docs/DIST.md).
  std::string state_dir;
  /// Snapshot cadence under state_dir.
  std::uint64_t checkpoint_interval_ms = 200;
  /// Called once per forked worker with (worker index, pid) — the CLI
  /// announces pids on stderr so harnesses can aim kill(2) at one.
  std::function<void(std::size_t, long)> on_worker_spawn;

  Status Validate() const;
};

/// One lease failure, typed and kept: code is kIoError for worker
/// death / heartbeat timeout / corrupt result, kInternal for a worker
/// that rejected its batch.
struct DistEvent {
  StatusCode code = StatusCode::kOk;
  std::string detail;
};

struct DistWorkerStats {
  std::uint64_t batches = 0;        // leases this worker completed
  std::uint64_t reassignments = 0;  // leases revoked from it
  std::uint64_t retries = 0;        // re-queued batches it picked up
  std::uint64_t backoff_ms = 0;     // backoff its failures charged
};

struct DistStats {
  std::vector<DistWorkerStats> workers;
  std::uint64_t batches = 0;   // leases completed by workers
  std::uint64_t heartbeat_timeouts = 0;
  std::uint64_t worker_exits = 0;    // EOF / death with a live lease
  std::uint64_t corrupt_results = 0;
  std::uint64_t worker_failures = 0;  // explicit fail frames
  std::uint64_t retries = 0;          // batch re-queues
  std::uint64_t backoff_ms_total = 0;
  std::uint64_t inline_fallbacks = 0;  // batches the coordinator mined
  bool recovered = false;  // job resumed from a state_dir journal
  std::vector<DistEvent> events;  // every lease failure, in order
};

/// Mines `request` distributed and returns the same MiningResponse a
/// single-process ExecuteRequest would. The request's budget must be
/// unlimited (a distributed run has no meaningful mid-job cut) —
/// kInvalidArgument otherwise. `null_model` may be nullptr (one is
/// built internally when options.min_delta > 0); `cancel` aborts the
/// job with kCancelled at the next coordinator step.
Result<MiningResponse> Mine(const AttributedGraph& graph,
                            const MiningRequest& request,
                            const DistOptions& dist_options,
                            ExpectationModel* null_model = nullptr,
                            DistStats* stats = nullptr,
                            CancelToken* cancel = nullptr);

}  // namespace dist
}  // namespace scpm

#endif  // SCPM_DIST_DIST_H_
