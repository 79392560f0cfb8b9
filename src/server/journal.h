// Durable server state: the query journal and checkpoint store.
//
// A StateStore owns one directory (the server's --state-dir) holding
// everything needed to survive a crash:
//
//   journal.jsonl   append-only, fsync-per-record JSON lines narrating
//                   the server's life: one "server" record per epoch
//                   (graph shape included), one "admit" per accepted
//                   query (the full spec, re-parseable by
//                   ParseQuerySpec), one "progress" per persisted
//                   snapshot (cumulative emission counters), one
//                   "terminal" when a query finishes.
//   q<id>.ckpt      the latest EngineCheckpoint of query <id>,
//                   replaced atomically (write temp + fsync + rename +
//                   directory fsync), so the file is always a complete
//                   snapshot — torn writes can only lose the *newest*
//                   snapshot, never corrupt the previous one.
//
// Recovery (Scan) replays the journal front to back. It is paranoid in
// exactly one direction: anything malformed — a torn trailing line from
// a crash mid-append, an unparseable record, a missing or corrupt
// checkpoint, a record from a foreign epoch — degrades to a typed
// warning plus the most conservative safe interpretation (usually
// "restart this query from scratch"), never an error that blocks
// startup. The journal is the source of truth for WHICH queries existed;
// checkpoints are an optimization for resuming them faster.
//
// All appenders inject faults at fault::kJournalWrite and
// fault::kCheckpointWrite (util/fault.h), which is how recovery_test
// aims an ENOSPC at any chosen write.

#ifndef SCPM_SERVER_JOURNAL_H_
#define SCPM_SERVER_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "server/json.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {

/// Journal I/O counters, surfaced in server stats.
struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t io_errors = 0;
};

/// One interrupted query reconstructed from the journal: its identity,
/// the spec JSON exactly as admitted, and the latest snapshot (when one
/// survived).
struct RecoveredQuery {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  JsonValue query;  // admit-record spec, ParseQuerySpec-compatible
  /// Cumulative progress at the latest persisted snapshot, read from
  /// the checkpoint file's meta header (the header and the frontier
  /// snapshot are one atomic rename, so they can never disagree); all
  /// zero when the query never snapshotted.
  std::uint64_t emitted = 0;
  std::uint64_t patterns_emitted = 0;
  std::uint64_t jsonl_lines = 0;
  /// The snapshot itself; has_checkpoint == false (missing/corrupt/
  /// never written) means "re-run from scratch".
  EngineCheckpoint checkpoint;
  bool has_checkpoint = false;
};

/// Everything a restarting server learns from the state directory.
struct RecoveryScan {
  /// The last journaled serving epoch and its graph shape; epoch 0
  /// means the journal held no server record (nothing to recover).
  std::uint64_t epoch = 0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t attributes = 0;
  /// Highest query id ever journaled; the server resumes ids above it.
  std::uint64_t max_id = 0;
  /// Admitted, never-terminal queries of the last epoch, admit order.
  std::vector<RecoveredQuery> queries;
  /// Human-readable accounts of everything discarded or repaired.
  std::vector<std::string> warnings;
};

class StateStore {
 public:
  /// Opens (creating if needed) the state directory and its journal for
  /// appending. The journal is NOT scanned here — call Scan() first if
  /// recovery is wanted, then append away.
  static Result<std::unique_ptr<StateStore>> Open(const std::string& dir);

  ~StateStore();
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  const std::string& dir() const { return dir_; }

  /// Replays the journal into a RecoveryScan (see above; malformed
  /// state degrades to warnings). Reads checkpoint files for every
  /// interrupted query of the last epoch.
  RecoveryScan Scan() const;

  /// Journal appenders. Each writes one line and fsyncs; an I/O failure
  /// (real or injected) is returned typed and counted, and the server
  /// keeps running — durability degrades, queries do not fail.
  Status AppendServer(std::uint64_t epoch, std::uint64_t vertices,
                      std::uint64_t edges, std::uint64_t attributes);
  Status AppendAdmit(std::uint64_t id, std::uint64_t epoch,
                     const JsonValue& query);
  Status AppendProgress(std::uint64_t id, std::uint64_t emitted,
                        std::uint64_t jsonl_lines);
  Status AppendTerminal(std::uint64_t id, const char* state);

  /// Atomically replaces query `id`'s checkpoint file with `cp`'s
  /// serialization plus a meta header carrying the cumulative emission
  /// counters at the snapshot (the pair must be atomic: a journal line
  /// cannot be transactional with a separate file, a header in the
  /// renamed file is). On any failure the previous checkpoint file (if
  /// one exists) is untouched.
  Status WriteCheckpoint(std::uint64_t id, const EngineCheckpoint& cp,
                         std::uint64_t emitted, std::uint64_t patterns_emitted,
                         std::uint64_t jsonl_lines);

  /// Best-effort cleanup once a query is terminal.
  void RemoveCheckpoint(std::uint64_t id);

  JournalStats stats() const;

 private:
  StateStore(std::string dir, int journal_fd);

  Status AppendLine(const std::string& line);
  std::string CheckpointPath(std::uint64_t id) const;

  const std::string dir_;
  mutable std::mutex mutex_;
  int journal_fd_ = -1;
  JournalStats stats_;
};

}  // namespace scpm

#endif  // SCPM_SERVER_JOURNAL_H_
