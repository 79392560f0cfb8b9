// Frontier-driven SCPM mining engine.
//
// The paper's Algorithm 2 walks the attribute-set lattice; the original
// implementation expressed that walk as recursive task spawning, which
// ties the run's lifetime and memory to the whole lattice. This engine
// makes the walk's state explicit — a work-list (the *frontier*) of
// expansion entries, in the style of Galois worklists and LTSmin
// exploration frontiers — and drains it on the existing work-stealing
// pool. An entry expands one member of one evaluated equivalence class:
// it builds the member's children by occurrence deliver
// (core/occurrence.h), evaluates them, finalizes the reported ones into
// the run's PatternSink, and turns the extendable children's class into
// new entries.
//
// How the frontier drains depends on the run. By default it drains in
// capped waves: each wave is filled to a fixed evaluation mass (less
// what is left of a budget) and ends in a barrier, which is what puts a
// count-budget cut at a thread-count-independent point and a periodic
// snapshot at an entry-consistent one. The lattice phase of a run on
// its own pool, with no evaluation or pattern budget and no periodic
// snapshots, is instead one open wave: each entry is a pool task, and a
// completed expansion spawns its children straight into the running
// wave, so the walk runs depth-first with no per-level barrier.
//
// What the explicit frontier buys:
//
//  * Streaming output — a finalized attribute set leaves the engine
//    immediately through the sink; with a streaming sink, resident memory
//    is O(frontier), not O(output).
//  * Budgets / anytime mining — evaluation-count and pattern-count
//    budgets cut the run at the next capped-wave boundary (a
//    deterministic, thread-count-independent point); a wall-clock
//    deadline latches a CancelToken that the quasi-clique searches poll,
//    so even one long coverage search stops within a candidate's work.
//    Entries in flight at a deadline cut, and entries not yet started,
//    are re-queued whole (their output was never emitted), so no
//    attribute set is ever emitted twice.
//  * Checkpoint / resume — a cut run serializes the remaining frontier
//    (pending entries, their classes' attribute sets, and the Theorem-3
//    covered sets children still need). Resume(checkpoint) validates it,
//    recomputes the cheap derived state (tidsets) and continues; the
//    union of emissions across the cut run and its resumes equals an
//    uncut run's output exactly.
//
// Determinism contract: with no budget, the engine's output through an
// AccumulatingSink — rows, patterns, and the lattice and set-kernel
// counters (see ScpmCounters) — is byte-identical for any thread count.
// Traversal order changes (roots start heaviest first); the keyed
// emission order and the per-evaluation arithmetic do not. Every resume
// seeds uncounted, so those counters summed over a cut-and-resume chain
// also equal the uncut run's, whether the chain resumed in-process, from
// disk, or after a crash.

#ifndef SCPM_CORE_ENGINE_H_
#define SCPM_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/scpm.h"
#include "core/sink.h"
#include "graph/attributed_graph.h"
#include "graph/types.h"
#include "util/cancel.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {

class ParallelismBudget;
class ThreadPool;

/// Cross-run evaluation memo consulted by the engine, one lookup per
/// attribute-set evaluation. The stored value is the complete outcome of
/// evaluating an attribute set — its Theorem-3 covered set, whether it
/// passed the report thresholds (and with what stats/patterns), and
/// whether it is extendable — all of which are pure functions of (graph,
/// output-relevant options, attribute set). A hit skips the induced
/// subgraph build and both quasi-clique searches and replays the stored
/// outcome, so the emitted rows and patterns are byte-identical to a
/// cold evaluation; only the work counters (coverage candidates, kernel
/// dispatches) shrink to reflect the work actually done.
///
/// The caller is responsible for binding: an implementation must never
/// serve a value recorded under a different graph or a different
/// OptionsFingerprint (the server wraps its cache in a per-query view
/// keyed by graph epoch + fingerprint; see server/memo.h). Lookup and
/// Insert may be called concurrently from pool workers.
class EvalMemo {
 public:
  struct Evaluation {
    VertexSet covered;  // K_S in global ids (sorted)
    bool extendable = false;
    bool reported = false;
    AttributeSetOutput output;  // valid when reported
  };

  virtual ~EvalMemo() = default;

  /// Returns the memoized evaluation of `items`, or nullptr on miss.
  virtual std::shared_ptr<const Evaluation> Lookup(
      const AttributeSet& items) = 0;

  /// Publishes a finished evaluation. Implementations may drop it (size
  /// cap) or keep an existing entry — concurrent inserts for the same
  /// key carry identical values by construction.
  virtual void Insert(const AttributeSet& items,
                      std::shared_ptr<const Evaluation> eval) = 0;
};

/// Anytime budgets. All default to "unlimited"; the evaluation and
/// pattern budgets are enforced at capped-wave boundaries only, so their
/// cut point is a pure function of the input (never of thread count or
/// timing). The deadline is wall-clock and therefore cuts wherever the
/// clock picks — still an entry-consistent state.
struct EngineBudget {
  /// Cut once this many attribute-set evaluations have completed
  /// (0 = unlimited).
  std::uint64_t max_evaluations = 0;
  /// Cut once this many patterns have been emitted to the sink
  /// (0 = unlimited).
  std::uint64_t max_patterns = 0;
  /// Wall-clock deadline in milliseconds from Run/Resume entry
  /// (0 = none).
  std::uint64_t deadline_ms = 0;

  /// True when an evaluation or pattern budget is set: such a run
  /// drains its lattice in capped waves, whose barriers fix the cut.
  bool has_count_budget() const {
    return max_evaluations != 0 || max_patterns != 0;
  }
};

/// Serializable snapshot of a cut run: everything a later process needs
/// to finish the walk. Tidsets are deliberately absent — they are
/// recomputed from the graph's attribute index on resume, which keeps the
/// checkpoint O(frontier) in the covered sets only.
class EngineCheckpoint {
 public:
  /// One evaluated, extendable attribute set still referenced by pending
  /// expansion entries.
  struct Member {
    AttributeSet items;
    VertexSet covered;  // K_S, for the children's Theorem-3 pruning
  };
  /// An equivalence class with at least one unexpanded member.
  struct PendingClass {
    std::vector<std::uint32_t> path;  // emission-key prefix of the class
    std::vector<Member> members;
  };
  /// One pending expansion entry: class index + member index.
  struct PendingExpansion {
    std::uint32_t class_index = 0;
    std::uint32_t sibling = 0;
  };
  /// Pending root (singleton) evaluations; `indices` are the positions in
  /// the frequent-singleton list (they fix emission keys). The engine
  /// writes one singleton per batch and resumes a batch of several as
  /// one root entry per singleton.
  struct PendingRootBatch {
    std::vector<std::uint32_t> indices;
    std::vector<AttributeId> attrs;
  };
  /// An already-evaluated, extendable singleton awaiting root-class
  /// formation (roots phase only).
  struct DoneRoot {
    std::uint32_t index = 0;
    AttributeId attr = 0;
    VertexSet covered;
  };

  bool empty() const {
    return root_batches.empty() && classes.empty() && !valid;
  }

  /// The one on-disk / on-wire encoding: checksummed binary v2 with
  /// interned set tables (layout in core/ckpt_codec.cc). Load/Parse
  /// reject any other bytes with kInvalidArgument; Load stops at the
  /// encoding's length prefix, so bytes after the checkpoint stay in the
  /// stream.
  Status Save(std::ostream& os) const;
  std::string Serialize() const;
  static Result<EngineCheckpoint> Load(std::istream& is);
  static Result<EngineCheckpoint> Parse(const std::string& text);

  // Binding: a checkpoint only resumes against the same graph shape and
  // the same output-relevant options (perf knobs may differ).
  VertexId num_vertices = 0;
  std::uint64_t num_attributes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t options_fingerprint = 0;

  bool in_roots_phase = false;
  std::vector<DoneRoot> done_roots;            // roots phase
  std::vector<PendingRootBatch> root_batches;  // roots phase, frontier order
  std::vector<PendingClass> classes;           // tree phase
  std::vector<PendingExpansion> expansions;    // tree phase, frontier order
  bool valid = false;  // set by the engine / a successful parse
};

/// Outcome of one Run/Resume segment.
struct MiningRun {
  /// True when the lattice walk completed; false when a budget cut it.
  bool exhausted = true;
  /// Engine counters for THIS segment (cancelled in-flight entries
  /// contribute nothing, so deterministic budgets yield deterministic
  /// counters). A resumed run's counters do not include prior segments.
  ScpmCounters counters;
  /// Attribute sets / patterns emitted to the sink during this segment.
  std::uint64_t emitted = 0;
  std::uint64_t patterns_emitted = 0;
  /// Frontier entries remaining at the cut (0 when exhausted).
  std::size_t frontier_entries = 0;
  /// Evaluation-memo outcomes for this segment (both zero when no memo
  /// is attached). Hits replay a stored evaluation; misses did the work
  /// and published it. hits + misses = attribute_sets_evaluated.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// Set when exhausted is false.
  EngineCheckpoint checkpoint;
};

/// Progress snapshot for observers, taken at the end of each wave: every
/// capped wave, and each open wave (see the file comment), which ends
/// when the lattice is drained or cut.
struct EngineProgress {
  std::uint64_t evaluations = 0;
  std::uint64_t emitted = 0;
  std::uint64_t patterns_emitted = 0;
  std::size_t frontier_entries = 0;
};

/// Everything a Run/Resume takes from its caller besides the graph, the
/// options, the null model, and the sink. ScpmEngine owns one and each
/// Run/Resume borrows it for the segment's duration; the setters below
/// are the way to fill it. Pointers are borrowed and may be null.
struct EngineEnvironment {
  EngineBudget budget;
  std::function<void(const EngineProgress&)> progress;
  std::uint64_t checkpoint_interval_ms = 0;
  std::function<void(const EngineCheckpoint&, const EngineProgress&)>
      checkpoint_observer;
  ThreadPool* shared_pool = nullptr;
  ParallelismBudget* shared_intra_budget = nullptr;
  EvalMemo* memo = nullptr;
  CancelToken* cancel = nullptr;
};

/// The engine. Stateless between calls apart from configuration; each
/// Run/Resume builds its own pool, worker states, and frontier. The
/// optional null model is borrowed and must be the same (semantically)
/// across a checkpoint's segments — the fingerprint only records its
/// presence.
class ScpmEngine {
 public:
  explicit ScpmEngine(ScpmOptions options,
                      ExpectationModel* null_model = nullptr)
      : options_(options), null_model_(null_model) {}

  const ScpmOptions& options() const { return options_; }

  void set_budget(EngineBudget budget) { env_.budget = budget; }

  /// Observer invoked at the end of every wave (see EngineProgress), from
  /// the driving thread.
  void set_progress(std::function<void(const EngineProgress&)> progress) {
    env_.progress = std::move(progress);
  }

  /// Periodic durability observer: at the first wave boundary at least
  /// `interval_ms` after the previous snapshot (and after Run/Resume
  /// entry), the observer receives a checkpoint of the remaining frontier
  /// plus the segment's progress so far, then the run continues. A run
  /// with an observer drains in capped waves, so boundaries keep coming.
  /// The snapshot is a copy, so it may outlive the run and the process.
  /// The observer runs on the driving thread between waves (no entry
  /// runs), so it may do I/O without racing the engine. interval_ms
  /// == 0 or a null observer disables periodic snapshots; neither
  /// affects what is mined or the budget-cut checkpoint in MiningRun.
  void set_checkpoint_observer(
      std::uint64_t interval_ms,
      std::function<void(const EngineCheckpoint&, const EngineProgress&)>
          observer) {
    env_.checkpoint_interval_ms = interval_ms;
    env_.checkpoint_observer = std::move(observer);
  }

  /// Runs entries on a caller-owned pool instead of building one per
  /// Run/Resume, with intra-search decomposition drawing slots from the
  /// caller's budget. Both pointers are borrowed and must outlive every
  /// Run/Resume; pass nullptrs to return to per-run pools. Placement
  /// only: the shared pool overrides options.num_threads for *where*
  /// tasks execute, never for what is mined, so output stays
  /// byte-identical. This is what lets one resident server multiplex
  /// many concurrent engine runs over one set of worker threads. A run on
  /// a shared pool drains in capped waves, so concurrent runs' waves take
  /// turns in the pool's injection queue.
  void set_shared_pool(ThreadPool* pool, ParallelismBudget* intra_budget) {
    env_.shared_pool = pool;
    env_.shared_intra_budget = intra_budget;
  }

  /// Attaches a cross-run evaluation memo (borrowed; may be nullptr).
  /// The caller must guarantee the memo only serves values recorded
  /// under this engine's graph and OptionsFingerprint.
  void set_eval_memo(EvalMemo* memo) { env_.memo = memo; }

  /// Borrows an external cancel token for the next Run/Resume (nullptr
  /// reverts to a per-run internal token). RequestCancel() from any
  /// thread cuts the run exactly like a deadline: in-flight entries are
  /// discarded whole and re-queued with every entry not yet started, the
  /// run returns exhausted=false with a valid checkpoint, and nothing is
  /// ever emitted twice. The engine arms budget.deadline_ms on this
  /// token before the first wave; the caller must only RequestCancel,
  /// never SetDeadline. One token serves one run at a time.
  void set_cancel_token(CancelToken* token) { env_.cancel = token; }

  /// Walks the whole lattice (or up to the budget), emitting every
  /// reported attribute set into `sink`.
  Result<MiningRun> Run(const AttributedGraph& graph, PatternSink* sink);

  /// Continues a cut run. The checkpoint must have been produced against
  /// the same graph and output-relevant options. Emits only sets not yet
  /// emitted by earlier segments. Seeding validates every set and
  /// rebuilds the tidsets without counting that work, so the segments'
  /// summed counters match an uncut run's.
  Result<MiningRun> Resume(const AttributedGraph& graph,
                           const EngineCheckpoint& checkpoint,
                           PatternSink* sink);

  /// Fingerprint of the output-relevant options (thresholds, scope,
  /// ordering, pruning toggles, null-model presence) used to bind
  /// checkpoints. Perf knobs (threads, grains, the hybrid toggle) are
  /// excluded: they never change what is mined.
  static std::uint64_t OptionsFingerprint(const ScpmOptions& options,
                                          bool has_null_model);

 private:
  ScpmOptions options_;
  ExpectationModel* null_model_;
  EngineEnvironment env_;
};

}  // namespace scpm

#endif  // SCPM_CORE_ENGINE_H_
