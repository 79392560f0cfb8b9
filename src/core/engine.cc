#include "core/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/occurrence.h"
#include "graph/metrics.h"
#include "graph/subgraph.h"
#include "util/cancel.h"
#include "util/hybrid_set.h"
#include "util/logging.h"
#include "util/sorted_ops.h"
#include "util/thread_pool.h"

namespace scpm {

namespace {

using Key = std::vector<std::uint32_t>;

/// One node of the attribute-set enumeration tree. The covered set K_S is
/// not stored here: it lives in the shared CoveredSetCache while children
/// may still need it for Theorem-3 pruning. Tidsets are hybrid: root
/// classes borrow the graph-owned attribute tidsets, children own the
/// vertices occurrence deliver filed for them, and dense sets live as
/// bitmaps.
struct Node {
  AttributeSet items;
  HybridVertexSet tidset;  // V(S)
};

/// FNV-1a over the attribute ids.
struct AttributeSetHash {
  std::size_t operator()(const AttributeSet& items) const {
    std::uint64_t h = 1469598103934665603ull;
    for (AttributeId a : items) {
      h ^= a;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Concurrent map S -> K_S sharing Theorem-3 covered-vertex sets across
/// workers. Mutex-striped so unrelated attribute sets do not contend.
///
/// Usage is deterministic by construction: an entry is inserted before any
/// frontier entry that reads it exists (children of an equivalence class
/// are created only after every class member is evaluated), and only the
/// two generating parents of a child are consulted — never whichever
/// other subsets happen to be resident. That keeps the mined output and
/// the lattice counters independent of thread timing.
class CoveredSetCache {
 public:
  using Entry = std::shared_ptr<const HybridVertexSet>;

  void Insert(const AttributeSet& items, Entry covered) {
    Shard& shard = ShardFor(items);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map[items] = std::move(covered);
  }

  Entry Lookup(const AttributeSet& items) {
    Shard& shard = ShardFor(items);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(items);
    return it == shard.map.end() ? nullptr : it->second;
  }

  void Erase(const AttributeSet& items) {
    Shard& shard = ShardFor(items);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.erase(items);
  }

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<AttributeSet, Entry, AttributeSetHash> map;
  };

  Shard& ShardFor(const AttributeSet& items) {
    return shards_[AttributeSetHash{}(items) % shards_.size()];
  }

  std::array<Shard, 16> shards_;
};

/// The class premise: every member of an equivalence class is P + {l}
/// for one sorted prefix P and strictly increasing last items l. So a
/// member's tidset is T_P ∩ V(l), which occurrence deliver relies on.
bool ExtendsClassPrefix(const AttributeSet& prev, const AttributeSet& next) {
  return prev.size() == next.size() && !next.empty() &&
         std::equal(prev.begin(), prev.end() - 1, next.begin()) &&
         prev.back() < next.back();
}

/// An evaluated equivalence class whose members may still be extended,
/// with the emission-key prefix its members' children extend.
/// Destruction (when the last frontier entry referencing the class is
/// consumed) evicts the members' covered sets from the cache.
struct ClassNode {
  ClassNode(CoveredSetCache* cache, Key path)
      : path(std::move(path)), cache(cache) {}
  ~ClassNode() {
    for (const Node& s : siblings) cache->Erase(s.items);
  }
  ClassNode(const ClassNode&) = delete;
  ClassNode& operator=(const ClassNode&) = delete;

  /// Appends a member; members must keep the class premise.
  void Append(Node node) {
    SCPM_CHECK(siblings.empty() ||
               ExtendsClassPrefix(siblings.back().items, node.items))
        << "class members do not extend one prefix";
    siblings.push_back(std::move(node));
  }

  std::vector<Node> siblings;
  const Key path;
  CoveredSetCache* cache;
};

/// Mutable per-worker scratch: a reusable quasi-clique miner, the
/// induced-subgraph workspace feeding it, and the occurrence-deliver
/// buckets that build an expansion's child tidsets. Counters do NOT live
/// here — they flow through per-entry bundles so a cancelled entry's
/// partial work leaves no trace.
struct WorkerState {
  WorkerState(const ScpmOptions& options, std::size_t num_attributes)
      : miner(options.miner_options()), deliver(num_attributes) {
    miner.set_workspace(&workspace);
  }

  SubgraphWorkspace workspace;  // before miner: it must outlive it
  QuasiCliqueMiner miner;
  OccurrenceDeliver deliver;
};

/// Deterministic counter deltas of one frontier entry, folded into the
/// engine totals at the wave barrier in a fixed order. Cancelled entries
/// discard theirs, so engine totals reflect exactly the completed
/// entries.
struct CounterBundle {
  ScpmCounters counters;
  SetOpStats set_ops;
  // Cross-run memo outcomes; not part of ScpmCounters (they describe
  // the cache, not the mining effort) but folded with the same
  // cancelled-entries-leave-no-trace discipline.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;

  void MergeFrom(const CounterBundle& other) {
    memo_hits += other.memo_hits;
    memo_misses += other.memo_misses;
    // Kernel counters ride in set_ops within a run (folded into
    // counters at TakeRun), so other.counters' kernel fields are zero
    // here and the field-wise merge is exact.
    counters.MergeFrom(other.counters);
    set_ops.MergeFrom(other.set_ops);
  }
};

/// Evaluation output and bookkeeping of one child attribute set.
struct EvalSlot {
  Node node;
  Key key;                         // emission key, set by the producer
  CoveredSetCache::Entry covered;  // set only when extendable
  bool extendable = false;
  bool reported = false;
  AttributeSetOutput output;  // valid when reported
};

/// A frequent singleton: its fixed emission index plus its evaluation
/// slot, filled by its root entry.
struct RootSlot {
  std::uint32_t index = 0;  // position in the frequent-singleton list
  AttributeId attr = 0;
  bool done = false;  // marked by the driver at the wave barrier
  EvalSlot slot;
};

/// One unit of frontier work, and the only lattice task. cls == nullptr
/// marks a root entry (evaluate singles[single]); otherwise the entry
/// expands cls->siblings[sibling] under emission-key prefix cls->path.
struct FrontierEntry {
  std::size_t single = 0;
  std::shared_ptr<ClassNode> cls;
  std::uint32_t sibling = 0;
};

/// What one processed entry hands back to the driver at the wave barrier.
struct EntryResult {
  bool cancelled = false;  // discard everything, re-queue the entry
  CounterBundle bundle;
  std::uint64_t emitted = 0;           // attribute sets
  std::uint64_t patterns_emitted = 0;  // patterns across those sets
  std::vector<FrontierEntry> children;  // in sibling (key) order
};

/// Evaluations one frontier wave is filled to (see RunWave). A wave ends
/// in a barrier, so it must be large enough to spread a lattice-bound
/// run's cheap evaluations over the pool. It stays moderate because a
/// wave widens the frontier, which a sliced (server) run re-seeds from
/// its checkpoint at every slice; 4x larger waves bought ~6% more on a
/// 50x Last.fm-like graph and ~1% more peak memory.
constexpr std::uint64_t kWaveMass = 4096;

/// One Run/Resume segment: owns the frontier, the pool, the caches, and
/// the wave loop.
class EngineRunner {
 public:
  EngineRunner(const AttributedGraph& graph, const ScpmOptions& options,
               ExpectationModel* null_model, const EngineEnvironment& env,
               PatternSink* sink)
      : graph_(graph),
        options_(options),
        null_model_(null_model),
        env_(env),
        sink_(sink),
        // Slot count caps the intra-search branch tasks outstanding at
        // once across ALL evaluations: a huge-G(S) evaluation that grabs
        // slots is borrowing parallelism its sibling evaluations would
        // otherwise spend, and returns it as its subtasks drain. With a
        // shared pool the caller's budget plays that role server-wide.
        own_intra_budget_(options.num_threads > 1 ? 2 * options.num_threads
                                                  : 0),
        intra_budget_(env.shared_intra_budget != nullptr
                          ? env.shared_intra_budget
                          : &own_intra_budget_),
        token_(env.cancel != nullptr ? *env.cancel : own_token_) {
    if (env.shared_pool != nullptr) {
      pool_ = env.shared_pool;
    } else if (options_.num_threads > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
      pool_ = owned_pool_.get();
    }
    // One scratch per thread that can run evaluation tasks: the pool's
    // workers (a shared pool may have more than options.num_threads),
    // slot 0 doubling for the driving thread in sequential mode.
    const std::size_t workers =
        pool_ != nullptr ? pool_->num_threads()
                         : std::max<std::size_t>(1, options_.num_threads);
    states_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      states_.push_back(
          std::make_unique<WorkerState>(options_, graph_.NumAttributes()));
    }
    for (const std::unique_ptr<WorkerState>& ws : states_) {
      ws->miner.set_parallel_context(pool_, intra_budget_);
      ws->miner.set_cancel_token(&token_);
    }
  }

  /// Seeds the frontier with the frequent singletons (paper Algorithm 2
  /// line 1), one root entry each.
  void SeedFresh() {
    phase_roots_ = true;
    for (AttributeId a = 0; a < graph_.NumAttributes(); ++a) {
      if (graph_.VerticesWith(a).size() < options_.min_support) continue;
      RootSlot rs;
      rs.index = static_cast<std::uint32_t>(singles_.size());
      rs.attr = a;
      singles_.push_back(std::move(rs));
      PushRootEntry(singles_.size() - 1);
    }
    OrderRootsLargestFirst();
  }

  /// A roots-phase checkpoint lists each frequent singleton at most once
  /// (done or pending), with emission indices in attribute order, as
  /// SeedFresh() numbered them. A repeated attribute would enter the root
  /// class twice and have its expansions create the same sets twice.
  Status ValidateRoots(const EngineCheckpoint& cp) const {
    std::vector<std::pair<std::uint32_t, AttributeId>> roots;
    for (const EngineCheckpoint::DoneRoot& dr : cp.done_roots) {
      roots.emplace_back(dr.index, dr.attr);
    }
    for (const EngineCheckpoint::PendingRootBatch& batch : cp.root_batches) {
      if (batch.indices.size() != batch.attrs.size()) {
        return Status::InvalidArgument("checkpoint root batch malformed");
      }
      for (std::size_t k = 0; k < batch.attrs.size(); ++k) {
        roots.emplace_back(batch.indices[k], batch.attrs[k]);
      }
    }
    std::sort(roots.begin(), roots.end());
    for (std::size_t k = 0; k < roots.size(); ++k) {
      if (roots[k].second >= graph_.NumAttributes()) {
        return Status::InvalidArgument("checkpoint root attr out of range");
      }
      if (k > 0 && (roots[k - 1].first == roots[k].first ||
                    roots[k - 1].second >= roots[k].second)) {
        return Status::InvalidArgument(
            "checkpoint roots repeat or leave attribute order");
      }
    }
    return Status::OK();
  }

  Status SeedFromCheckpoint(const EngineCheckpoint& cp) {
    if (!cp.valid) {
      return Status::InvalidArgument("checkpoint is empty or unparsed");
    }
    if (cp.num_vertices != graph_.NumVertices() ||
        cp.num_attributes != graph_.NumAttributes() ||
        cp.num_edges != graph_.graph().NumEdges()) {
      return Status::InvalidArgument(
          "checkpoint was taken against a different graph");
    }
    if (cp.options_fingerprint !=
        ScpmEngine::OptionsFingerprint(options_, null_model_ != nullptr)) {
      return Status::InvalidArgument(
          "checkpoint was taken under different mining options");
    }
    // Covered sets are the one bulky untrusted input: everything
    // downstream (bitmap promotion, Theorem-3 word kernels) assumes
    // sorted, duplicate-free, in-range vertex ids.
    const auto valid_covered = [this](const VertexSet& covered) {
      return IsStrictlySorted(covered) &&
             (covered.empty() || covered.back() < graph_.NumVertices());
    };
    // Seeding rebuilds sets the cut segment already built and counted, so
    // none of it is counted again: the segments' summed counters then
    // equal an uncut run's.
    if (cp.in_roots_phase) {
      SCPM_RETURN_IF_ERROR(ValidateRoots(cp));
      phase_roots_ = true;
      for (const EngineCheckpoint::DoneRoot& dr : cp.done_roots) {
        RootSlot rs;
        rs.index = dr.index;
        rs.attr = dr.attr;
        rs.done = true;
        rs.slot.node.items = {dr.attr};
        rs.slot.extendable = true;
        if (!valid_covered(dr.covered)) {
          return Status::InvalidArgument(
              "checkpoint root covered set malformed");
        }
        rs.slot.node.tidset = RecomputeTidset(rs.slot.node.items);
        rs.slot.covered = std::make_shared<const HybridVertexSet>(
            HybridVertexSet::FromVector(dr.covered, SetUniverse(), nullptr));
        singles_.push_back(std::move(rs));
      }
      // This engine writes one singleton per batch; a batch of several
      // (older checkpoints) becomes one root entry per singleton.
      for (const EngineCheckpoint::PendingRootBatch& batch : cp.root_batches) {
        for (std::size_t k = 0; k < batch.attrs.size(); ++k) {
          RootSlot rs;
          rs.index = batch.indices[k];
          rs.attr = batch.attrs[k];
          singles_.push_back(std::move(rs));
          PushRootEntry(singles_.size() - 1);
        }
      }
      OrderRootsLargestFirst();
      return Status::OK();
    }

    phase_roots_ = false;
    std::vector<std::shared_ptr<ClassNode>> classes;
    classes.reserve(cp.classes.size());
    for (const EngineCheckpoint::PendingClass& pc : cp.classes) {
      auto cls = std::make_shared<ClassNode>(&cache_, pc.path);
      for (const EngineCheckpoint::Member& m : pc.members) {
        if (m.items.empty()) {
          return Status::InvalidArgument("checkpoint class member is empty");
        }
        if (!IsStrictlySorted(m.items) ||
            m.items.back() >= graph_.NumAttributes()) {
          return Status::InvalidArgument(
              "checkpoint member attribute set unsorted or out of range");
        }
        // Every class an expansion creates keeps the class premise.
        if (!cls->siblings.empty() &&
            !ExtendsClassPrefix(cls->siblings.back().items, m.items)) {
          return Status::InvalidArgument(
              "checkpoint class members do not extend one prefix");
        }
        // Every attribute set belongs to exactly one class. A repeat
        // would share one cache slot between two classes, and the first
        // class to finish would evict the covered set the other still
        // needs.
        if (cache_.Lookup(m.items) != nullptr) {
          return Status::InvalidArgument(
              "checkpoint member attribute set appears twice");
        }
        if (!valid_covered(m.covered)) {
          return Status::InvalidArgument(
              "checkpoint member covered set malformed");
        }
        Node node;
        node.items = m.items;
        node.tidset = RecomputeTidset(m.items);
        cache_.Insert(m.items, std::make_shared<const HybridVertexSet>(
                                   HybridVertexSet::FromVector(
                                       m.covered, SetUniverse(), nullptr)));
        cls->Append(std::move(node));
      }
      classes.push_back(std::move(cls));
    }
    // Expanding member S creates exactly the sets that extend S as a
    // sorted prefix. A checkpoint that expands S twice, or already holds
    // such an extension, would have this run create one attribute set
    // twice, and the class finishing first would evict the covered set
    // the other still reads. The covered-set lookups in EvaluateNode and
    // BuildCheckpoint rely on this check.
    std::unordered_set<AttributeSet, AttributeSetHash> expanding;
    for (const EngineCheckpoint::PendingExpansion& e : cp.expansions) {
      if (e.class_index >= classes.size() ||
          e.sibling >= classes[e.class_index]->siblings.size()) {
        return Status::InvalidArgument("checkpoint expansion out of range");
      }
      if (!expanding.insert(classes[e.class_index]->siblings[e.sibling].items)
               .second) {
        return Status::InvalidArgument("checkpoint expansion appears twice");
      }
      FrontierEntry entry;
      entry.cls = classes[e.class_index];
      entry.sibling = e.sibling;
      frontier_.push_back(std::move(entry));
    }
    for (const EngineCheckpoint::PendingClass& pc : cp.classes) {
      for (const EngineCheckpoint::Member& m : pc.members) {
        for (std::size_t len = 1; len < m.items.size(); ++len) {
          if (expanding.count(AttributeSet(m.items.begin(),
                                           m.items.begin() + len)) != 0) {
            return Status::InvalidArgument(
                "checkpoint member extends a pending expansion");
          }
        }
      }
    }
    return Status::OK();
  }

  /// The wave loop: drain the frontier until exhausted, cut, or error.
  Status Drive() {
    if (env_.budget.deadline_ms != 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(env_.budget.deadline_ms);
      token_.SetDeadline(deadline_);
    }
    auto last_snapshot = std::chrono::steady_clock::now();
    while (true) {
      if (has_error_.load()) return FirstError();
      if (frontier_.empty()) {
        if (phase_roots_) {
          FormRootClass();
          phase_roots_ = false;
          continue;
        }
        exhausted_ = true;
        return FirstError();
      }
      if (BudgetHit()) {
        exhausted_ = false;
        return Status::OK();
      }
      RunWave();
      if (env_.progress || env_.checkpoint_observer) {
        EngineProgress p;
        p.evaluations = total_.counters.attribute_sets_evaluated;
        p.emitted = emitted_;
        p.patterns_emitted = patterns_emitted_;
        p.frontier_entries = frontier_.size();
        if (env_.progress) env_.progress(p);
        // Periodic durability snapshot: a checkpoint copy handed
        // out between waves, when the workers are parked and the
        // frontier is entry-consistent. Skipped when the walk just
        // finished — TakeRun() reports exhaustion instead.
        if (env_.checkpoint_observer && env_.checkpoint_interval_ms != 0 &&
            !(frontier_.empty() && !phase_roots_)) {
          const auto now = std::chrono::steady_clock::now();
          if (now - last_snapshot >=
              std::chrono::milliseconds(env_.checkpoint_interval_ms)) {
            env_.checkpoint_observer(BuildCheckpoint(), p);
            last_snapshot = std::chrono::steady_clock::now();
          }
        }
      }
    }
  }

  MiningRun TakeRun() {
    MiningRun run;
    run.exhausted = exhausted_;
    run.counters = total_.counters;
    run.counters.bitmap_intersections += total_.set_ops.bitmap_intersections;
    run.counters.galloping_intersections +=
        total_.set_ops.galloping_intersections;
    run.counters.dense_conversions += total_.set_ops.dense_conversions;
    run.memo_hits = total_.memo_hits;
    run.memo_misses = total_.memo_misses;
    run.emitted = emitted_;
    run.patterns_emitted = patterns_emitted_;
    run.frontier_entries = frontier_.size();
    if (!exhausted_) run.checkpoint = BuildCheckpoint();
    return run;
  }

 private:
  /// Waits out one wave. With a deadline, the wait is bounded: on timeout
  /// the token latches and the wait resumes — every search polls the
  /// token, so the remaining tasks unwind within a candidate's work each.
  void AwaitWave(ThreadPool::TaskGroup* group) {
    if (pool_ == nullptr) return;
    if (env_.budget.deadline_ms != 0) {
      if (!pool_->WaitForUntil(group, deadline_)) {
        token_.RequestCancel();
        pool_->WaitFor(group);
      }
    } else {
      pool_->WaitFor(group);
    }
  }

  void PushRootEntry(std::size_t single) {
    FrontierEntry entry;
    entry.single = single;
    frontier_.push_back(std::move(entry));
  }

  /// Orders the pending root entries so that RunWave, which pops from the
  /// back, starts the heaviest first. Singletons have no parents, so root
  /// evaluations are independent and only their start order moves: the
  /// largest coverage searches, which set the critical path, share the
  /// first wave instead of landing in later waves one after the other.
  /// Weight is the tidset size; ties go to the lower `single`, so the
  /// order is total. FormRootClass re-sorts by emission index, so class
  /// layout and keys do not depend on this order.
  void OrderRootsLargestFirst() {
    const auto weight = [this](const FrontierEntry& e) {
      return graph_.VerticesWith(singles_[e.single].attr).size();
    };
    std::sort(frontier_.begin(), frontier_.end(),
              [&weight](const FrontierEntry& a, const FrontierEntry& b) {
                const std::size_t wa = weight(a);
                const std::size_t wb = weight(b);
                return wa != wb ? wa < wb : a.single > b.single;
              });
  }

  /// The calling worker's scratch (slot 0 in sequential mode and for the
  /// driving thread, which only runs work while no task is live).
  WorkerState& State() {
    const int index = pool_ != nullptr ? pool_->current_worker_index() : -1;
    return *states_[index < 0 ? 0 : static_cast<std::size_t>(index)];
  }

  /// Universe passed to every hybrid set: the vertex count with hybrid
  /// storage on, 0 (never dense, pure merge path) with it off.
  VertexId SetUniverse() const {
    return options_.use_hybrid_sets ? graph_.NumVertices() : 0;
  }

  SetOpStats* BundleSetStats(CounterBundle* bundle) {
    return options_.use_hybrid_sets ? &bundle->set_ops : nullptr;
  }

  void RecordError(Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (first_error_.ok()) first_error_ = std::move(status);
    }
    has_error_.store(true);
    // Abort in-flight searches quickly; nothing will be emitted or
    // checkpointed after an error anyway.
    token_.RequestCancel();
  }

  Status FirstError() {
    std::lock_guard<std::mutex> lock(error_mutex_);
    return first_error_;
  }

  bool BudgetHit() {
    const EngineBudget& budget = env_.budget;
    if (budget.max_evaluations != 0 &&
        total_.counters.attribute_sets_evaluated >= budget.max_evaluations) {
      return true;
    }
    if (budget.max_patterns != 0 && patterns_emitted_ >= budget.max_patterns) {
      return true;
    }
    if (budget.deadline_ms != 0 && token_.CheckNow()) return true;
    // An externally latched token (no deadline armed) must also cut,
    // or cancelled entries would re-queue forever.
    if (token_.cancelled()) return true;
    return false;
  }

  /// Evaluations an entry can make: one for a root, one per later
  /// sibling of an expansion (an upper bound: children below min_support
  /// are never evaluated).
  static std::uint64_t EntryMass(const FrontierEntry& entry) {
    return entry.cls == nullptr ? 1
                                : entry.cls->siblings.size() - entry.sibling - 1;
  }

  /// The mass a wave is filled to: kWaveMass, lowered to what is left of
  /// the evaluation and pattern budgets. RunWave runs only while neither
  /// budget is spent, so both differences are positive.
  std::uint64_t WaveMassCap() const {
    const EngineBudget& budget = env_.budget;
    std::uint64_t cap = kWaveMass;
    if (budget.max_evaluations != 0) {
      cap = std::min(cap, budget.max_evaluations -
                              total_.counters.attribute_sets_evaluated);
    }
    if (budget.max_patterns != 0) {
      cap = std::min(cap, budget.max_patterns - patterns_emitted_);
    }
    return cap;
  }

  /// Pops entries off the frontier's back until their summed mass
  /// reaches WaveMassCap() (at least one entry), runs each as one task,
  /// and folds the survivors at the barrier (in wave order, so every fold
  /// is deterministic). The wave is a pure function of the frontier and
  /// the counters, so budget cuts land at the same point for any thread
  /// count, and a wave's mass exceeds what was left of a budget by less
  /// than one entry's mass. Cancelled entries go back whole.
  void RunWave() {
    const std::uint64_t cap = WaveMassCap();
    std::size_t n = 0;
    std::uint64_t mass = 0;
    do {
      mass += EntryMass(frontier_[frontier_.size() - 1 - n]);
      ++n;
    } while (n < frontier_.size() && mass < cap);
    const std::size_t base = frontier_.size() - n;
    std::vector<FrontierEntry> entries(
        std::make_move_iterator(frontier_.begin() + base),
        std::make_move_iterator(frontier_.end()));
    frontier_.resize(base);

    std::vector<EntryResult> results(n);
    ThreadPool::TaskGroup group;
    for (std::size_t i = 0; i < n; ++i) {
      auto task = [this, &entries, &results, i] {
        ProcessEntry(&entries[i], &results[i]);
      };
      if (pool_ != nullptr) {
        pool_->Spawn(&group, std::move(task));
      } else {
        task();
      }
    }
    AwaitWave(&group);

    for (std::size_t i = 0; i < n; ++i) {
      EntryResult& r = results[i];
      if (r.cancelled) {
        frontier_.push_back(std::move(entries[i]));
        continue;
      }
      if (entries[i].cls == nullptr) singles_[entries[i].single].done = true;
      total_.MergeFrom(r.bundle);
      emitted_ += r.emitted;
      patterns_emitted_ += r.patterns_emitted;
      for (FrontierEntry& child : r.children) {
        frontier_.push_back(std::move(child));
      }
    }
  }

  void ProcessEntry(FrontierEntry* entry, EntryResult* result) {
    if (has_error_.load() || token_.cancelled()) {
      result->cancelled = true;
      return;
    }
    if (entry->cls == nullptr) {
      ProcessRoot(*entry, result);
    } else {
      ProcessExpansion(*entry, result);
    }
  }

  /// Evaluates one frequent singleton (emission key {0, index}) and
  /// flushes it when reported.
  void ProcessRoot(const FrontierEntry& entry, EntryResult* result) {
    RootSlot& rs = singles_[entry.single];
    rs.slot = EvalSlot();  // reset: the entry may be a re-run after a cut
    rs.slot.node.items = {rs.attr};
    // Borrow the graph-owned tidset: promoting a dense root to its
    // bitmap happens inside this (parallel) entry, sharding the
    // root-class build across the pool.
    rs.slot.node.tidset =
        HybridVertexSet::View(&graph_.VerticesWith(rs.attr), SetUniverse());
    rs.slot.key = Key{0, rs.index};
    bool cancelled = false;
    EvaluateNode(&rs.slot, nullptr, nullptr, &result->bundle, &cancelled);
    if (cancelled || has_error_.load() || token_.cancelled()) {
      result->cancelled = true;
      return;
    }
    FlushSlot(&rs.slot, result);
  }

  /// Expands sibling i of class `entry.cls` (paper Algorithm 3):
  /// evaluates the children it generates with later siblings, one after
  /// the other on this worker, flushes the reported ones, and hands the
  /// extendable children back as a new class worth of frontier entries.
  void ProcessExpansion(const FrontierEntry& entry, EntryResult* result) {
    const std::vector<Node>& siblings = entry.cls->siblings;
    const std::size_t i = entry.sibling;

    if (i + 1 >= siblings.size()) return;

    // Children by occurrence deliver (core/occurrence.h): one pass over
    // T_i files each vertex under the later siblings' last items, giving
    // T_i ∩ T_j for every j. The scratch is this worker's and is cleared
    // before the evaluations start.
    OccurrenceDeliver& deliver = State().deliver;
    for (std::size_t j = i + 1; j < siblings.size(); ++j) {
      deliver.AddItem(siblings[j].items.back());
    }
    deliver.Deliver(graph_, siblings[i].tidset);
    std::vector<EvalSlot> slots;
    std::vector<std::size_t> js;
    SetOpStats* set_stats = BundleSetStats(&result->bundle);
    for (std::size_t j = i + 1; j < siblings.size(); ++j) {
      const VertexSet& bucket = deliver.bucket(j - i - 1);
      if (bucket.size() < options_.min_support) continue;
      EvalSlot slot;
      slot.node.items.reserve(siblings[i].items.size() + 1);
      slot.node.items = siblings[i].items;
      slot.node.items.push_back(siblings[j].items.back());
      slot.node.tidset =
          HybridVertexSet::FromVector(bucket, SetUniverse(), set_stats);
      slot.key = entry.cls->path;
      slot.key.reserve(slot.key.size() + 3);
      slot.key.push_back(static_cast<std::uint32_t>(i));
      slot.key.push_back(0);
      slot.key.push_back(static_cast<std::uint32_t>(j));
      slots.push_back(std::move(slot));
      js.push_back(j);
    }
    deliver.Clear();
    if (slots.empty()) return;

    bool cancelled = false;
    for (std::size_t s = 0; s < slots.size() && !cancelled; ++s) {
      if (token_.cancelled() || has_error_.load()) break;
      EvaluateNode(&slots[s], &siblings[i].items, &siblings[js[s]].items,
                   &result->bundle, &cancelled);
    }
    if (cancelled || has_error_.load() || token_.cancelled()) {
      result->cancelled = true;
      return;
    }
    for (EvalSlot& slot : slots) {
      if (!FlushSlot(&slot, result)) return;
    }

    Key child_path = entry.cls->path;
    child_path.push_back(static_cast<std::uint32_t>(i));
    child_path.push_back(1);
    auto child_class =
        std::make_shared<ClassNode>(&cache_, std::move(child_path));
    for (EvalSlot& slot : slots) {
      if (!slot.extendable) continue;
      cache_.Insert(slot.node.items, std::move(slot.covered));
      child_class->Append(std::move(slot.node));
    }
    result->bundle.counters.attribute_sets_extended +=
        child_class->siblings.size();
    if (child_class->siblings.empty() ||
        child_class->siblings.front().items.size() >=
            options_.max_attribute_set_size) {
      return;
    }
    result->children.reserve(child_class->siblings.size());
    for (std::size_t c = 0; c < child_class->siblings.size(); ++c) {
      FrontierEntry child;
      child.cls = child_class;
      child.sibling = static_cast<std::uint32_t>(c);
      result->children.push_back(std::move(child));
    }
  }

  /// Emits a reported slot to the sink. Returns false after recording an
  /// error (the run aborts; the entry is marked cancelled so the driver
  /// folds nothing from it).
  bool FlushSlot(EvalSlot* slot, EntryResult* result) {
    if (!slot->reported) return true;
    const std::uint64_t patterns = slot->output.patterns.size();
    Status status = sink_->Emit(slot->key, std::move(slot->output));
    slot->reported = false;
    if (!status.ok()) {
      RecordError(std::move(status));
      result->cancelled = true;
      return false;
    }
    ++result->emitted;
    result->patterns_emitted += patterns;
    return true;
  }

  /// Computes K_S / eps / delta for a node, records it (and its patterns)
  /// into the slot when it passes the thresholds, and decides
  /// extendability per Theorems 4 and 5. A cancelled quasi-clique search
  /// sets *cancelled instead of erroring.
  void EvaluateNode(EvalSlot* slot, const AttributeSet* parent_a,
                    const AttributeSet* parent_b, CounterBundle* bundle,
                    bool* cancelled) {
    if (has_error_.load()) return;
    WorkerState& ws = State();
    SetOpStats* set_stats = BundleSetStats(bundle);
    ++bundle->counters.attribute_sets_evaluated;
    Node& node = slot->node;
    // Root tidsets arrive as borrowed views; promote the dense ones to
    // bitmaps here, inside the (parallel) evaluation task. Intersection
    // results are already in canonical representation, so this is a
    // cheap no-op for every deeper node.
    node.tidset.Normalize(set_stats);

    // Cross-run memo: a hit replays the stored outcome — same report
    // decision, same stats and patterns, same extendability, same
    // covered set for the children — without building G(S) or running
    // either quasi-clique search. The caller bound the memo to this
    // graph and options fingerprint, so the replay is byte-identical to
    // evaluating; the evaluated/reported counters advance exactly as on
    // a cold evaluation (budget cut points do not move between hot and
    // cold runs), only the work counters shrink.
    if (env_.memo != nullptr) {
      std::shared_ptr<const EvalMemo::Evaluation> hit =
          env_.memo->Lookup(node.items);
      if (hit != nullptr) {
        ++bundle->memo_hits;
        if (hit->reported) {
          ++bundle->counters.attribute_sets_reported;
          slot->output = hit->output;
          slot->reported = true;
        }
        slot->extendable = hit->extendable;
        if (hit->extendable) {
          slot->covered = std::make_shared<const HybridVertexSet>(
              HybridVertexSet::FromVector(hit->covered, SetUniverse(),
                                          set_stats));
        }
        return;
      }
      ++bundle->memo_misses;
    }

    // Theorem 3: quasi-cliques of G(S) live inside the parents' covered
    // sets, so the search universe can be restricted to them.
    HybridVertexSet universe = node.tidset;
    if (options_.use_vertex_pruning) {
      HybridVertexSet tmp;
      for (const AttributeSet* parent : {parent_a, parent_b}) {
        if (parent == nullptr) continue;
        // Never null, resumed runs included: SeedFromCheckpoint rejects
        // a checkpoint that would create one attribute set twice.
        CoveredSetCache::Entry covered = cache_.Lookup(*parent);
        SCPM_CHECK(covered != nullptr)
            << "parent covered set evicted before its children finished";
        HybridVertexSet::Intersect(universe, *covered, &tmp, set_stats);
        universe = std::move(tmp);
        tmp = HybridVertexSet();
      }
    }

    // Adaptive granularity, subgraph side: a huge G(S) decomposes its own
    // quasi-clique search into branch tasks, borrowing pool slots from
    // the shared budget. The trigger compares deterministic sizes only,
    // so the decision (and intra_search_evaluations) is identical for
    // every num_threads.
    const bool intra_search =
        options_.intra_search_min_universe != 0 &&
        universe.size() >= options_.intra_search_min_universe;
    ws.miner.set_spawn_depth(intra_search ? options_.intra_search_spawn_depth
                                          : 0);
    if (intra_search) ++bundle->counters.intra_search_evaluations;

    Result<InducedSubgraph> sub =
        ws.workspace.Build(graph_.graph(), std::move(universe));
    if (!sub.ok()) return RecordError(sub.status());
    Result<VertexSet> covered = ws.miner.MineCoverage(sub->graph());
    if (!covered.ok()) {
      ws.workspace.Recycle(std::move(sub).value());
      if (covered.status().code() == StatusCode::kCancelled) {
        *cancelled = true;
      } else {
        RecordError(covered.status());
      }
      return;
    }
    bundle->counters.coverage_candidates +=
        ws.miner.stats().candidates_processed;
    bundle->counters.intra_branch_tasks += ws.miner.stats().branch_tasks;
    VertexSet covered_global = sub->ToGlobal(*covered);
    const std::size_t covered_size = covered_global.size();

    const std::size_t support = node.tidset.size();
    const double eps =
        static_cast<double>(covered_size) / static_cast<double>(support);
    const double expected =
        null_model_ != nullptr ? null_model_->Expectation(support) : 1.0;
    const double delta =
        expected > 0.0 ? eps / expected : (eps > 0.0 ? 1e300 : 0.0);

    const bool passes =
        eps >= options_.min_epsilon && delta >= options_.min_delta;
    if (passes && node.items.size() >= options_.min_report_size) {
      ++bundle->counters.attribute_sets_reported;
      slot->output.stats.attributes = node.items;
      slot->output.stats.support = support;
      slot->output.stats.covered = covered_size;
      slot->output.stats.epsilon = eps;
      slot->output.stats.expected_epsilon = expected;
      slot->output.stats.delta = delta;
      if (options_.collect_patterns && covered_size > 0) {
        Status status = CollectPatterns(node, *sub, &ws, bundle, slot);
        if (!status.ok()) {
          ws.workspace.Recycle(std::move(sub).value());
          if (status.code() == StatusCode::kCancelled) {
            *cancelled = true;
          } else {
            RecordError(std::move(status));
          }
          return;
        }
      }
      slot->reported = true;
    }
    ws.workspace.Recycle(std::move(sub).value());

    // Theorems 4 and 5: upper bounds on eps / delta of any extension.
    const double mass = eps * static_cast<double>(support);
    bool extendable = true;
    if (options_.use_epsilon_pruning &&
        mass <
            options_.min_epsilon * static_cast<double>(options_.min_support)) {
      extendable = false;
    }
    if (extendable && options_.use_delta_pruning && null_model_ != nullptr) {
      const double expected_at_min =
          null_model_->Expectation(options_.min_support);
      if (mass < options_.min_delta * expected_at_min *
                     static_cast<double>(options_.min_support)) {
        extendable = false;
      }
    }
    slot->extendable = extendable;
    if (env_.memo != nullptr) {
      auto entry = std::make_shared<EvalMemo::Evaluation>();
      // The covered set is only consulted on a hit when the set is
      // extendable (children's Theorem-3 pruning); skip the copy
      // otherwise — the stats row already carries |K_S|.
      if (extendable) entry->covered = covered_global;
      entry->extendable = extendable;
      entry->reported = slot->reported;
      if (slot->reported) entry->output = slot->output;
      env_.memo->Insert(node.items, std::move(entry));
    }
    if (extendable) {
      // Stored for the children's Theorem-3 intersection, so it goes in
      // hybrid form (dense covered sets intersect by word-AND).
      slot->covered = std::make_shared<const HybridVertexSet>(
          HybridVertexSet::FromVector(std::move(covered_global),
                                      SetUniverse(), set_stats));
    }
  }

  /// Patterns of G(S): top-k (paper §3.2.3) or the complete maximal set
  /// (SCORP semantics), reported in global ids into the slot.
  Status CollectPatterns(const Node& node, const InducedSubgraph& sub,
                         WorkerState* ws, CounterBundle* bundle,
                         EvalSlot* slot) {
    std::vector<RankedQuasiClique> found;
    if (options_.pattern_scope == PatternScope::kTopK) {
      Result<std::vector<RankedQuasiClique>> top =
          ws->miner.MineTopK(sub.graph(), options_.top_k);
      if (!top.ok()) return top.status();
      found = std::move(top).value();
    } else {
      Result<std::vector<VertexSet>> all = ws->miner.MineMaximal(sub.graph());
      if (!all.ok()) return all.status();
      found.reserve(all->size());
      for (VertexSet& q : *all) {
        RankedQuasiClique entry;
        entry.min_degree_ratio = MinDegreeRatio(sub.graph(), q);
        entry.vertices = std::move(q);
        found.push_back(std::move(entry));
      }
    }
    bundle->counters.coverage_candidates +=
        ws->miner.stats().candidates_processed;
    bundle->counters.intra_branch_tasks += ws->miner.stats().branch_tasks;
    for (RankedQuasiClique& q : found) {
      StructuralCorrelationPattern pattern;
      pattern.attributes = node.items;
      pattern.min_degree_ratio = q.min_degree_ratio;
      pattern.edge_density = SubsetDensity(sub.graph(), q.vertices);
      pattern.vertices = sub.ToGlobal(q.vertices);
      slot->output.patterns.push_back(std::move(pattern));
    }
    return Status::OK();
  }

  /// Frontier boundary between the roots phase and the lattice walk:
  /// forms the root equivalence class from the extendable singletons (in
  /// emission-index order, so the class layout — and every key derived
  /// from it — matches the sequential enumeration) and seeds one
  /// expansion entry per member under key prefix {1}.
  void FormRootClass() {
    std::vector<RootSlot*> extendable;
    for (RootSlot& rs : singles_) {
      if (rs.slot.extendable) extendable.push_back(&rs);
    }
    std::sort(extendable.begin(), extendable.end(),
              [](const RootSlot* a, const RootSlot* b) {
                return a->index < b->index;
              });
    auto roots = std::make_shared<ClassNode>(&cache_, Key{1});
    for (RootSlot* rs : extendable) {
      cache_.Insert(rs->slot.node.items, std::move(rs->slot.covered));
      roots->Append(std::move(rs->slot.node));
    }
    total_.counters.attribute_sets_extended += roots->siblings.size();
    if (options_.max_attribute_set_size <= 1 || roots->siblings.size() < 2) {
      return;
    }
    for (std::size_t i = 0; i < roots->siblings.size(); ++i) {
      FrontierEntry entry;
      entry.cls = roots;
      entry.sibling = static_cast<std::uint32_t>(i);
      frontier_.push_back(std::move(entry));
    }
  }

  /// Recomputes V(S) from the graph's attribute index (resume path),
  /// uncounted: the elements are exactly the original lattice tidset, and
  /// the representation is the same pure function of (size, universe).
  HybridVertexSet RecomputeTidset(const AttributeSet& items) {
    HybridVertexSet t =
        HybridVertexSet::View(&graph_.VerticesWith(items[0]), SetUniverse());
    if (items.size() == 1) {
      t.Normalize(nullptr);
      return t;
    }
    for (std::size_t k = 1; k < items.size(); ++k) {
      HybridVertexSet next =
          HybridVertexSet::View(&graph_.VerticesWith(items[k]), SetUniverse());
      HybridVertexSet out;
      HybridVertexSet::Intersect(t, next, &out, nullptr);
      t = std::move(out);
    }
    return t;
  }

  EngineCheckpoint BuildCheckpoint() {
    EngineCheckpoint cp;
    cp.num_vertices = graph_.NumVertices();
    cp.num_attributes = graph_.NumAttributes();
    cp.num_edges = graph_.graph().NumEdges();
    cp.options_fingerprint =
        ScpmEngine::OptionsFingerprint(options_, null_model_ != nullptr);
    cp.valid = true;
    if (phase_roots_) {
      cp.in_roots_phase = true;
      for (const RootSlot& rs : singles_) {
        if (!rs.done || !rs.slot.extendable) continue;
        EngineCheckpoint::DoneRoot dr;
        dr.index = rs.index;
        dr.attr = rs.attr;
        dr.covered = rs.slot.covered->ToVector();
        cp.done_roots.push_back(std::move(dr));
      }
      for (const FrontierEntry& entry : frontier_) {
        EngineCheckpoint::PendingRootBatch batch;
        batch.indices.push_back(singles_[entry.single].index);
        batch.attrs.push_back(singles_[entry.single].attr);
        cp.root_batches.push_back(std::move(batch));
      }
      return cp;
    }
    std::unordered_map<const ClassNode*, std::uint32_t> class_index;
    for (const FrontierEntry& entry : frontier_) {
      auto [it, inserted] = class_index.emplace(
          entry.cls.get(), static_cast<std::uint32_t>(cp.classes.size()));
      if (inserted) {
        EngineCheckpoint::PendingClass pc;
        pc.path = entry.cls->path;
        for (const Node& node : entry.cls->siblings) {
          EngineCheckpoint::Member member;
          member.items = node.items;
          // Never null; see the covered-set lookup in EvaluateNode.
          CoveredSetCache::Entry covered = cache_.Lookup(node.items);
          SCPM_CHECK(covered != nullptr)
              << "class member covered set missing at checkpoint";
          member.covered = covered->ToVector();
          pc.members.push_back(std::move(member));
        }
        cp.classes.push_back(std::move(pc));
      }
      EngineCheckpoint::PendingExpansion e;
      e.class_index = it->second;
      e.sibling = entry.sibling;
      cp.expansions.push_back(e);
    }
    return cp;
  }

  const AttributedGraph& graph_;
  const ScpmOptions& options_;
  ExpectationModel* null_model_;
  const EngineEnvironment& env_;
  PatternSink* sink_;

  // Shared by every worker's miner; must outlive owned_pool_ (declared
  // later, destroyed first) because draining tasks may still release
  // slots. intra_budget_ points here or at the caller's shared budget.
  ParallelismBudget own_intra_budget_;
  ParallelismBudget* intra_budget_;
  // The run's cancel latch: the caller's token when one was injected
  // (server-side cancellation), else this run-private one. Either way
  // the engine owns arming the deadline.
  CancelToken own_token_;
  CancelToken& token_;
  std::chrono::steady_clock::time_point deadline_{};

  std::vector<std::unique_ptr<WorkerState>> states_;
  CoveredSetCache cache_;

  bool phase_roots_ = false;
  std::vector<RootSlot> singles_;
  std::vector<FrontierEntry> frontier_;

  CounterBundle total_;
  std::uint64_t emitted_ = 0;
  std::uint64_t patterns_emitted_ = 0;
  bool exhausted_ = false;

  std::mutex error_mutex_;
  Status first_error_;
  std::atomic<bool> has_error_{false};

  // Declared last, destroyed first: joining the workers destroys every
  // outstanding task closure, whose captured ClassNode references erase
  // cache entries — all of which must still be alive at that point. With
  // a shared (caller-owned) pool owned_pool_ stays null; the wave
  // discipline guarantees no task of this runner is outstanding once
  // Drive() returns, so the runner may destruct under a live pool.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace

std::uint64_t ScpmEngine::OptionsFingerprint(const ScpmOptions& options,
                                             bool has_null_model) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix_double(options.quasi_clique.gamma);
  mix(options.quasi_clique.min_size);
  mix(options.min_support);
  mix_double(options.min_epsilon);
  mix_double(options.min_delta);
  mix(options.top_k);
  mix(static_cast<std::uint64_t>(options.pattern_scope));
  mix(options.max_attribute_set_size);
  mix(options.min_report_size);
  mix(static_cast<std::uint64_t>(options.search_order));
  mix(options.use_vertex_pruning ? 1 : 0);
  mix(options.use_epsilon_pruning ? 1 : 0);
  mix(options.use_delta_pruning ? 1 : 0);
  mix(options.collect_patterns ? 1 : 0);
  mix(has_null_model ? 1 : 0);
  return h;
}

Result<MiningRun> ScpmEngine::Run(const AttributedGraph& graph,
                                  PatternSink* sink) {
  SCPM_RETURN_IF_ERROR(options_.Validate());
  if (sink == nullptr) {
    return Status::InvalidArgument("sink must not be null");
  }
  EngineRunner runner(graph, options_, null_model_, env_, sink);
  runner.SeedFresh();
  SCPM_RETURN_IF_ERROR(runner.Drive());
  return runner.TakeRun();
}

Result<MiningRun> ScpmEngine::Resume(const AttributedGraph& graph,
                                     const EngineCheckpoint& checkpoint,
                                     PatternSink* sink) {
  SCPM_RETURN_IF_ERROR(options_.Validate());
  if (sink == nullptr) {
    return Status::InvalidArgument("sink must not be null");
  }
  EngineRunner runner(graph, options_, null_model_, env_, sink);
  SCPM_RETURN_IF_ERROR(runner.SeedFromCheckpoint(checkpoint));
  SCPM_RETURN_IF_ERROR(runner.Drive());
  return runner.TakeRun();
}

// The checkpoint codec (binary v2) lives in core/ckpt_codec.cc.

}  // namespace scpm
