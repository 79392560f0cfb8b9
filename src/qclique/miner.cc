#include "qclique/miner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "graph/subgraph.h"
#include "qclique/candidate.h"
#include "util/cancel.h"
#include "util/logging.h"
#include "util/sorted_ops.h"
#include "util/thread_pool.h"

namespace scpm {

Status QuasiCliqueMinerOptions::Validate() const { return params.Validate(); }

void MinerStats::MergeFrom(const MinerStats& other) {
  candidates_processed += other.candidates_processed;
  pruned_by_analysis += other.pruned_by_analysis;
  pruned_by_coverage += other.pruned_by_coverage;
  pruned_by_topk += other.pruned_by_topk;
  lookahead_hits += other.lookahead_hits;
  critical_vertex_jumps += other.critical_vertex_jumps;
  sets_reported += other.sets_reported;
  branch_tasks += other.branch_tasks;
}

namespace {

/// One bit per vertex mod 64: q can only be a subset of e when every
/// signature bit of q is present in e's, so (sig_q & ~sig_e) != 0
/// disproves containment without touching the sets.
std::uint64_t SetSignature(const VertexSet& q) {
  std::uint64_t sig = 0;
  for (VertexId v : q) sig |= std::uint64_t{1} << (v & 63u);
  return sig;
}

}  // namespace

bool MaximalSetFilter::Offer(VertexSet q) {
  const std::uint64_t sig = SetSignature(q);
  // Dominated? Only kept sets of size >= |q| qualify: an equal-size
  // container would be a duplicate, a larger one a strict superset.
  for (auto it = buckets_.begin();
       it != buckets_.end() && it->first >= q.size(); ++it) {
    if (it->first == q.size()) {
      for (const Entry& e : it->second) {
        if (e.sig == sig && e.set == q) return false;
      }
    } else {
      for (const Entry& e : it->second) {
        if ((sig & ~e.sig) == 0 && SortedIsSubset(q, e.set)) return false;
      }
    }
  }
  // Admitted: evict kept strict subsets (all in smaller buckets).
  for (auto it = buckets_.upper_bound(q.size()); it != buckets_.end();) {
    std::vector<Entry>& entries = it->second;
    for (std::size_t k = 0; k < entries.size();) {
      if ((entries[k].sig & ~sig) == 0 && SortedIsSubset(entries[k].set, q)) {
        entries[k] = std::move(entries.back());
        entries.pop_back();
        --count_;
      } else {
        ++k;
      }
    }
    it = entries.empty() ? buckets_.erase(it) : std::next(it);
  }
  std::vector<Entry>& bucket = buckets_[q.size()];
  bucket.push_back(Entry{sig, std::move(q)});
  ++count_;
  return true;
}

std::vector<VertexSet> MaximalSetFilter::TakeSorted() {
  std::vector<VertexSet> out;
  out.reserve(count_);
  for (auto& bucket : buckets_) {
    std::sort(bucket.second.begin(), bucket.second.end(),
              [](const Entry& a, const Entry& b) { return a.set < b.set; });
    for (Entry& e : bucket.second) out.push_back(std::move(e.set));
  }
  buckets_.clear();
  count_ = 0;
  return out;
}

namespace {

/// Iteratively removes vertices of degree < RequiredDegree(min_size);
/// returns the sorted survivors. Survivors of this peeling form a
/// superset of every satisfying set.
VertexSet ReduceVertices(const Graph& graph, const QuasiCliqueParams& params) {
  const std::uint32_t threshold = params.RequiredDegree(params.min_size);
  std::vector<std::uint32_t> degree(graph.NumVertices());
  std::vector<bool> removed(graph.NumVertices(), false);
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    degree[v] = graph.Degree(v);
    if (degree[v] < threshold) {
      removed[v] = true;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (VertexId u : graph.Neighbors(v)) {
      if (!removed[u] && --degree[u] < threshold) {
        removed[u] = true;
        queue.push_back(u);
      }
    }
  }
  VertexSet keep;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (!removed[v]) keep.push_back(v);
  }
  return keep;
}

/// Collection of the best (size, ratio) satisfying sets seen so far,
/// maintained as an antichain under set inclusion: an offered set that is
/// contained in a kept set is non-maximal and rejected; kept sets contained
/// in the offered set are evicted. This keeps the §3.2.3 size threshold
/// from being inflated by sets that would later be filtered as
/// non-maximal.
class TopKCollector {
 public:
  explicit TopKCollector(std::size_t k) : k_(k) {}

  void Offer(RankedQuasiClique entry) {
    // Reject entries dominated by (or equal to) a kept set.
    for (const RankedQuasiClique& kept : entries_) {
      if (kept.size() >= entry.size() &&
          SortedIsSubset(entry.vertices, kept.vertices)) {
        return;
      }
    }
    // Evict kept sets dominated by the new entry (sorted by size desc, so
    // only smaller suffix entries can be subsets).
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(),
                       [&entry](const RankedQuasiClique& kept) {
                         return kept.size() < entry.size() &&
                                SortedIsSubset(kept.vertices, entry.vertices);
                       }),
        entries_.end());
    auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), entry,
        [](const RankedQuasiClique& a, const RankedQuasiClique& b) {
          if (a.size() != b.size()) return a.size() > b.size();
          return a.min_degree_ratio > b.min_degree_ratio;
        });
    entries_.insert(pos, std::move(entry));
    // Keep generous slack beyond k: evicting the tail is safe because an
    // entry can only leave the antichain when a strictly larger superset
    // arrives, which preserves the count above it.
    if (entries_.size() > 4 * k_ + 8) entries_.pop_back();
  }

  bool Full() const { return entries_.size() >= k_; }

  /// Size of the k-th best entry; candidates whose whole X ∪ candExts is
  /// smaller cannot enter the top-k (paper §3.2.3).
  std::size_t KthSize() const {
    SCPM_CHECK(Full());
    return entries_[k_ - 1].size();
  }

  std::vector<RankedQuasiClique> Finalize() {
    if (entries_.size() > k_) entries_.resize(k_);
    return std::move(entries_);
  }

 private:
  std::size_t k_;
  std::vector<RankedQuasiClique> entries_;  // antichain, (size, ratio) desc
};

enum class Mode { kMaximal, kCoverage, kTopK };

/// Epoch-stamped two-hop neighborhood marks backing the diameter filter:
/// any two members of a satisfying set are within two hops inside the set
/// when gamma >= 0.5, hence within two hops in the graph.
class TwoHopMarker {
 public:
  explicit TwoHopMarker(const Graph& graph)
      : graph_(graph), epoch_of_(graph.NumVertices(), 0) {}

  /// Stamps every vertex within graph distance <= 2 of v.
  void Mark(VertexId v) {
    ++epoch_;
    if (epoch_ == 0) {  // Wrapped: re-zero.
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
      epoch_ = 1;
    }
    for (VertexId u : graph_.Neighbors(v)) {
      epoch_of_[u] = epoch_;
      for (VertexId w : graph_.Neighbors(u)) {
        epoch_of_[w] = epoch_;
      }
    }
  }

  bool IsMarked(VertexId u) const { return epoch_of_[u] == epoch_; }

 private:
  const Graph& graph_;
  std::vector<std::uint32_t> epoch_of_;
  std::uint32_t epoch_ = 0;
};

/// Children of (x, ext): one per extension vertex, keeping only later
/// extensions within two hops of the chosen vertex (diameter filter) and
/// dropping children that cannot reach min_size.
void BuildChildren(const Candidate& cand, const VertexSet& ext,
                   const QuasiCliqueMinerOptions& options,
                   TwoHopMarker* marker, std::vector<Candidate>* children) {
  const bool use_diameter =
      options.enable_diameter_filter && options.params.gamma >= 0.5;
  children->clear();
  children->reserve(ext.size());
  for (std::size_t i = 0; i < ext.size(); ++i) {
    const VertexId v = ext[i];
    Candidate child;
    child.x = cand.x;
    SortedInsert(&child.x, v);
    if (use_diameter) marker->Mark(v);
    for (std::size_t j = i + 1; j < ext.size(); ++j) {
      const VertexId u = ext[j];
      if (use_diameter && !marker->IsMarked(u)) continue;
      child.ext.push_back(u);
    }
    if (child.x.size() + child.ext.size() >= options.params.min_size) {
      children->push_back(std::move(child));
    }
  }
}

/// The one set-enumeration search (paper Algorithm 1) over one (already
/// vertex-reduced) local graph, in all three modes; see the header's file
/// comment for the contract.
///
/// Every branch task runs one fire-and-forget loop (RunBranch), the
/// Pangolin/Galois DFS idiom. The search starts as one task on the
/// calling thread. In maximal and coverage mode, with a pool and a
/// budget attached, a candidate shallower than spawn_depth hands each
/// child with a large enough extension list to a new pool task when a
/// ParallelismBudget slot is free; every other child stays on the task's
/// own work stack, so without a pool the traversal is the classic
/// sequential one. There are no barriers. Maximal mode has no
/// cross-branch state. Coverage mode prunes and covers against one
/// covered bitmap of atomic words shared by every task: K_S is a union,
/// so coverage that another task found earlier can only skip candidates
/// whose vertices are all covered already. The covered set cannot
/// change; how much pruning each task sees, and so the work counters,
/// depends on timing. Top-k mode never spawns: its collector and the
/// §3.2.3 raised min_size are the one task's state.
class Search {
 public:
  Search(const Graph& graph, const QuasiCliqueMinerOptions& options,
         Mode mode, std::size_t k, ThreadPool* pool,
         ParallelismBudget* budget, CancelToken* cancel, MinerStats* stats)
      : graph_(graph),
        options_(options),
        mode_(mode),
        pool_(mode != Mode::kTopK && options.spawn_depth > 0 &&
                      budget != nullptr
                  ? pool
                  : nullptr),
        budget_(budget),
        cancel_(cancel),
        stats_(stats),
        collector_(k == 0 ? 1 : k),
        covered_(mode == Mode::kCoverage ? (graph.NumVertices() + 63) / 64
                                         : 0) {
    if (pool_ != nullptr) {
      // Worker arenas clone this prototype, sharing its adjacency bits.
      prototype_.emplace(graph);
      arenas_.resize(pool_->num_threads() + 1);
    } else {
      arenas_.push_back(
          std::make_unique<WorkerArena>(CandidateScratch(graph), graph));
    }
  }

  Status Run() {
    const VertexId n = graph_.NumVertices();
    if (n < options_.params.min_size) return Status::OK();

    Candidate root;
    root.ext.resize(n);
    for (VertexId v = 0; v < n; ++v) root.ext[v] = v;
    RunBranch(std::move(root), 0);
    if (pool_ != nullptr) pool_->WaitFor(&group_);

    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_.ok()) return first_error_;
    stats_->MergeFrom(folded_stats_);
    return Status::OK();
  }

  std::vector<VertexSet> TakeMaximal() {
    std::vector<VertexSet> keep = maximal_.TakeSorted();
    stats_->sets_reported = keep.size();
    return keep;
  }

  VertexSet TakeCoverage() const {
    VertexSet out;
    for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
      if (IsCovered(v)) out.push_back(v);
    }
    return out;
  }

  std::vector<RankedQuasiClique> TakeTopK() { return collector_.Finalize(); }

 private:
  /// Per-worker mutable search state; no branch task ever touches another
  /// worker's arena.
  struct WorkerArena {
    WorkerArena(CandidateScratch scratch_in, const Graph& graph)
        : scratch(std::move(scratch_in)), marker(graph) {}
    CandidateScratch scratch;
    TwoHopMarker marker;
    std::uint32_t cancel_tick = 0;  // clock-check throttle; worker-local
  };

  struct WorkItem {
    Candidate cand;
    std::uint32_t depth = 0;
  };

  /// The arena of the thread running the current task: slot 0 is the
  /// initiating thread, slot i + 1 pool worker i. Without spawning there
  /// is only slot 0, built once in the constructor.
  WorkerArena& Arena() {
    if (pool_ == nullptr) return *arenas_[0];
    const std::size_t slot =
        static_cast<std::size_t>(pool_->current_worker_index() + 1);
    std::lock_guard<std::mutex> lock(mutex_);
    if (arenas_[slot] == nullptr) {
      arenas_[slot] = std::make_unique<WorkerArena>(*prototype_, graph_);
    }
    return *arenas_[slot];
  }

  void RecordError(Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_error_.ok()) first_error_ = std::move(status);
    has_error_.store(true);
  }

  /// Runs `child` as a new pool task when a budget slot is free. Returns
  /// false (and takes nothing) otherwise.
  bool TrySpawn(Candidate* child, std::uint32_t depth) {
    if (!budget_->TryAcquire()) return false;
    auto boxed = std::make_shared<Candidate>(std::move(*child));
    pool_->Spawn(&group_, [this, boxed, depth] {
      RunBranch(std::move(*boxed), depth);
      budget_->Release();
    });
    return true;
  }

  bool IsCovered(VertexId v) const {
    const std::uint64_t word = covered_[v >> 6].load(std::memory_order_relaxed);
    return (word >> (v & 63u)) & 1u;
  }

  bool AllCovered(const Candidate& cand) const {
    for (VertexId v : cand.x) {
      if (!IsCovered(v)) return false;
    }
    for (VertexId v : cand.ext) {
      if (!IsCovered(v)) return false;
    }
    return true;
  }

  /// Marks the vertices of a discovered satisfying set as covered. Each
  /// bit goes from 0 to 1 in exactly one fetch_or, so the count is exact.
  void Cover(const VertexSet& q) {
    for (VertexId v : q) {
      const std::uint64_t bit = std::uint64_t{1} << (v & 63u);
      std::atomic<std::uint64_t>& word = covered_[v >> 6];
      if ((word.load(std::memory_order_relaxed) & bit) == 0 &&
          (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0) {
        covered_count_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  void Report(VertexSet q, MaximalSetFilter* reported) {
    switch (mode_) {
      case Mode::kMaximal:
        reported->Offer(std::move(q));
        break;
      case Mode::kCoverage:
        Cover(q);
        break;
      case Mode::kTopK: {
        RankedQuasiClique entry;
        entry.min_degree_ratio = MinDegreeRatio(graph_, q);
        entry.vertices = std::move(q);
        collector_.Offer(std::move(entry));
        break;
      }
    }
  }

  /// One branch task: the candidate loop over this subtree. Each task
  /// keeps its own counters and, in maximal mode, its own antichain, and
  /// folds both in under one lock when it finishes. Counter sums are
  /// commutative and MaximalSetFilter's content is offer-order
  /// independent, so completion order never shows in the output.
  void RunBranch(Candidate root, std::uint32_t root_depth) {
    MinerStats stats;
    stats.branch_tasks = options_.spawn_depth > 0 && mode_ != Mode::kTopK;
    // Local antichain: dominated sets die inside the branch, shrinking
    // both this task's residency and the fold under the lock.
    MaximalSetFilter reported;
    WorkerArena& arena = Arena();
    const VertexId n = graph_.NumVertices();
    const std::uint32_t spawn_depth =
        pool_ != nullptr ? options_.spawn_depth : 0;

    std::deque<WorkItem> work;
    work.push_back({std::move(root), root_depth});
    std::vector<Candidate> children;
    while (!work.empty() && !has_error_.load()) {
      if (cancel_ != nullptr && cancel_->ShouldStop(&arena.cancel_tick)) {
        RecordError(Status::Cancelled("quasi-clique search cancelled"));
        break;
      }
      WorkItem item;
      if (options_.order == SearchOrder::kBfs) {
        item = std::move(work.front());
        work.pop_front();
      } else {
        item = std::move(work.back());
        work.pop_back();
      }
      const Candidate& cand = item.cand;
      ++stats.candidates_processed;
      if (options_.max_candidates != 0 &&
          candidates_.fetch_add(1) + 1 > options_.max_candidates) {
        RecordError(Status::OutOfRange("candidate budget exceeded"));
        break;
      }

      if (mode_ == Mode::kCoverage) {
        // Everything already covered: nothing left to find.
        if (covered_count_.load(std::memory_order_relaxed) == n) break;
        if (AllCovered(cand)) {
          ++stats.pruned_by_coverage;
          continue;
        }
      }

      // The paper §3.2.3: once k patterns are known, candidates that
      // cannot reach the k-th size are pruned; the raised size also
      // strengthens every degree bound inside Analyze.
      QuasiCliqueParams params = options_.params;
      if (mode_ == Mode::kTopK && collector_.Full()) {
        const std::size_t kth = collector_.KthSize();
        if (cand.x.size() + cand.ext.size() < kth) {
          ++stats.pruned_by_topk;
          continue;
        }
        params.min_size = std::max<std::uint32_t>(
            params.min_size, static_cast<std::uint32_t>(kth));
      }

      CandidateAnalysis analysis = arena.scratch.Analyze(
          cand, params, options_.enable_size_bound, options_.enable_lookahead,
          options_.enable_critical_vertex);
      if (analysis.verdict == CandidateVerdict::kPrune) {
        ++stats.pruned_by_analysis;
        continue;
      }
      if (analysis.verdict == CandidateVerdict::kLookahead) {
        ++stats.lookahead_hits;
        VertexSet whole;
        SortedUnion(cand.x, analysis.pruned_ext, &whole);
        Report(std::move(whole), &reported);
        continue;
      }
      if (!analysis.forced.empty()) {
        // Critical vertex: every satisfying set of this subtree contains
        // the forced vertices, so jump straight to that candidate.
        ++stats.critical_vertex_jumps;
        Candidate jump;
        SortedUnion(cand.x, analysis.forced, &jump.x);
        SortedDifference(analysis.pruned_ext, analysis.forced, &jump.ext);
        work.push_back({std::move(jump), item.depth});
        continue;
      }
      if (analysis.x_is_satisfying) Report(cand.x, &reported);

      BuildChildren(cand, analysis.pruned_ext, options_, &arena.marker,
                    &children);
      const std::uint32_t depth = item.depth + 1;
      if (item.depth < spawn_depth) {
        // In child order, so the first (largest) children get the slots.
        children.erase(
            std::remove_if(children.begin(), children.end(),
                           [&](Candidate& child) {
                             return child.ext.size() >=
                                        options_.min_spawn_ext &&
                                    TrySpawn(&child, depth);
                           }),
            children.end());
      }
      if (options_.order == SearchOrder::kBfs) {
        for (Candidate& c : children) work.push_back({std::move(c), depth});
      } else {
        // Stack: push in reverse so the first child is expanded first.
        for (auto it = children.rbegin(); it != children.rend(); ++it) {
          work.push_back({std::move(*it), depth});
        }
      }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    folded_stats_.MergeFrom(stats);
    // The first antichain is taken whole, so a search that never spawns
    // offers each set once.
    if (maximal_.size() == 0) {
      std::swap(maximal_, reported);
    } else {
      for (VertexSet& q : reported.TakeSorted()) maximal_.Offer(std::move(q));
    }
  }

  const Graph& graph_;
  const QuasiCliqueMinerOptions& options_;
  Mode mode_;
  ThreadPool* pool_;  // null unless this search may spawn
  ParallelismBudget* budget_;
  CancelToken* cancel_;
  MinerStats* stats_;

  std::optional<CandidateScratch> prototype_;  // only when spawning
  std::vector<std::unique_ptr<WorkerArena>> arenas_;
  ThreadPool::TaskGroup group_;

  std::mutex mutex_;  // guards arenas_, first_error_ and the folded state
  Status first_error_;
  MinerStats folded_stats_;
  MaximalSetFilter maximal_;  // kMaximal: every task's antichain, folded
  std::atomic<bool> has_error_{false};
  std::atomic<std::uint64_t> candidates_{0};  // max_candidates only

  TopKCollector collector_;  // kTopK: the one task's
  std::vector<std::atomic<std::uint64_t>> covered_;  // kCoverage, 1 bit/vertex
  std::atomic<VertexId> covered_count_{0};
};

/// Applies vertex reduction and returns the working subgraph.
Result<InducedSubgraph> Reduce(const Graph& graph,
                               const QuasiCliqueMinerOptions& options,
                               SubgraphWorkspace* workspace) {
  VertexSet keep;
  if (options.enable_vertex_reduction) {
    keep = ReduceVertices(graph, options.params);
  } else {
    keep.resize(graph.NumVertices());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) keep[v] = v;
  }
  if (workspace != nullptr) return workspace->Build(graph, std::move(keep));
  return InducedSubgraph::Create(graph, std::move(keep));
}

/// Returns the subgraph's buffers to the workspace, if any.
void Release(SubgraphWorkspace* workspace, InducedSubgraph&& sub) {
  if (workspace != nullptr) workspace->Recycle(std::move(sub));
}

}  // namespace

Result<std::vector<VertexSet>> QuasiCliqueMiner::MineMaximal(
    const Graph& graph) {
  SCPM_RETURN_IF_ERROR(options_.Validate());
  stats_ = MinerStats{};
  Result<InducedSubgraph> sub = Reduce(graph, options_, workspace_);
  if (!sub.ok()) return sub.status();
  Search search(sub->graph(), options_, Mode::kMaximal, 0, pool_, budget_,
                cancel_, &stats_);
  SCPM_RETURN_IF_ERROR(search.Run());
  std::vector<VertexSet> out = search.TakeMaximal();
  for (VertexSet& q : out) q = sub->ToGlobal(q);
  Release(workspace_, std::move(sub).value());
  return out;
}

Result<VertexSet> QuasiCliqueMiner::MineCoverage(const Graph& graph) {
  SCPM_RETURN_IF_ERROR(options_.Validate());
  stats_ = MinerStats{};
  Result<InducedSubgraph> sub = Reduce(graph, options_, workspace_);
  if (!sub.ok()) return sub.status();
  Search search(sub->graph(), options_, Mode::kCoverage, 0, pool_, budget_,
                cancel_, &stats_);
  SCPM_RETURN_IF_ERROR(search.Run());
  VertexSet covered = sub->ToGlobal(search.TakeCoverage());
  Release(workspace_, std::move(sub).value());
  return covered;
}

Result<std::vector<RankedQuasiClique>> QuasiCliqueMiner::MineTopK(
    const Graph& graph, std::size_t k) {
  SCPM_RETURN_IF_ERROR(options_.Validate());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  stats_ = MinerStats{};
  Result<InducedSubgraph> sub = Reduce(graph, options_, workspace_);
  if (!sub.ok()) return sub.status();
  Search search(sub->graph(), options_, Mode::kTopK, k, pool_, budget_,
                cancel_, &stats_);
  SCPM_RETURN_IF_ERROR(search.Run());
  std::vector<RankedQuasiClique> local = search.TakeTopK();
  for (RankedQuasiClique& q : local) {
    q.vertices = sub->ToGlobal(q.vertices);
  }
  Release(workspace_, std::move(sub).value());
  return local;
}

}  // namespace scpm
