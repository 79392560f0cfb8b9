// Quasi-clique miner in the style of Quick [Liu & Wong 2008], following
// the paper's Algorithm 1.
//
// Three modes over the same set-enumeration search:
//  * MineMaximal  — all maximal satisfying sets (maximal by inclusion).
//  * MineCoverage — the vertex set K covered by at least one satisfying
//                   set, with the paper's §3.2.2 coverage pruning (prune a
//                   candidate whose whole X ∪ candExts is already covered).
//  * MineTopK     — the k best satisfying sets by (size, min-degree ratio),
//                   with the paper's §3.2.3 dynamic min-size raising.
//
// BFS (queue) and DFS (stack) candidate orders are both supported
// (paper §3.2.2); they are equivalent in output for MineMaximal and
// MineCoverage and only differ in traversal cost.
//
// All three modes run one candidate loop. Intra-search parallelism is
// the Galois/Pangolin DFS style: with spawn_depth > 0 and a pool and a
// ParallelismBudget attached, a maximal or coverage search hands each
// child of a candidate within spawn_depth of the root, whose extension
// list is large enough, to a new branch task when a budget slot is free;
// every other child stays on its task's own work stack. Tasks never wait
// on each other. In coverage mode they all prune against one live
// covered bitmap. The output — maximal sets, covered set — is identical
// for any thread count. The work counters in MinerStats depend on which
// tasks ran where. Without a pool nothing spawns, and the loop walks the
// classic sequential traversal. MineTopK never spawns: its §3.2.3
// dynamic min-size pruning depends on the traversal order.

#ifndef SCPM_QCLIQUE_MINER_H_
#define SCPM_QCLIQUE_MINER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "qclique/quasi_clique.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {

class CancelToken;
class ParallelismBudget;
class SubgraphWorkspace;
class ThreadPool;

/// Order in which candidate quasi-cliques are expanded (paper §3.2.2).
enum class SearchOrder {
  kDfs,  // stack: extend vertex sets as far as possible first
  kBfs,  // queue: smaller vertex sets before larger ones
};

/// Tuning knobs; the enable_* flags exist for ablation benchmarks and
/// equivalence tests — all default on.
struct QuasiCliqueMinerOptions {
  QuasiCliqueParams params;
  SearchOrder order = SearchOrder::kDfs;

  /// Iteratively peel vertices that cannot be in any satisfying set before
  /// searching (vertex pruning, paper §3.2.1 group 1).
  bool enable_vertex_reduction = true;
  /// Subtree size upper bound from member degrees.
  bool enable_size_bound = true;
  /// Report X ∪ candExts directly when it satisfies the constraint.
  bool enable_lookahead = true;
  /// Restrict child extensions to distance <= 2 from the chosen vertex
  /// (sound for gamma >= 0.5, ignored otherwise).
  bool enable_diameter_filter = true;
  /// Quick's critical-vertex technique: jump directly to forced
  /// extensions when a chosen vertex's degree budget is exactly tight.
  bool enable_critical_vertex = true;
  /// Abort with an error after this many candidates (0 = unlimited).
  std::uint64_t max_candidates = 0;

  /// Intra-search parallel depth: candidates within this many levels of
  /// the search root may hand children to branch tasks (0 = never).
  /// Ignored by MineTopK (see the file comment).
  std::uint32_t spawn_depth = 0;
  /// Branches with fewer candidate extensions than this are never worth
  /// a task of their own; they stay on their parent task's stack. The
  /// default keeps tasks to thousands of candidates each — small enough
  /// to balance, large enough that task bookkeeping stays in the noise.
  std::uint32_t min_spawn_ext = 32;

  Status Validate() const;
};

/// Search-effort counters from the most recent mining call. Each branch
/// task accumulates its own MinerStats and folds them in when it
/// finishes, so the totals are exact for the run. With a pool they are
/// not a function of the input alone: which children got a task, and
/// how much coverage other tasks had found by the time a candidate was
/// checked, depend on timing. Without a pool they are the sequential
/// traversal's whatever spawn_depth is (branch_tasks aside).
struct MinerStats {
  std::uint64_t candidates_processed = 0;
  std::uint64_t pruned_by_analysis = 0;
  std::uint64_t pruned_by_coverage = 0;
  std::uint64_t pruned_by_topk = 0;
  std::uint64_t lookahead_hits = 0;
  std::uint64_t critical_vertex_jumps = 0;
  std::uint64_t sets_reported = 0;
  /// Branch tasks that ran: 0 when spawn_depth is 0 and in top-k mode,
  /// otherwise the number of tasks (1 when nothing was spawned).
  std::uint64_t branch_tasks = 0;

  /// Adds one branch task's counters.
  void MergeFrom(const MinerStats& other);
};

/// A top-k entry: the vertex set plus its ranking keys.
struct RankedQuasiClique {
  VertexSet vertices;
  double min_degree_ratio = 0.0;  // the paper's per-pattern gamma

  std::size_t size() const { return vertices.size(); }
};

/// Streaming maximality filter: an incremental antichain under set
/// inclusion. Offer() admits a satisfying set the moment the search
/// reports it — rejecting duplicates and sets contained in a kept
/// larger set, evicting kept sets the newcomer strictly contains — so a
/// maximal-mode search holds only the current antichain instead of
/// buffering every reported set for a final filter pass. Candidate
/// supersets are found through size buckets (only strictly larger kept
/// sets can dominate) with a 64-bit membership signature prefilter in
/// front of the exact SortedIsSubset check. The final content equals
/// the old batch filter's survivors for ANY offer order, which is what
/// keeps the intra-parallel search's output independent of branch-task
/// completion timing. Exposed for the equivalence fuzz tests.
class MaximalSetFilter {
 public:
  /// Offers one satisfying set (sorted, duplicate-free). Returns true
  /// when the set was admitted to the antichain.
  bool Offer(VertexSet q);

  /// Kept sets currently in the antichain.
  std::size_t size() const { return count_; }

  /// Drains the antichain in the canonical report order (size
  /// descending, then lexicographic); the filter is empty afterwards.
  std::vector<VertexSet> TakeSorted();

 private:
  struct Entry {
    std::uint64_t sig = 0;
    VertexSet set;
  };
  // Size-bucketed, largest first: domination scans walk buckets >= |q|,
  // eviction scans walk buckets < |q|.
  std::map<std::size_t, std::vector<Entry>, std::greater<std::size_t>>
      buckets_;
  std::size_t count_ = 0;
};

/// Reusable miner; each Mine* call is independent. Not thread-safe.
class QuasiCliqueMiner {
 public:
  explicit QuasiCliqueMiner(QuasiCliqueMinerOptions options)
      : options_(options) {}

  const QuasiCliqueMinerOptions& options() const { return options_; }

  /// All maximal satisfying sets, each sorted; the list is ordered by
  /// decreasing size then lexicographically.
  Result<std::vector<VertexSet>> MineMaximal(const Graph& graph);

  /// Sorted set of vertices covered by at least one satisfying set
  /// (the paper's K for this graph).
  Result<VertexSet> MineCoverage(const Graph& graph);

  /// Top-k satisfying sets by (size desc, min-degree ratio desc), maximal
  /// among the reported sets. May return fewer than k.
  Result<std::vector<RankedQuasiClique>> MineTopK(const Graph& graph,
                                                  std::size_t k);

  /// Counters from the most recent call.
  const MinerStats& stats() const { return stats_; }

  /// Optional borrowed workspace for the vertex-reduction subgraph; must
  /// outlive the miner. Saves an allocation round per Mine* call when the
  /// miner is reused (the parallel SCPM engine passes its per-worker
  /// workspace).
  void set_workspace(SubgraphWorkspace* workspace) { workspace_ = workspace; }

  /// Attaches the pool and slot budget that execute branch tasks (both
  /// borrowed; may be null). Only a maximal or coverage search with
  /// spawn_depth > 0 and both attached spawns. Otherwise every child
  /// stays on the one task's stack: the traversal, and every counter but
  /// branch_tasks, is the sequential one.
  void set_parallel_context(ThreadPool* pool, ParallelismBudget* budget) {
    pool_ = pool;
    budget_ = budget;
  }

  /// Adjusts the spawn depth between Mine* calls (the adaptive SCPM
  /// policy flips it per evaluation based on |G(S)|).
  void set_spawn_depth(std::uint32_t depth) { options_.spawn_depth = depth; }

  /// Borrowed cooperative-cancellation token (may be null). Every branch
  /// task polls it once per candidate, so a long coverage search observes
  /// an engine budget within one candidate's work of the flag latching.
  /// A cancelled Mine* call returns StatusCode::kCancelled; partial
  /// discoveries are discarded.
  void set_cancel_token(CancelToken* cancel) { cancel_ = cancel; }

 private:
  QuasiCliqueMinerOptions options_;
  MinerStats stats_;
  SubgraphWorkspace* workspace_ = nullptr;
  ThreadPool* pool_ = nullptr;
  ParallelismBudget* budget_ = nullptr;
  CancelToken* cancel_ = nullptr;
};

}  // namespace scpm

#endif  // SCPM_QCLIQUE_MINER_H_
