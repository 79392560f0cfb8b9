// SCPM: the paper's main contribution (Algorithms 2 and 3).
//
// Enumerates attribute sets Eclat-style, computes the structural
// correlation eps(S) of each via coverage quasi-clique mining on the
// induced subgraph G(S), and emits the top-k structural correlation
// patterns of every attribute set passing the eps / delta thresholds.
//
// Pruning (all individually toggleable for ablation):
//  * Theorem 3 — a vertex not covered in G(S_i) can never be covered in
//    G(S_j) for S_j ⊇ S_i, so the quasi-clique search universe of a child
//    attribute set is intersected with its parents' covered sets.
//  * Theorem 4 — S_i is extended only if
//    eps(S_i) * sigma(S_i) >= eps_min * sigma_min.
//  * Theorem 5 — with a monotone null model, S_i is extended only if
//    eps(S_i) * sigma(S_i) >= delta_min * exp(sigma_min) * sigma_min.

#ifndef SCPM_CORE_SCPM_H_
#define SCPM_CORE_SCPM_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/pattern.h"
#include "graph/attributed_graph.h"
#include "nullmodel/expectation.h"
#include "qclique/miner.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {

/// Which patterns are reported per qualifying attribute set.
enum class PatternScope {
  kTopK,        // SCPM (§3.2.3): the k best by (size, density)
  kAllMaximal,  // SCORP [Silva et al., MLG'10]: the complete maximal set
};

/// All thresholds of the mining problem (paper Definition 4 plus delta_min
/// and k from §2.1.3 / §3.2.3).
struct ScpmOptions {
  QuasiCliqueParams quasi_clique;  // gamma_min, min_size

  /// sigma_min: minimum attribute-set support.
  std::size_t min_support = 1;
  /// eps_min: minimum structural correlation.
  double min_epsilon = 0.0;
  /// delta_min: minimum normalized structural correlation (needs a null
  /// model; ignored when mining without one).
  double min_delta = 0.0;
  /// k: number of top patterns reported per qualifying attribute set
  /// (ignored when pattern_scope is kAllMaximal).
  std::size_t top_k = 5;

  /// Top-k (SCPM) or complete maximal enumeration (SCORP).
  PatternScope pattern_scope = PatternScope::kTopK;

  /// Cap on |S| during enumeration.
  std::size_t max_attribute_set_size =
      std::numeric_limits<std::size_t>::max();
  /// Report only attribute sets with at least this many attributes (the
  /// case studies use 2); smaller sets are still evaluated and extended.
  std::size_t min_report_size = 1;

  /// BFS or DFS candidate order inside the coverage computation
  /// (paper §3.2.2; SCPM-BFS vs SCPM-DFS in §4.2).
  SearchOrder search_order = SearchOrder::kDfs;

  /// Theorem 3 / 4 / 5 switches (see file comment).
  bool use_vertex_pruning = true;
  bool use_epsilon_pruning = true;
  bool use_delta_pruning = true;

  /// When false only attribute-set statistics are computed (used by the
  /// parameter-sensitivity experiments, which ignore the pattern lists).
  bool collect_patterns = true;

  /// Worker threads for the enumeration. Each frontier entry (one
  /// frequent singleton, or one class member's expansion with all its
  /// children) is one task on a work-stealing pool, so one heavy
  /// attribute subtree no longer serializes the run. Output (attribute sets, patterns, and the
  /// lattice and set-kernel counters) is byte-identical to the sequential
  /// order for any thread count; the quasi-clique work counters are not
  /// (see ScpmCounters).
  /// Requires a thread-safe null model (both bundled models are).
  std::size_t num_threads = 1;

  /// Adaptive task granularity: an evaluation whose search universe
  /// |G(S)| reaches this size decomposes its coverage quasi-clique search
  /// into intra-search branch tasks on the same pool (borrowing the
  /// shared parallelism budget from the other entries' evaluations), so
  /// a small lattice with huge induced subgraphs still saturates the
  /// workers. 0 disables intra-search parallelism. The
  /// threshold compares against deterministic quantities only, so output
  /// and the lattice counters remain byte-identical for any num_threads.
  std::size_t intra_search_min_universe = 512;

  /// Decomposition depth forwarded to the quasi-clique miner when the
  /// intra-search path triggers (see QuasiCliqueMinerOptions::spawn_depth).
  /// Deep by default: the miner's min_spawn_ext bounds task granularity,
  /// so extra depth only decomposes branches still worth splitting.
  std::uint32_t intra_search_spawn_depth = 12;

  /// Store tidsets, search universes, and Theorem-3 covered sets as
  /// HybridVertexSet — dense 64-bit-word bitmaps once a set passes the
  /// density rule, sorted vectors otherwise — and dispatch intersections
  /// to the matching kernel. The representation is a pure function of
  /// (size, universe), so output and the lattice counters stay
  /// byte-identical with the flag on or off and for any num_threads; off
  /// reproduces the pure merge-based engine (and zeroes the set-kernel
  /// counters below).
  bool use_hybrid_sets = true;

  /// Forwarded to the quasi-clique miner.
  QuasiCliqueMinerOptions miner_options() const;

  Status Validate() const;
};

/// Mining-effort counters, all exact for the run. The lattice counters —
/// evaluated, reported, extended, intra_search_evaluations — and the set-kernel counters depend only on
/// the input and the options, never on thread count or timing. The
/// quasi-clique work counters — coverage_candidates, intra_branch_tasks —
/// depend on how intra-search branch tasks were scheduled (see
/// MinerStats), so they compare only between runs without a pool
/// (num_threads 1).
struct ScpmCounters {
  std::uint64_t attribute_sets_evaluated = 0;
  std::uint64_t attribute_sets_reported = 0;
  std::uint64_t attribute_sets_extended = 0;
  std::uint64_t coverage_candidates = 0;  // summed miner candidates
  /// Evaluations whose universe met intra_search_min_universe.
  std::uint64_t intra_search_evaluations = 0;
  /// Intra-search branch tasks that ran, in total.
  std::uint64_t intra_branch_tasks = 0;
  /// Set-kernel dispatches of the hybrid representation (zero when
  /// use_hybrid_sets is off): intersections that used a bitmap operand,
  /// vector/vector intersections that galloped, and vector -> bitmap
  /// materializations. See SetOpStats.
  std::uint64_t bitmap_intersections = 0;
  std::uint64_t galloping_intersections = 0;
  std::uint64_t dense_conversions = 0;

  /// Field-wise accumulation — used by sliced runs to sum per-segment
  /// counters into a cumulative total.
  void MergeFrom(const ScpmCounters& other) {
    attribute_sets_evaluated += other.attribute_sets_evaluated;
    attribute_sets_reported += other.attribute_sets_reported;
    attribute_sets_extended += other.attribute_sets_extended;
    coverage_candidates += other.coverage_candidates;
    intra_search_evaluations += other.intra_search_evaluations;
    intra_branch_tasks += other.intra_branch_tasks;
    bitmap_intersections += other.bitmap_intersections;
    galloping_intersections += other.galloping_intersections;
    dense_conversions += other.dense_conversions;
  }
};

/// Complete mining output.
struct ScpmResult {
  /// Statistics of every reported attribute set (support, eps, delta).
  std::vector<AttributeSetStats> attribute_sets;
  /// Top-k patterns of every reported attribute set, globally sorted.
  std::vector<StructuralCorrelationPattern> patterns;
  ScpmCounters counters;
};

/// The SCPM algorithm. The optional null model is borrowed (not owned) and
/// must outlive the miner; without one, expected_epsilon = 1 and
/// delta = eps.
///
/// Mine() is a thin wrapper over the frontier-driven ScpmEngine
/// (core/engine.h) with an AccumulatingSink: the whole lattice is walked
/// and the complete result materialized. Callers that want streaming
/// output, budgets/deadlines, or checkpoint/resume use the engine
/// directly.
struct MiningRequest;   // core/request.h
struct MiningResponse;  // core/request.h

class ScpmMiner {
 public:
  explicit ScpmMiner(ScpmOptions options,
                     ExpectationModel* null_model = nullptr)
      : options_(options), null_model_(null_model) {}

  const ScpmOptions& options() const { return options_; }

  /// Thin legacy entry point: accumulate everything, no budget. Prefer
  /// the MiningRequest overload, which is the one front door shared
  /// with the CLI and the wire protocol.
  Result<ScpmResult> Mine(const AttributedGraph& graph);

  /// Unified front door (core/request.h): the request's options,
  /// budget, and sink selection are authoritative; the null model bound
  /// at construction is passed through. Defined in request.cc.
  Result<MiningResponse> Mine(const AttributedGraph& graph,
                              const MiningRequest& request);

 private:
  ScpmOptions options_;
  ExpectationModel* null_model_;
};

}  // namespace scpm

#endif  // SCPM_CORE_SCPM_H_
