// Vertex-induced subgraphs with local/global id mapping.
//
// SCPM repeatedly materializes G(S), the subgraph induced by the vertices
// carrying an attribute set S; InducedSubgraph relabels that vertex set to
// [0, k) and builds a local CSR graph, keeping the mapping back to the
// parent graph.
//
// SubgraphWorkspace removes the materialization from the allocation hot
// path: it builds the local CSR directly (single pass over the parent
// adjacency, no intermediate edge list, no sorting) into buffers that are
// recycled across calls, using an epoch-stamped global-to-local map that
// never needs clearing. A dense (bitmap) vertex set skips the stamp map
// entirely: membership is a bit probe and local ids come from a word-rank
// table, so the adjacency filter touches universe/64 words instead of two
// full-universe u32 arrays.

#ifndef SCPM_GRAPH_SUBGRAPH_H_
#define SCPM_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/hybrid_set.h"
#include "util/result.h"

namespace scpm {

class SubgraphWorkspace;

/// A subgraph of a parent graph induced by a vertex subset.
class InducedSubgraph {
 public:
  /// Builds the subgraph of `parent` induced by `vertices` (sorted,
  /// duplicate-free, all ids < parent.NumVertices()).
  static Result<InducedSubgraph> Create(const Graph& parent,
                                        VertexSet vertices);

  /// The relabeled graph over local ids [0, vertices.size()).
  const Graph& graph() const { return graph_; }

  /// Number of vertices in the subgraph.
  VertexId NumVertices() const { return graph_.NumVertices(); }

  /// Sorted global ids; global_ids()[local] is the parent-graph id.
  const VertexSet& global_ids() const { return global_ids_; }

  /// Parent-graph id of a local vertex.
  VertexId ToGlobal(VertexId local) const { return global_ids_[local]; }

  /// Local id of a parent-graph vertex, or kInvalidVertex when the vertex
  /// is not part of the subgraph. O(log n).
  VertexId ToLocal(VertexId global) const;

  /// Maps a set of local ids to sorted global ids.
  VertexSet ToGlobal(const VertexSet& locals) const;

 private:
  friend class SubgraphWorkspace;

  InducedSubgraph(Graph graph, VertexSet global_ids)
      : graph_(std::move(graph)), global_ids_(std::move(global_ids)) {}

  Graph graph_;
  VertexSet global_ids_;
};

/// Scratch buffers for repeated subgraph induction against one (or more)
/// parent graphs. Build() produces a regular InducedSubgraph whose CSR
/// storage comes from an internal free list; Recycle() takes the storage
/// back once the subgraph is dead. Nested use is fine (a subgraph built
/// from a workspace may itself be a parent in the next Build before being
/// recycled); the workspace is not thread-safe — use one per worker.
class SubgraphWorkspace {
 public:
  SubgraphWorkspace() = default;

  /// Same contract and result as InducedSubgraph::Create, but allocation-
  /// free once the free list and the id map have warmed up.
  Result<InducedSubgraph> Build(const Graph& parent, VertexSet vertices);

  /// Hybrid-set entry point: a sparse set delegates to the vector build; a
  /// dense set keeps the bitmap as the membership structure and resolves
  /// local ids by rank (prefix popcounts). Both produce the identical
  /// subgraph. `vertices` is consumed.
  Result<InducedSubgraph> Build(const Graph& parent, HybridVertexSet vertices);

  /// Reclaims the CSR buffers of a subgraph produced by Build; the
  /// subgraph is consumed.
  void Recycle(InducedSubgraph&& sub);

 private:
  struct CsrBuffers {
    std::vector<std::size_t> offsets;
    std::vector<VertexId> adjacency;
  };

  std::vector<CsrBuffers> free_;

  // stamp_[g] == epoch_ marks g as a member of the vertex set currently
  // being built, with local id local_of_[g]. Bumping epoch_ invalidates
  // the whole map in O(1).
  std::vector<std::uint32_t> stamp_;
  std::vector<VertexId> local_of_;
  std::uint32_t epoch_ = 0;

  // rank_prefix_[w] = number of member bits in words [0, w) of the dense
  // build's bitmap; local id of g = rank_prefix_[g/64] + popcount of the
  // lower bits of g's word.
  std::vector<VertexId> rank_prefix_;
};

}  // namespace scpm

#endif  // SCPM_GRAPH_SUBGRAPH_H_
