// Immutable undirected graph in compressed-sparse-row form.
//
// Adjacency lists are sorted and duplicate-free, which makes neighborhood
// intersection (the miners' inner loop) a linear merge and edge lookup a
// binary search.

#ifndef SCPM_GRAPH_GRAPH_H_
#define SCPM_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {

/// Immutable undirected simple graph (no self-loops, no parallel edges).
class Graph {
 public:
  /// Empty graph with `num_vertices` isolated vertices.
  explicit Graph(VertexId num_vertices = 0);

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  /// Builds from an edge list. Self-loops are rejected, duplicate edges
  /// (in either orientation) are collapsed. Endpoints must be
  /// < num_vertices.
  static Result<Graph> FromEdges(VertexId num_vertices,
                                 std::vector<Edge> edges);

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  std::size_t NumEdges() const { return adjacency_.size() / 2; }

  std::uint32_t Degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbors of v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// True iff {u, v} is an edge. O(log deg(min side)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Largest vertex degree (0 for the empty graph).
  std::uint32_t MaxDegree() const;

  /// counts[d] = number of vertices with degree d, for d in [0, MaxDegree].
  std::vector<std::size_t> DegreeHistogram() const;

  /// Edge list in canonical (u < v) order, sorted.
  std::vector<Edge> Edges() const;

 private:
  // SubgraphWorkspace builds CSR arrays directly into recycled buffers and
  // takes them back when a subgraph dies.
  friend class SubgraphWorkspace;

  Graph(std::vector<std::size_t> offsets, std::vector<VertexId> adjacency)
      : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {}

  std::vector<std::size_t> offsets_;   // size NumVertices()+1
  std::vector<VertexId> adjacency_;    // concatenated sorted neighbor lists
};

/// Incremental edge accumulator producing an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices)
      : num_vertices_(num_vertices) {}

  VertexId num_vertices() const { return num_vertices_; }

  /// Raises the vertex count to at least `n`.
  void GrowTo(VertexId n) { num_vertices_ = std::max(num_vertices_, n); }

  /// Records an undirected edge; duplicates and self-loops are tolerated
  /// here and cleaned up in Build().
  void AddEdge(VertexId u, VertexId v) { edges_.push_back({u, v}); }

  /// Number of (possibly duplicated) recorded edges.
  std::size_t NumRecordedEdges() const { return edges_.size(); }

  /// Validates endpoints and produces the graph. The builder is left empty.
  Result<Graph> Build();

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;
};

}  // namespace scpm

#endif  // SCPM_GRAPH_GRAPH_H_
