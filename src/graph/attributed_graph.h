// Attributed graph: the paper's G = (V, E, A, F).
//
// Each vertex carries a sorted set of attribute ids; attribute names are
// interned into dense ids. The inverted index attribute -> sorted vertex
// list ("tidset") is precomputed because every attribute-set operation in
// the miners is a tidset intersection.

#ifndef SCPM_GRAPH_ATTRIBUTED_GRAPH_H_
#define SCPM_GRAPH_ATTRIBUTED_GRAPH_H_

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/result.h"

namespace scpm {

/// Immutable attributed graph; build with AttributedGraphBuilder.
class AttributedGraph {
 public:
  AttributedGraph() = default;

  const Graph& graph() const { return graph_; }
  VertexId NumVertices() const { return graph_.NumVertices(); }
  std::size_t NumAttributes() const { return names_.size(); }

  /// Total number of (vertex, attribute) incidences.
  std::size_t NumAttributeOccurrences() const { return attr_values_.size(); }

  /// Sorted attribute ids of vertex v.
  std::span<const AttributeId> Attributes(VertexId v) const {
    return {attr_values_.data() + attr_offsets_[v],
            attr_values_.data() + attr_offsets_[v + 1]};
  }

  bool VertexHasAttribute(VertexId v, AttributeId a) const;

  /// Sorted vertices carrying attribute `a` (its tidset). The paper's
  /// sigma({a}) is VerticesWith(a).size().
  const VertexSet& VerticesWith(AttributeId a) const {
    return inverted_index_[a];
  }

  /// Sorted vertices carrying every attribute of (sorted) `attrs`: the
  /// paper's V(S). Returns all vertices when attrs is empty.
  VertexSet VerticesWithAll(const AttributeSet& attrs) const;

  /// Support sigma(S) = |V(S)|.
  std::size_t Support(const AttributeSet& attrs) const {
    return VerticesWithAll(attrs).size();
  }

  const std::string& AttributeName(AttributeId a) const { return names_[a]; }

  /// Id of a named attribute, or kInvalidAttribute when unknown.
  AttributeId FindAttribute(std::string_view name) const;

  /// Human-readable "{name1, name2}" rendering of an attribute set.
  std::string FormatAttributeSet(const AttributeSet& attrs) const;

 private:
  friend class AttributedGraphBuilder;

  Graph graph_;
  // CSR of per-vertex sorted attribute ids.
  std::vector<std::size_t> attr_offsets_;
  std::vector<AttributeId> attr_values_;
  std::vector<VertexSet> inverted_index_;  // attribute -> sorted vertices
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttributeId> name_to_id_;
};

/// Accumulates edges, attribute names, and vertex-attribute incidences.
class AttributedGraphBuilder {
 public:
  explicit AttributedGraphBuilder(VertexId num_vertices)
      : graph_builder_(num_vertices),
        vertex_attrs_(num_vertices) {}

  VertexId num_vertices() const { return graph_builder_.num_vertices(); }

  /// Raises the vertex count to at least `n`.
  void GrowTo(VertexId n) {
    graph_builder_.GrowTo(n);
    if (vertex_attrs_.size() < n) vertex_attrs_.resize(n);
  }

  void AddEdge(VertexId u, VertexId v) { graph_builder_.AddEdge(u, v); }

  /// Interns an attribute name, returning its dense id (stable across
  /// repeated calls with the same name).
  AttributeId InternAttribute(std::string_view name);

  /// Attaches attribute `a` to vertex `v`. `a` must come from
  /// InternAttribute; duplicates are collapsed at Build().
  Status AddVertexAttribute(VertexId v, AttributeId a);

  /// Convenience: intern + attach.
  Status AddVertexAttribute(VertexId v, std::string_view name) {
    return AddVertexAttribute(v, InternAttribute(name));
  }

  Result<AttributedGraph> Build();

 private:
  GraphBuilder graph_builder_;
  std::vector<std::vector<AttributeId>> vertex_attrs_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttributeId> name_to_id_;
};

}  // namespace scpm

#endif  // SCPM_GRAPH_ATTRIBUTED_GRAPH_H_
