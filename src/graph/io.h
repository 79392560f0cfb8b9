// Plain-text persistence for graphs and attributed graphs.
//
// Edge-list format: exactly one "u v" pair per line; '#' starts a comment;
// vertex count is max id + 1 unless given explicitly.
// Attribute format: one "v name1 name2 ..." line per vertex (whitespace
// separated; vertices may be omitted or repeated).

#ifndef SCPM_GRAPH_IO_H_
#define SCPM_GRAPH_IO_H_

#include <string>

#include "graph/attributed_graph.h"
#include "graph/graph.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {

/// Largest vertex id the loaders accept (about 67M vertices). The vertex
/// count is max id + 1 and every per-vertex array is sized by it, so this
/// cap bounds what a single input line can make the loader allocate.
inline constexpr VertexId kMaxLoadedVertexId = (VertexId{1} << 26) - 1;

/// Loads an edge list; vertex count is inferred as max id + 1. A line
/// that is not exactly two ids in [0, kMaxLoadedVertexId] is an IoError
/// naming the file and line.
Result<Graph> LoadEdgeList(const std::string& path);

/// Writes "u v" lines in canonical order.
Status SaveEdgeList(const Graph& graph, const std::string& path);

/// Loads an attributed graph from an edge-list file plus an attribute
/// file ("v name1 name2 ..." lines), reading each file once. The vertex
/// count is the largest id either file names, plus one, so a vertex with
/// attributes but no edge loads as an isolated vertex.
Result<AttributedGraph> LoadAttributedGraph(const std::string& graph_path,
                                            const std::string& attr_path);

/// Writes the graph and attribute files for an attributed graph.
Status SaveAttributedGraph(const AttributedGraph& graph,
                           const std::string& graph_path,
                           const std::string& attr_path);

}  // namespace scpm

#endif  // SCPM_GRAPH_IO_H_
