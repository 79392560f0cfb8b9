#include "graph/io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <string_view>
#include <vector>

namespace scpm {
namespace {

/// `line` up to its '#' comment, if any.
std::string_view StripComment(const std::string& line) {
  return std::string_view(line).substr(0, line.find('#'));
}

/// Removes and returns the first blank-separated token of `*rest`; empty
/// when none is left.
std::string_view NextToken(std::string_view* rest) {
  constexpr std::string_view kBlanks = " \t\r\v\f";
  const std::size_t begin = rest->find_first_not_of(kBlanks);
  if (begin == std::string_view::npos) {
    *rest = {};
    return {};
  }
  const std::size_t end = rest->find_first_of(kBlanks, begin);
  const std::string_view token = rest->substr(begin, end - begin);
  rest->remove_prefix(end == std::string_view::npos ? rest->size() : end);
  return token;
}

/// Parses one vertex-id token into `*id`. The error message omits the
/// location; the caller adds it (LineError).
Status ParseVertexId(std::string_view token, VertexId* id) {
  // Echo at most 32 characters, so one huge token cannot make a huge
  // error message.
  const auto text = [token] { return std::string(token.substr(0, 32)); };
  if (token.size() > 1 && token[0] == '-' &&
      std::isdigit(static_cast<unsigned char>(token[1]))) {
    return Status::IoError("negative vertex id " + text());
  }
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && ptr == end && value > kMaxLoadedVertexId)) {
    return Status::IoError("vertex id " + text() + " too large (max " +
                           std::to_string(kMaxLoadedVertexId) + ")");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::IoError("expected a vertex id, got '" + text() + "'");
  }
  *id = static_cast<VertexId>(value);
  return Status::OK();
}

Status LineError(const std::string& path, std::size_t line_no,
                 const std::string& what) {
  return Status::IoError(path + ":" + std::to_string(line_no) + ": " + what);
}

/// Reads an edge list in one pass, handing each edge to `add(u, v)`, and
/// returns the vertex count the edges name (max id + 1; 0 for none).
template <typename AddEdge>
Result<VertexId> ReadEdges(const std::string& path, AddEdge add) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);

  VertexId max_id = 0;
  bool any_vertex = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view rest = StripComment(line);
    const std::string_view tu = NextToken(&rest);
    if (tu.empty()) continue;  // blank or comment-only line
    const std::string_view tv = NextToken(&rest);
    if (tv.empty() || !NextToken(&rest).empty()) {
      return LineError(path, line_no, "expected exactly 'u v'");
    }
    VertexId u = 0, v = 0;
    Status parsed = ParseVertexId(tu, &u);
    if (parsed.ok()) parsed = ParseVertexId(tv, &v);
    if (!parsed.ok()) return LineError(path, line_no, parsed.message());
    add(u, v);
    max_id = std::max({max_id, u, v});
    any_vertex = true;
  }
  return any_vertex ? max_id + 1 : 0;
}

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path) {
  std::vector<Edge> edges;
  Result<VertexId> n = ReadEdges(
      path, [&edges](VertexId u, VertexId v) { edges.push_back({u, v}); });
  if (!n.ok()) return n.status();
  return Graph::FromEdges(*n, std::move(edges));
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# scpm edge list: " << graph.NumVertices() << " vertices, "
      << graph.NumEdges() << " edges\n";
  for (const Edge& e : graph.Edges()) out << e.u << " " << e.v << "\n";
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<AttributedGraph> LoadAttributedGraph(const std::string& graph_path,
                                            const std::string& attr_path) {
  // The vertex count is the largest id either file names, plus one: a
  // vertex may carry attributes without touching any edge.
  AttributedGraphBuilder builder(0);
  Result<VertexId> n =
      ReadEdges(graph_path, [&builder](VertexId u, VertexId v) {
        builder.AddEdge(u, v);
      });
  if (!n.ok()) return n.status();
  builder.GrowTo(*n);

  std::ifstream in(attr_path);
  if (!in) return Status::IoError("cannot open " + attr_path);

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view rest = StripComment(line);
    const std::string_view token = NextToken(&rest);
    if (token.empty()) continue;  // blank or comment-only line
    VertexId v = 0;
    if (Status parsed = ParseVertexId(token, &v); !parsed.ok()) {
      return LineError(attr_path, line_no, parsed.message());
    }
    builder.GrowTo(v + 1);
    for (std::string_view name = NextToken(&rest); !name.empty();
         name = NextToken(&rest)) {
      SCPM_RETURN_IF_ERROR(builder.AddVertexAttribute(v, name));
    }
  }
  return builder.Build();
}

Status SaveAttributedGraph(const AttributedGraph& graph,
                           const std::string& graph_path,
                           const std::string& attr_path) {
  SCPM_RETURN_IF_ERROR(SaveEdgeList(graph.graph(), graph_path));
  std::ofstream out(attr_path);
  if (!out) {
    return Status::IoError("cannot open " + attr_path + " for writing");
  }
  out << "# scpm attributes: " << graph.NumAttributes() << " attributes\n";
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    auto attrs = graph.Attributes(v);
    if (attrs.empty()) continue;
    out << v;
    for (AttributeId a : attrs) out << " " << graph.AttributeName(a);
    out << "\n";
  }
  if (!out) return Status::IoError("write failed for " + attr_path);
  return Status::OK();
}

}  // namespace scpm
