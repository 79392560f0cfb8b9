#include "graph/subgraph.h"

#include <algorithm>
#include <bit>

#include "util/sorted_ops.h"

namespace scpm {

Result<InducedSubgraph> InducedSubgraph::Create(const Graph& parent,
                                                VertexSet vertices) {
  if (!IsStrictlySorted(vertices)) {
    return Status::InvalidArgument(
        "induced vertex set must be sorted and duplicate-free");
  }
  if (!vertices.empty() && vertices.back() >= parent.NumVertices()) {
    return Status::InvalidArgument("induced vertex id out of range");
  }

  const VertexId n = static_cast<VertexId>(vertices.size());
  std::vector<Edge> edges;
  for (VertexId local = 0; local < n; ++local) {
    const VertexId global = vertices[local];
    // Merge-intersect the (sorted) parent adjacency with the (sorted)
    // induced vertex set, emitting each edge once (u < v locally).
    auto nbrs = parent.Neighbors(global);
    auto it = nbrs.begin();
    VertexId other_local = 0;
    while (it != nbrs.end() && other_local < n) {
      const VertexId w = vertices[other_local];
      if (*it < w) {
        ++it;
      } else if (w < *it) {
        ++other_local;
      } else {
        if (local < other_local) edges.push_back({local, other_local});
        ++it;
        ++other_local;
      }
    }
  }
  Result<Graph> graph = Graph::FromEdges(n, std::move(edges));
  if (!graph.ok()) return graph.status();
  return InducedSubgraph(std::move(graph).value(), std::move(vertices));
}

VertexId InducedSubgraph::ToLocal(VertexId global) const {
  auto it = std::lower_bound(global_ids_.begin(), global_ids_.end(), global);
  if (it == global_ids_.end() || *it != global) return kInvalidVertex;
  return static_cast<VertexId>(it - global_ids_.begin());
}

VertexSet InducedSubgraph::ToGlobal(const VertexSet& locals) const {
  VertexSet out;
  out.reserve(locals.size());
  for (VertexId local : locals) out.push_back(global_ids_[local]);
  // Locals sorted ascending map to sorted globals because global_ids_ is
  // itself sorted.
  return out;
}

Result<InducedSubgraph> SubgraphWorkspace::Build(const Graph& parent,
                                                 VertexSet vertices) {
  if (!IsStrictlySorted(vertices)) {
    return Status::InvalidArgument(
        "induced vertex set must be sorted and duplicate-free");
  }
  if (!vertices.empty() && vertices.back() >= parent.NumVertices()) {
    return Status::InvalidArgument("induced vertex id out of range");
  }

  if (stamp_.size() < parent.NumVertices()) {
    stamp_.resize(parent.NumVertices(), epoch_);
    local_of_.resize(parent.NumVertices());
  }
  if (++epoch_ == 0) {  // Wrapped: every stale stamp now collides.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  const VertexId n = static_cast<VertexId>(vertices.size());
  for (VertexId local = 0; local < n; ++local) {
    stamp_[vertices[local]] = epoch_;
    local_of_[vertices[local]] = local;
  }

  CsrBuffers csr;
  if (!free_.empty()) {
    csr = std::move(free_.back());
    free_.pop_back();
  }
  csr.offsets.clear();
  csr.adjacency.clear();
  csr.offsets.reserve(static_cast<std::size_t>(n) + 1);
  csr.offsets.push_back(0);
  // Vertices are processed in local order and parent adjacency is sorted,
  // so each local neighbor list comes out sorted (the mapping is
  // monotone) and the CSR fills front to back in one pass.
  for (VertexId local = 0; local < n; ++local) {
    for (VertexId w : parent.Neighbors(vertices[local])) {
      if (stamp_[w] == epoch_) csr.adjacency.push_back(local_of_[w]);
    }
    csr.offsets.push_back(csr.adjacency.size());
  }
  return InducedSubgraph(
      Graph(std::move(csr.offsets), std::move(csr.adjacency)),
      std::move(vertices));
}

Result<InducedSubgraph> SubgraphWorkspace::Build(const Graph& parent,
                                                 HybridVertexSet vertices) {
  if (!vertices.dense()) return Build(parent, vertices.TakeVector());
  const VertexBitset& bits = vertices.bits();
  if (bits.universe() > parent.NumVertices()) {
    return Status::InvalidArgument("induced vertex id out of range");
  }

  // Word-rank table: local id of a member g is the number of members
  // before it, read as prefix[g/64] + popcount(word & low-mask).
  rank_prefix_.assign(bits.num_words() + 1, 0);
  VertexId running = 0;
  for (std::size_t w = 0; w < bits.num_words(); ++w) {
    rank_prefix_[w] = running;
    running += static_cast<VertexId>(std::popcount(bits.data()[w]));
  }
  rank_prefix_[bits.num_words()] = running;
  const auto local_of = [&](VertexId g) {
    const std::uint64_t word = bits.data()[g / 64];
    const std::uint64_t below = word & ((std::uint64_t{1} << (g % 64)) - 1);
    return rank_prefix_[g / 64] +
           static_cast<VertexId>(std::popcount(below));
  };

  VertexSet global_ids;
  global_ids.reserve(vertices.size());
  bits.AppendTo(&global_ids);

  CsrBuffers csr;
  if (!free_.empty()) {
    csr = std::move(free_.back());
    free_.pop_back();
  }
  csr.offsets.clear();
  csr.adjacency.clear();
  csr.offsets.reserve(global_ids.size() + 1);
  csr.offsets.push_back(0);
  for (VertexId global : global_ids) {
    for (VertexId w : parent.Neighbors(global)) {
      if (w < bits.universe() && bits.Test(w)) {
        csr.adjacency.push_back(local_of(w));
      }
    }
    csr.offsets.push_back(csr.adjacency.size());
  }
  return InducedSubgraph(
      Graph(std::move(csr.offsets), std::move(csr.adjacency)),
      std::move(global_ids));
}

void SubgraphWorkspace::Recycle(InducedSubgraph&& sub) {
  CsrBuffers csr;
  csr.offsets = std::move(sub.graph_.offsets_);
  csr.adjacency = std::move(sub.graph_.adjacency_);
  free_.push_back(std::move(csr));
}

}  // namespace scpm
