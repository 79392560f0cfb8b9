#include "fim/eclat.h"

#include <utility>

#include "util/sorted_ops.h"

namespace scpm {

Status EclatOptions::Validate() const {
  if (min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (min_itemset_size < 1) {
    return Status::InvalidArgument("min_itemset_size must be >= 1");
  }
  if (max_itemset_size < min_itemset_size) {
    return Status::InvalidArgument(
        "max_itemset_size must be >= min_itemset_size");
  }
  return Status::OK();
}

namespace {

/// One node of the Eclat prefix tree: the last item of the prefix plus the
/// tidset of the whole prefix. Roots borrow the graph-owned tidsets;
/// deeper nodes own the intersection results, dense or sparse.
struct Node {
  AttributeId item;
  HybridVertexSet tidset;
};

/// Mining state threaded through the recursion: thresholds, the visitor,
/// the kernel counters, and a scratch vector for materializing dense
/// tidsets at the visitor boundary.
struct Context {
  const EclatOptions& options;
  const ItemsetVisitor& visitor;
  SetOpStats* stats = nullptr;
  VertexSet scratch;

  /// Presents a tidset to the visitor as a sorted vector (zero-copy when
  /// sparse; dense tidsets materialize into the scratch vector). Returns
  /// the visitor's verdict.
  bool Visit(const AttributeSet& items, const Node& node) {
    if (node.tidset.sparse()) return visitor(items, node.tidset.sorted());
    scratch.clear();
    node.tidset.AppendTo(&scratch);
    return visitor(items, scratch);
  }
};

/// Recursive equivalence-class extension. `prefix` holds the current
/// itemset; `siblings` the frequent right-extensions of the parent class.
/// Returns false when the visitor requested a stop.
bool Extend(std::vector<Node>& siblings, AttributeSet& prefix, Context& ctx) {
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    prefix.push_back(siblings[i].item);
    if (prefix.size() >= ctx.options.min_itemset_size) {
      if (!ctx.Visit(prefix, siblings[i])) {
        prefix.pop_back();
        return false;
      }
    }
    if (prefix.size() < ctx.options.max_itemset_size) {
      std::vector<Node> children;
      for (std::size_t j = i + 1; j < siblings.size(); ++j) {
        Node child;
        child.item = siblings[j].item;
        HybridVertexSet::Intersect(siblings[i].tidset, siblings[j].tidset,
                                   &child.tidset, ctx.stats);
        if (child.tidset.size() >= ctx.options.min_support) {
          children.push_back(std::move(child));
        }
      }
      if (!children.empty() && !Extend(children, prefix, ctx)) {
        prefix.pop_back();
        return false;
      }
    }
    prefix.pop_back();
  }
  return true;
}

}  // namespace

Status Eclat::Mine(const AttributedGraph& graph,
                   const ItemsetVisitor& visitor) const {
  SCPM_RETURN_IF_ERROR(options_.Validate());
  if (set_op_stats_ != nullptr) *set_op_stats_ = SetOpStats{};
  Context ctx{options_, visitor, set_op_stats_, {}};
  // Universe 0 pins every set to the sorted-vector representation.
  const VertexId universe =
      options_.use_hybrid_tidsets ? graph.NumVertices() : 0;
  std::vector<Node> roots;
  for (AttributeId a = 0; a < graph.NumAttributes(); ++a) {
    const VertexSet& tidset = graph.VerticesWith(a);
    if (tidset.size() < options_.min_support) continue;
    Node root;
    root.item = a;
    // Borrow the graph-owned tidset (the graph outlives the mining call);
    // only sets the density rule wants dense are materialized at all.
    root.tidset = HybridVertexSet::View(&tidset, universe);
    root.tidset.Normalize(ctx.stats);
    roots.push_back(std::move(root));
  }
  AttributeSet prefix;
  Extend(roots, prefix, ctx);
  return Status::OK();
}

Result<std::vector<FrequentItemset>> Eclat::MineAll(
    const AttributedGraph& graph) const {
  std::vector<FrequentItemset> out;
  Status status =
      Mine(graph, [&](const AttributeSet& items, const VertexSet& tidset) {
        out.push_back({items, tidset});
        return true;
      });
  if (!status.ok()) return status;
  return out;
}

}  // namespace scpm
