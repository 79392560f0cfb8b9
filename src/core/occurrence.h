// Occurrence deliver: the children of one lattice class member in one
// pass over its tidset.
//
// The lattice walk (paper Algorithm 2, Eclat-style over equivalence
// classes; Zaki, IEEE TKDE 2000) builds a class member's children from
// its later siblings. Every member of a class with prefix P is P + {a_j}
// for an extension item a_j, with tidset T_P ∩ V(a_j). So for an earlier
// member i, T_i ∩ T_j = T_i ∩ V(a_j): filing each vertex of T_i under
// the later members' extension items it carries yields every child
// tidset at once, already sorted. This is LCM's occurrence deliver (Uno,
// Kiyomi, Arimura, FIMI 2004). It costs the attribute lists of T_i's
// vertices instead of one tidset intersection per later sibling.

#ifndef SCPM_CORE_OCCURRENCE_H_
#define SCPM_CORE_OCCURRENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/attributed_graph.h"
#include "graph/types.h"
#include "util/hybrid_set.h"

namespace scpm {

/// Reusable scratch for occurrence deliver: an attribute -> bucket table
/// sized to the graph's attributes plus one vertex bucket per extension
/// item. Add the items, Deliver, read the buckets, then Clear; the table
/// and the buckets' capacity are kept for the next class member.
class OccurrenceDeliver {
 public:
  explicit OccurrenceDeliver(std::size_t num_attributes)
      : bucket_of_(num_attributes, kNoBucket) {}

  /// Opens bucket num_buckets() for extension item `item`. Items must be
  /// strictly increasing, as the last items of a class's members are;
  /// Deliver scans only the attributes between the first and the last.
  void AddItem(AttributeId item);

  /// One pass over `tidset`: bucket k receives tidset ∩ V(item k), in
  /// ascending order.
  void Deliver(const AttributedGraph& graph, const HybridVertexSet& tidset);

  std::size_t num_buckets() const { return items_.size(); }
  const VertexSet& bucket(std::size_t k) const { return buckets_[k]; }

  /// Forgets the items and empties their buckets, keeping the capacity.
  void Clear();

 private:
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};
  // Clear keeps a bucket's storage up to this many vertices. The large
  // buckets come from the few members with huge tidsets; keeping them
  // would hold the peak of every bucket index for the whole run.
  static constexpr std::size_t kKeptCapacity = 1024;

  std::vector<std::uint32_t> bucket_of_;  // attribute -> bucket index
  std::vector<AttributeId> items_;
  std::vector<VertexSet> buckets_;  // grows to the largest class seen
};

}  // namespace scpm

#endif  // SCPM_CORE_OCCURRENCE_H_
