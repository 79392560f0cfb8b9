#include "core/occurrence.h"

#include <algorithm>
#include <span>

#include "util/logging.h"

namespace scpm {

void OccurrenceDeliver::AddItem(AttributeId item) {
  SCPM_CHECK(item < bucket_of_.size()) << "extension item out of range";
  SCPM_CHECK(items_.empty() || items_.back() < item)
      << "extension items must be strictly increasing";
  bucket_of_[item] = static_cast<std::uint32_t>(items_.size());
  items_.push_back(item);
  if (buckets_.size() < items_.size()) buckets_.emplace_back();
}

void OccurrenceDeliver::Deliver(const AttributedGraph& graph,
                                const HybridVertexSet& tidset) {
  if (items_.empty()) return;
  const AttributeId first = items_.front();
  const AttributeId last = items_.back();
  tidset.ForEach([&](VertexId v) {
    const std::span<const AttributeId> attrs = graph.Attributes(v);
    for (auto it = std::lower_bound(attrs.begin(), attrs.end(), first);
         it != attrs.end() && *it <= last; ++it) {
      const std::uint32_t b = bucket_of_[*it];
      if (b != kNoBucket) buckets_[b].push_back(v);
    }
  });
}

void OccurrenceDeliver::Clear() {
  for (std::size_t k = 0; k < items_.size(); ++k) {
    bucket_of_[items_[k]] = kNoBucket;
    if (buckets_[k].capacity() > kKeptCapacity) {
      VertexSet().swap(buckets_[k]);
    } else {
      buckets_[k].clear();
    }
  }
  items_.clear();
}

}  // namespace scpm
