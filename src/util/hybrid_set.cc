#include "util/hybrid_set.h"

#include <bit>
#include <utility>

#include "util/logging.h"
#include "util/sorted_ops.h"

namespace scpm {

// ------------------------------------------------------------ VertexBitset

VertexBitset VertexBitset::FromSorted(const VertexSet& v, VertexId universe) {
  VertexBitset out(universe);
  for (VertexId x : v) {
    SCPM_CHECK(x < universe) << "vertex id out of bitmap universe";
    out.Set(x);
  }
  return out;
}

std::size_t VertexBitset::And(const VertexBitset& a, const VertexBitset& b,
                              VertexBitset* out) {
  SCPM_CHECK(a.universe_ == b.universe_) << "bitmap universes differ";
  if (out->universe_ != a.universe_) *out = VertexBitset(a.universe_);
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.words_.size(); ++w) {
    const std::uint64_t v = a.words_[w] & b.words_[w];
    out->words_[w] = v;
    count += std::popcount(v);
  }
  return count;
}

std::size_t VertexBitset::AndCount(const VertexBitset& a,
                                   const VertexBitset& b) {
  SCPM_CHECK(a.universe_ == b.universe_) << "bitmap universes differ";
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.words_.size(); ++w) {
    count += std::popcount(a.words_[w] & b.words_[w]);
  }
  return count;
}

void VertexBitset::AppendTo(VertexSet* out) const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t bits = words_[w];
    while (bits != 0) {
      const int tz = std::countr_zero(bits);
      out->push_back(static_cast<VertexId>(w * 64 + tz));
      bits &= bits - 1;
    }
  }
}

std::size_t IntersectSortedWithBitsCount(const VertexSet& sorted,
                                         const VertexBitset& bits) {
  std::size_t count = 0;
  for (VertexId v : sorted) count += bits.Test(v) ? 1 : 0;
  return count;
}

void IntersectSortedWithBits(const VertexSet& sorted, const VertexBitset& bits,
                             VertexSet* out) {
  out->clear();
  for (VertexId v : sorted) {
    if (bits.Test(v)) out->push_back(v);
  }
}

// --------------------------------------------------------- HybridVertexSet

namespace {

/// True when SortedIntersect will take its galloping path (it returns
/// early on an empty operand, before the skew check).
bool WouldGallop(std::size_t a, std::size_t b) {
  return a != 0 && b != 0 &&
         (a * kGallopSkew < b || b * kGallopSkew < a);
}

}  // namespace

HybridVertexSet HybridVertexSet::View(const VertexSet* v, VertexId universe) {
  HybridVertexSet out;
  out.view_ = v;
  out.size_ = v->size();
  out.universe_ = universe;
  return out;
}

HybridVertexSet HybridVertexSet::FromVector(VertexSet v, VertexId universe,
                                            SetOpStats* stats) {
  HybridVertexSet out;
  out.size_ = v.size();
  out.universe_ = universe;
  out.vec_ = std::move(v);
  out.Normalize(stats);
  return out;
}

void HybridVertexSet::Normalize(SetOpStats* stats) {
  const bool want_dense = ShouldBeDense(size_, universe_);
  if (want_dense == dense_) return;
  if (want_dense) {
    bits_ = VertexBitset::FromSorted(sorted(), universe_);
    view_ = nullptr;
    vec_.clear();
    vec_.shrink_to_fit();
    if (stats != nullptr) ++stats->dense_conversions;
  } else {
    // Demotion: materialize the sorted vector. Not counted — only
    // promotions into the bitmap are conversions.
    vec_.clear();
    vec_.reserve(size_);
    bits_.AppendTo(&vec_);
    bits_ = VertexBitset();
  }
  dense_ = want_dense;
}

void HybridVertexSet::Intersect(const HybridVertexSet& a,
                                const HybridVertexSet& b, HybridVertexSet* out,
                                SetOpStats* stats) {
  const VertexId universe = a.universe_ != 0 ? a.universe_ : b.universe_;
  out->view_ = nullptr;
  out->universe_ = universe;
  if (a.dense_ && b.dense_) {
    if (stats != nullptr) ++stats->bitmap_intersections;
    out->size_ = VertexBitset::And(a.bits_, b.bits_, &out->bits_);
    out->vec_.clear();
    out->dense_ = true;
  } else {
    if (a.dense_ || b.dense_) {
      // Probe the bitmap once per element of the sparse side.
      if (stats != nullptr) ++stats->bitmap_intersections;
      const HybridVertexSet& sparse = a.dense_ ? b : a;
      const VertexBitset& bits = a.dense_ ? a.bits_ : b.bits_;
      IntersectSortedWithBits(sparse.sorted(), bits, &out->vec_);
    } else {
      if (stats != nullptr && WouldGallop(a.size_, b.size_)) {
        ++stats->galloping_intersections;
      }
      SortedIntersect(a.sorted(), b.sorted(), &out->vec_);
    }
    out->size_ = out->vec_.size();
    out->bits_ = VertexBitset();
    out->dense_ = false;
  }
  // Re-establish the canonical-representation invariant: the kernels
  // above produce whatever their operands dictated; the density rule
  // decides what the result is stored as.
  out->Normalize(stats);
}

std::size_t HybridVertexSet::IntersectSize(const HybridVertexSet& a,
                                           const HybridVertexSet& b,
                                           SetOpStats* stats) {
  if (a.dense_ && b.dense_) {
    if (stats != nullptr) ++stats->bitmap_intersections;
    return VertexBitset::AndCount(a.bits_, b.bits_);
  }
  if (a.dense_ || b.dense_) {
    if (stats != nullptr) ++stats->bitmap_intersections;
    const HybridVertexSet& sparse = a.dense_ ? b : a;
    const VertexBitset& bits = a.dense_ ? a.bits_ : b.bits_;
    return IntersectSortedWithBitsCount(sparse.sorted(), bits);
  }
  return SortedIntersectSize(a.sorted(), b.sorted());
}

bool HybridVertexSet::Contains(VertexId v) const {
  if (dense_) return v < universe_ && bits_.Test(v);
  return SortedContains(sorted(), v);
}

void HybridVertexSet::AppendTo(VertexSet* out) const {
  if (dense_) {
    bits_.AppendTo(out);
    return;
  }
  const VertexSet& src = sorted();
  out->insert(out->end(), src.begin(), src.end());
}

VertexSet HybridVertexSet::ToVector() const {
  VertexSet out;
  out.reserve(size_);
  AppendTo(&out);
  return out;
}

VertexSet HybridVertexSet::TakeVector() {
  VertexSet out;
  if (dense_) {
    out.reserve(size_);
    bits_.AppendTo(&out);
  } else if (view_ != nullptr) {
    out = *view_;
  } else {
    out = std::move(vec_);
  }
  *this = HybridVertexSet();
  return out;
}

}  // namespace scpm
