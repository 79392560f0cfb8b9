// Hybrid sparse-vector / dense-bitmap vertex sets.
//
// Every hot path of the pipeline — Eclat/Apriori tidset extension,
// Theorem-3 universe pruning, induced-subgraph construction — bottoms
// out in pairwise intersection of sorted VertexSet vectors (SCPM's own
// lattice builds child tidsets by occurrence deliver instead; see
// core/occurrence.h). HybridVertexSet stores each set in whichever of two
// representations the *density rule* picks and dispatches intersections
// to the matching kernel:
//
//   sparse   sorted u32 vector            merge / gallop
//   dense    fixed-universe bitmap        word AND + popcount
//
// The dense bitmap wins past ~5% density; below it the merge scan touches
// fewer words than the bitmap would.
//
// Determinism contract: the representation is a pure function of
// (size, universe) — never of thread count, timing, or which worker built
// the set — and every kernel produces the same sorted elements, so
// miners that swap VertexSet for HybridVertexSet keep byte-identical
// output. The SetOpStats counters only ever count kernel dispatches,
// which are themselves deterministic, so per-worker counts sum to the
// same totals for any thread count.

#ifndef SCPM_UTIL_HYBRID_SET_H_
#define SCPM_UTIL_HYBRID_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace scpm {

/// Deterministic counts of the set-kernel dispatches (see the file
/// comment). Accumulated per worker and summed on join, like ScpmCounters.
struct SetOpStats {
  /// Intersections executed with at least one bitmap operand (word-AND
  /// when both are dense, bitmap probe when one is).
  std::uint64_t bitmap_intersections = 0;
  /// Vector/vector intersections that took the galloping (binary-probe)
  /// path because one side was >= 32x smaller.
  std::uint64_t galloping_intersections = 0;
  /// Materializations into the dense representation (the density rule
  /// promoted a set to a bitmap).
  std::uint64_t dense_conversions = 0;

  void MergeFrom(const SetOpStats& other) {
    bitmap_intersections += other.bitmap_intersections;
    galloping_intersections += other.galloping_intersections;
    dense_conversions += other.dense_conversions;
  }
};

/// Fixed-universe bitmap over vertex ids [0, universe).
class VertexBitset {
 public:
  VertexBitset() = default;

  /// All-zero bitmap over [0, universe).
  explicit VertexBitset(VertexId universe)
      : universe_(universe),
        words_((static_cast<std::size_t>(universe) + 63) / 64, 0) {}

  /// Bitmap of a sorted, duplicate-free vertex set.
  static VertexBitset FromSorted(const VertexSet& v, VertexId universe);

  VertexId universe() const { return universe_; }
  std::size_t num_words() const { return words_.size(); }
  const std::uint64_t* data() const { return words_.data(); }

  bool Test(VertexId v) const {
    return (words_[v / 64] >> (v % 64)) & 1u;
  }
  void Set(VertexId v) { words_[v / 64] |= std::uint64_t{1} << (v % 64); }
  void Reset(VertexId v) {
    words_[v / 64] &= ~(std::uint64_t{1} << (v % 64));
  }

  /// out = a & b (word-wise AND); returns |out|. Universes must match.
  /// `out` may alias either input.
  static std::size_t And(const VertexBitset& a, const VertexBitset& b,
                         VertexBitset* out);

  /// |a & b| without materializing the result.
  static std::size_t AndCount(const VertexBitset& a, const VertexBitset& b);

  /// Appends the members in ascending order (ctz scan over the words).
  void AppendTo(VertexSet* out) const;

 private:
  VertexId universe_ = 0;
  std::vector<std::uint64_t> words_;
};

/// |sorted ∩ bits| by probing the bitmap once per vector element.
std::size_t IntersectSortedWithBitsCount(const VertexSet& sorted,
                                         const VertexBitset& bits);

/// out = sorted ∩ bits, sorted. `out` may not alias `sorted`.
void IntersectSortedWithBits(const VertexSet& sorted, const VertexBitset& bits,
                             VertexSet* out);

/// A vertex set stored as either a sorted vector (sparse) or a
/// fixed-universe bitmap (dense), switched by the deterministic density
/// rule ShouldBeDense. A sparse set can additionally *borrow* a
/// caller-owned vector (View), which is how Eclat/Apriori/SCPM roots
/// reference the graph-owned attribute tidsets without copying them.
///
/// Universe 0 means "unknown universe": the set can never go dense and
/// every operation takes the sorted-vector path — the escape hatch the
/// use_hybrid_sets=false configurations use to reproduce the pure
/// merge-based behavior bit for bit.
class HybridVertexSet {
 public:
  HybridVertexSet() = default;

  /// Borrows `v` (not copied; caller keeps it alive and unchanged).
  static HybridVertexSet View(const VertexSet* v, VertexId universe);

  /// Owns `v`, immediately applying the density rule (a promotion to
  /// dense bumps stats->dense_conversions).
  static HybridVertexSet FromVector(VertexSet v, VertexId universe,
                                    SetOpStats* stats);

  /// The density rule: dense iff the universe is at least one full word
  /// beyond trivial and the set fills >= 1/kDenseFraction of it. Pure
  /// function of (size, universe) so every thread picks the same
  /// representation.
  static bool ShouldBeDense(std::size_t size, VertexId universe) {
    return universe >= kMinDenseUniverse &&
           size * kDenseFraction >= universe;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  VertexId universe() const { return universe_; }
  bool sparse() const { return !dense_; }
  bool dense() const { return dense_; }
  bool is_view() const { return view_ != nullptr; }

  /// Re-applies the density rule to a view or freshly assembled set,
  /// materializing whichever representation the rule picks (a promotion
  /// to dense is counted in stats->dense_conversions). Calling it where
  /// the set is built — e.g. inside the per-batch evaluation tasks —
  /// shards the conversion cost of the root-class tidsets across the
  /// pool.
  void Normalize(SetOpStats* stats);

  /// out = a ∩ b, dispatched to the word-AND, bitmap-probe, or
  /// merge/gallop kernel by the operands' representations; the result
  /// representation again follows the density rule. `out` may alias
  /// neither input. Kernel dispatches are counted in `stats` (may be
  /// null).
  static void Intersect(const HybridVertexSet& a, const HybridVertexSet& b,
                        HybridVertexSet* out, SetOpStats* stats);

  /// |a ∩ b| without materializing the result.
  static std::size_t IntersectSize(const HybridVertexSet& a,
                                   const HybridVertexSet& b,
                                   SetOpStats* stats);

  /// Membership test (binary search when sparse, bit probe when dense).
  bool Contains(VertexId v) const;

  /// Appends the members in ascending order.
  void AppendTo(VertexSet* out) const;

  /// Calls fn(v) for every member in ascending order (ctz scan over the
  /// words when dense), without materializing the set.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (!dense_) {
      for (VertexId v : sorted()) fn(v);
      return;
    }
    const std::uint64_t* words = bits_.data();
    for (std::size_t w = 0; w < bits_.num_words(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<VertexId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  /// Sorted materialization (the API-boundary representation).
  VertexSet ToVector() const;

  /// Moves the sorted vector out (copies when borrowed, materializes when
  /// dense). The set is left empty.
  VertexSet TakeVector();

  /// The sorted vector without copying; requires sparse().
  const VertexSet& sorted() const { return view_ != nullptr ? *view_ : vec_; }

  /// The bitmap; requires dense().
  const VertexBitset& bits() const { return bits_; }

 private:
  // Dense iff universe >= 64 and density >= 5% (1/20). The 5% knee is
  // where the word-AND scan (universe/64 words) undercuts the merge scan
  // (~2 * density * universe branchy steps); below one word the bitmap
  // cannot win anything.
  static constexpr std::size_t kDenseFraction = 20;
  static constexpr VertexId kMinDenseUniverse = 64;

  const VertexSet* view_ = nullptr;  // borrowed sparse storage
  VertexSet vec_;                    // owned sparse storage
  VertexBitset bits_;                // owned dense storage
  std::size_t size_ = 0;
  VertexId universe_ = 0;
  bool dense_ = false;
};

}  // namespace scpm

#endif  // SCPM_UTIL_HYBRID_SET_H_
