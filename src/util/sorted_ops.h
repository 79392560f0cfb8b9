// Set algebra on sorted, duplicate-free vectors.
//
// Sorted u32 vectors are the library's universal set representation:
// adjacency lists, attribute tidsets, induced vertex sets, quasi-clique
// candidate sets. These routines are the inner loops of the miners, so they
// are header-only and branch-light merge scans with galloping fallbacks for
// very asymmetric inputs.

#ifndef SCPM_UTIL_SORTED_OPS_H_
#define SCPM_UTIL_SORTED_OPS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace scpm {

/// True iff `v` is strictly increasing (sorted and duplicate-free).
template <typename T>
bool IsStrictlySorted(const std::vector<T>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

/// Binary-search membership test.
template <typename T>
bool SortedContains(const std::vector<T>& v, T x) {
  return std::binary_search(v.begin(), v.end(), x);
}

/// Size skew at which the intersection routines (here and in
/// util/hybrid_set) switch from the linear merge to galloping probes of
/// the larger side.
inline constexpr std::size_t kGallopSkew = 32;

namespace internal {

/// Galloping lower_bound: advances `it` to the first element >= x.
template <typename It, typename T>
It GallopTo(It it, It end, T x) {
  std::size_t step = 1;
  It probe = it;
  while (probe != end && *probe < x) {
    it = probe;
    if (static_cast<std::size_t>(end - probe) <= step) {
      probe = end;
      break;
    }
    probe += step;
    step <<= 1;
  }
  return std::lower_bound(it, probe == end ? end : probe + 1, x);
}

}  // namespace internal

/// out = a ∩ b. `out` may alias neither input.
template <typename T>
void SortedIntersect(const std::vector<T>& a, const std::vector<T>& b,
                     std::vector<T>* out) {
  out->clear();
  if (a.empty() || b.empty()) return;
  // Use galloping when one side is much smaller.
  if (a.size() * kGallopSkew < b.size() || b.size() * kGallopSkew < a.size()) {
    const std::vector<T>& small = a.size() < b.size() ? a : b;
    const std::vector<T>& large = a.size() < b.size() ? b : a;
    auto it = large.begin();
    for (T x : small) {
      it = internal::GallopTo(it, large.end(), x);
      if (it == large.end()) break;
      if (*it == x) out->push_back(x);
    }
    return;
  }
  auto ia = a.begin(), ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      out->push_back(*ia);
      ++ia;
      ++ib;
    }
  }
}

/// |a ∩ b| without materializing the intersection.
template <typename T>
std::size_t SortedIntersectSize(const std::vector<T>& a,
                                const std::vector<T>& b) {
  std::size_t count = 0;
  auto ia = a.begin(), ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

/// out = a ∪ b. `out` may alias neither input.
template <typename T>
void SortedUnion(const std::vector<T>& a, const std::vector<T>& b,
                 std::vector<T>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

/// out = a \ b. `out` may alias neither input.
template <typename T>
void SortedDifference(const std::vector<T>& a, const std::vector<T>& b,
                      std::vector<T>* out) {
  out->clear();
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(*out));
}

/// True iff a ⊆ b.
template <typename T>
bool SortedIsSubset(const std::vector<T>& a, const std::vector<T>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Inserts x into sorted vector v if absent; returns true when inserted.
template <typename T>
bool SortedInsert(std::vector<T>* v, T x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) return false;
  v->insert(it, x);
  return true;
}

/// Removes x from sorted vector v if present; returns true when removed.
template <typename T>
bool SortedErase(std::vector<T>* v, T x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it == v->end() || *it != x) return false;
  v->erase(it);
  return true;
}

/// Sorts and removes duplicates in place.
template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace scpm

#endif  // SCPM_UTIL_SORTED_OPS_H_
