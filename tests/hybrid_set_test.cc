// Unit tests for util/hybrid_set: the VertexBitset word kernels and the
// HybridVertexSet representation switch must match the sorted-vector
// reference ops exactly at every density and skew — byte-identical
// miner output depends on it.

#include <algorithm>

#include <gtest/gtest.h>

#include "util/hybrid_set.h"
#include "util/random.h"
#include "util/sorted_ops.h"

namespace scpm {
namespace {

VertexSet RandomSet(Rng& rng, VertexId universe, double density) {
  const auto k = static_cast<std::uint32_t>(
      static_cast<double>(universe) * density);
  return rng.SampleWithoutReplacement(universe, std::min(k, universe));
}

TEST(VertexBitsetTest, SetTestResetRoundtrip) {
  VertexBitset bits(130);
  for (VertexId v : {0u, 63u, 64u, 65u, 129u}) bits.Set(v);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_FALSE(bits.Test(62));
  bits.Reset(63);
  EXPECT_FALSE(bits.Test(63));
  VertexSet out;
  bits.AppendTo(&out);
  EXPECT_EQ(out, (VertexSet{0, 64, 65, 129}));
}

TEST(VertexBitsetTest, FromSortedMatchesMembership) {
  Rng rng(3);
  const VertexSet v = RandomSet(rng, 500, 0.2);
  const VertexBitset bits = VertexBitset::FromSorted(v, 500);
  for (VertexId x = 0; x < 500; ++x) {
    EXPECT_EQ(bits.Test(x), SortedContains(v, x)) << x;
  }
  VertexSet back;
  bits.AppendTo(&back);
  EXPECT_EQ(back, v);
}

TEST(VertexBitsetTest, AndMatchesReference) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const VertexId universe = 64 + static_cast<VertexId>(rng.NextBounded(400));
    const VertexSet a = RandomSet(rng, universe, rng.NextDouble());
    const VertexSet b = RandomSet(rng, universe, rng.NextDouble());
    const VertexBitset ba = VertexBitset::FromSorted(a, universe);
    const VertexBitset bb = VertexBitset::FromSorted(b, universe);

    VertexSet want;
    SortedIntersect(a, b, &want);
    VertexBitset got(universe);
    EXPECT_EQ(VertexBitset::And(ba, bb, &got), want.size());
    EXPECT_EQ(VertexBitset::AndCount(ba, bb), want.size());
    VertexSet got_vec;
    got.AppendTo(&got_vec);
    EXPECT_EQ(got_vec, want);
  }
}

TEST(VertexBitsetTest, AndAllowsAliasedOutput) {
  Rng rng(5);
  const VertexSet a = RandomSet(rng, 300, 0.3);
  const VertexSet b = RandomSet(rng, 300, 0.3);
  VertexSet want;
  SortedIntersect(a, b, &want);
  VertexBitset ba = VertexBitset::FromSorted(a, 300);
  const VertexBitset bb = VertexBitset::FromSorted(b, 300);
  EXPECT_EQ(VertexBitset::And(ba, bb, &ba), want.size());
  VertexSet got;
  ba.AppendTo(&got);
  EXPECT_EQ(got, want);
}

TEST(HybridVertexSetTest, DensityRule) {
  // Below one word the bitmap never engages.
  EXPECT_FALSE(HybridVertexSet::ShouldBeDense(63, 63));
  // At universe 64+ the 5% knee decides.
  EXPECT_FALSE(HybridVertexSet::ShouldBeDense(0, 1000));
  EXPECT_FALSE(HybridVertexSet::ShouldBeDense(49, 1000));
  EXPECT_TRUE(HybridVertexSet::ShouldBeDense(50, 1000));
  EXPECT_TRUE(HybridVertexSet::ShouldBeDense(1000, 1000));
  // Universe 0 = unknown: never dense (the hybrid-off escape hatch).
  EXPECT_FALSE(HybridVertexSet::ShouldBeDense(1000, 0));
}

TEST(HybridVertexSetTest, ViewBorrowsWithoutCopy) {
  const VertexSet v{2, 5, 9};
  HybridVertexSet set = HybridVertexSet::View(&v, 1000);
  EXPECT_TRUE(set.is_view());
  EXPECT_FALSE(set.dense());
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(&set.sorted(), &v);  // genuinely borrowed
  // Sparse by the rule: Normalize leaves the borrow in place.
  set.Normalize(nullptr);
  EXPECT_TRUE(set.is_view());
}

TEST(HybridVertexSetTest, NormalizePromotesDenseViews) {
  Rng rng(17);
  const VertexSet v = RandomSet(rng, 200, 0.5);
  SetOpStats stats;
  HybridVertexSet set = HybridVertexSet::View(&v, 200);
  set.Normalize(&stats);
  EXPECT_TRUE(set.dense());
  EXPECT_FALSE(set.is_view());
  EXPECT_EQ(stats.dense_conversions, 1u);
  EXPECT_EQ(set.ToVector(), v);
  EXPECT_EQ(set.size(), v.size());
}

TEST(HybridVertexSetTest, FromVectorPicksRepresentation) {
  Rng rng(23);
  SetOpStats stats;
  const VertexSet sparse_src = RandomSet(rng, 10000, 0.01);
  HybridVertexSet sparse =
      HybridVertexSet::FromVector(sparse_src, 10000, &stats);
  EXPECT_FALSE(sparse.dense());
  EXPECT_EQ(stats.dense_conversions, 0u);

  const VertexSet dense_src = RandomSet(rng, 10000, 0.2);
  HybridVertexSet dense = HybridVertexSet::FromVector(dense_src, 10000, &stats);
  EXPECT_TRUE(dense.dense());
  EXPECT_EQ(stats.dense_conversions, 1u);
  EXPECT_EQ(dense.ToVector(), dense_src);
  for (VertexId x : dense_src) EXPECT_TRUE(dense.Contains(x));
}

TEST(HybridVertexSetTest, TakeVectorFromEveryRepresentation) {
  Rng rng(29);
  const VertexSet src = RandomSet(rng, 300, 0.4);
  HybridVertexSet view = HybridVertexSet::View(&src, 0);
  EXPECT_EQ(view.TakeVector(), src);

  HybridVertexSet owned = HybridVertexSet::FromVector(src, 0, nullptr);
  EXPECT_EQ(owned.TakeVector(), src);
  EXPECT_TRUE(owned.empty());  // consumed

  HybridVertexSet dense = HybridVertexSet::FromVector(src, 300, nullptr);
  ASSERT_TRUE(dense.dense());
  EXPECT_EQ(dense.TakeVector(), src);
}

/// The core contract: Intersect/IntersectSize match the sorted-vector
/// reference for every representation pairing, at every density x skew.
TEST(HybridVertexSetTest, IntersectionMatchesReferenceAcrossDensities) {
  Rng rng(41);
  const VertexId universe = 2048;
  const double densities[] = {0.002, 0.01, 0.04, 0.06, 0.3, 0.8};
  for (double da : densities) {
    for (double db : densities) {
      const VertexSet a = RandomSet(rng, universe, da);
      const VertexSet b = RandomSet(rng, universe, db);
      VertexSet want;
      SortedIntersect(a, b, &want);
      ASSERT_EQ(SortedIntersectSize(a, b), want.size());

      // All four representation pairings (hybrid x hybrid, and the
      // universe-0 sparse pin) must agree with the reference.
      struct Pairing {
        VertexId ua, ub;
      };
      for (const Pairing& p :
           {Pairing{universe, universe}, Pairing{universe, 0},
            Pairing{0, universe}, Pairing{0, 0}}) {
        SetOpStats stats;
        HybridVertexSet ha = HybridVertexSet::FromVector(a, p.ua, &stats);
        HybridVertexSet hb = HybridVertexSet::FromVector(b, p.ub, &stats);
        HybridVertexSet out;
        HybridVertexSet::Intersect(ha, hb, &out, &stats);
        EXPECT_EQ(out.ToVector(), want)
            << "da=" << da << " db=" << db << " ua=" << p.ua
            << " ub=" << p.ub;
        EXPECT_EQ(out.size(), want.size());
        EXPECT_EQ(HybridVertexSet::IntersectSize(ha, hb, &stats),
                  want.size());
        // The result representation follows the density rule.
        EXPECT_EQ(out.dense(),
                  HybridVertexSet::ShouldBeDense(out.size(), out.universe()));
      }
    }
  }
}

TEST(HybridVertexSetTest, IntersectionOfSkewedPairsGallops) {
  Rng rng(43);
  const VertexSet big = RandomSet(rng, 100000, 0.02);  // sparse, large
  const VertexSet small{5, 777, 40000, 99999};
  VertexSet want;
  SortedIntersect(big, small, &want);

  SetOpStats stats;
  const HybridVertexSet hb = HybridVertexSet::View(&big, 100000);
  const HybridVertexSet hs = HybridVertexSet::View(&small, 100000);
  HybridVertexSet out;
  HybridVertexSet::Intersect(hb, hs, &out, &stats);
  EXPECT_EQ(out.ToVector(), want);
  EXPECT_EQ(stats.galloping_intersections, 1u);
  EXPECT_EQ(stats.bitmap_intersections, 0u);
}

TEST(HybridVertexSetTest, KernelCountersAreDeterministic) {
  // The same op sequence must produce the same counters every time — the
  // miners rely on it for thread-count-independent totals.
  Rng rng(47);
  const VertexSet a = RandomSet(rng, 1024, 0.3);
  const VertexSet b = RandomSet(rng, 1024, 0.1);
  const VertexSet c = RandomSet(rng, 1024, 0.002);
  SetOpStats first, second;
  for (SetOpStats* stats : {&first, &second}) {
    HybridVertexSet ha = HybridVertexSet::FromVector(a, 1024, stats);
    HybridVertexSet hb = HybridVertexSet::FromVector(b, 1024, stats);
    HybridVertexSet hc = HybridVertexSet::FromVector(c, 1024, stats);
    HybridVertexSet out;
    HybridVertexSet::Intersect(ha, hb, &out, stats);  // dense x dense
    HybridVertexSet::Intersect(ha, hc, &out, stats);  // dense x sparse
    HybridVertexSet::Intersect(hb, hc, &out, stats);  // dense x sparse
  }
  EXPECT_EQ(first.bitmap_intersections, second.bitmap_intersections);
  EXPECT_EQ(first.galloping_intersections, second.galloping_intersections);
  EXPECT_EQ(first.dense_conversions, second.dense_conversions);
  EXPECT_EQ(first.bitmap_intersections, 3u);
  EXPECT_EQ(first.dense_conversions, 2u);  // a and b went dense

  SetOpStats merged;
  merged.MergeFrom(first);
  merged.MergeFrom(second);
  EXPECT_EQ(merged.bitmap_intersections, 6u);
  EXPECT_EQ(merged.dense_conversions, 4u);
}

TEST(HybridVertexSetTest, EmptyAndSelfIntersections) {
  const VertexSet empty;
  const VertexSet v{1, 2, 3};
  HybridVertexSet he = HybridVertexSet::View(&empty, 100);
  HybridVertexSet hv = HybridVertexSet::View(&v, 100);
  HybridVertexSet out;
  HybridVertexSet::Intersect(he, hv, &out, nullptr);
  EXPECT_TRUE(out.empty());
  HybridVertexSet::Intersect(hv, hv, &out, nullptr);
  EXPECT_EQ(out.ToVector(), v);
  EXPECT_EQ(HybridVertexSet::IntersectSize(he, he, nullptr), 0u);
}

TEST(HybridVertexSetTest, AppendToAppends) {
  Rng rng(53);
  const VertexSet v = RandomSet(rng, 256, 0.5);
  HybridVertexSet dense = HybridVertexSet::FromVector(v, 256, nullptr);
  ASSERT_TRUE(dense.dense());
  VertexSet out{7};
  dense.AppendTo(&out);
  ASSERT_EQ(out.size(), v.size() + 1);
  EXPECT_EQ(out.front(), 7u);
  EXPECT_TRUE(std::equal(v.begin(), v.end(), out.begin() + 1));
}

}  // namespace
}  // namespace scpm
