// Unit tests for src/nullmodel: binomial helpers, the analytical max-exp
// bound (Theorem 2), and the simulation model.

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "nullmodel/binomial.h"
#include "nullmodel/expectation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace scpm {
namespace {

// -------------------------------------------------------------- Binomial

TEST(BinomialTest, LogCoefficientSmallValues) {
  EXPECT_DOUBLE_EQ(LogBinomialCoefficient(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(LogBinomialCoefficient(5, 5), 0.0);
  EXPECT_NEAR(LogBinomialCoefficient(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(LogBinomialCoefficient(10, 3), std::log(120.0), 1e-12);
}

TEST(BinomialTest, PmfSumsToOne) {
  for (double p : {0.1, 0.5, 0.9}) {
    double sum = 0;
    for (std::uint64_t k = 0; k <= 20; ++k) sum += BinomialPmf(20, k, p);
    EXPECT_NEAR(sum, 1.0, 1e-12) << p;
  }
}

TEST(BinomialTest, PmfEdgeCases) {
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 9, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 11, 0.5), 0.0);
}

TEST(BinomialTest, TailEdgeCases) {
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 11, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialTailAtLeast(10, 3, 1.0), 1.0);
}

TEST(BinomialTest, TailMatchesDirectSum) {
  for (double p : {0.05, 0.3, 0.7}) {
    for (std::uint64_t z = 1; z <= 12; ++z) {
      double direct = 0;
      for (std::uint64_t k = z; k <= 12; ++k) {
        direct += BinomialPmf(12, k, p);
      }
      EXPECT_NEAR(BinomialTailAtLeast(12, z, p), direct, 1e-12)
          << "p=" << p << " z=" << z;
    }
  }
}

TEST(BinomialTest, TailMonotoneInP) {
  double prev = 0.0;
  for (double p = 0.05; p < 1.0; p += 0.05) {
    const double tail = BinomialTailAtLeast(30, 8, p);
    EXPECT_GE(tail, prev - 1e-12);
    prev = tail;
  }
}

// --------------------------------------------------------------- max-exp

Graph TestGraph(int seed, VertexId n = 300, double avg_degree = 6.0) {
  Rng rng(seed);
  Result<Graph> g = ChungLu(PowerLawWeights(n, 2.5, avg_degree), rng);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(MaxExpTest, ZeroForDegenerateSupports) {
  Graph g = TestGraph(1);
  MaxExpectationModel model(g, {.gamma = 0.5, .min_size = 4});
  EXPECT_DOUBLE_EQ(model.Expectation(0), 0.0);
  EXPECT_DOUBLE_EQ(model.Expectation(1), 0.0);
}

TEST(MaxExpTest, MonotoneNonDecreasingInSupport) {
  Graph g = TestGraph(2);
  MaxExpectationModel model(g, {.gamma = 0.5, .min_size = 5});
  double prev = 0.0;
  for (std::size_t support = 2; support <= 300; support += 7) {
    const double e = model.Expectation(support);
    EXPECT_GE(e, prev - 1e-15) << support;
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
    prev = e;
  }
}

TEST(MaxExpTest, FullSupportBoundsDegreeFraction) {
  // With support == |V|, rho == 1 and the bound equals the fraction of
  // vertices with degree >= z.
  Graph g = TestGraph(3);
  const QuasiCliqueParams params{.gamma = 0.5, .min_size = 5};
  MaxExpectationModel model(g, params);
  const std::uint32_t z = params.RequiredDegree(params.min_size);
  std::size_t count = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) >= z) ++count;
  }
  EXPECT_NEAR(model.Expectation(g.NumVertices()),
              static_cast<double>(count) / g.NumVertices(), 1e-9);
}

TEST(MaxExpTest, TighterQuasiCliqueParamsLowerExpectation) {
  Graph g = TestGraph(4);
  MaxExpectationModel loose(g, {.gamma = 0.5, .min_size = 4});
  MaxExpectationModel tight(g, {.gamma = 0.8, .min_size = 8});
  for (std::size_t support : {50u, 100u, 200u}) {
    EXPECT_LE(tight.Expectation(support), loose.Expectation(support) + 1e-12);
  }
}

TEST(MaxExpTest, CachedValueStable) {
  Graph g = TestGraph(5);
  MaxExpectationModel model(g, {.gamma = 0.5, .min_size = 4});
  const double a = model.Expectation(77);
  const double b = model.Expectation(77);
  EXPECT_DOUBLE_EQ(a, b);
}

// --------------------------------------------------------------- sim-exp

TEST(SimExpTest, ZeroWhenGraphTooSparse) {
  // Empty graph: no quasi-clique can exist in any sample.
  Graph g(100);
  SimExpectationModel model(g, {.gamma = 0.5, .min_size = 4}, 5, 1);
  EXPECT_DOUBLE_EQ(model.Expectation(50), 0.0);
}

TEST(SimExpTest, OneOnCompleteGraphFullSample) {
  Rng rng(1);
  Result<Graph> g = ErdosRenyi(12, 1.0, rng);
  ASSERT_TRUE(g.ok());
  SimExpectationModel model(*g, {.gamma = 0.5, .min_size = 3}, 3, 2);
  EXPECT_DOUBLE_EQ(model.Expectation(12), 1.0);
}

TEST(SimExpTest, BoundedBelowByZeroAboveByOne) {
  Graph g = TestGraph(6, 80, 6.0);
  SimExpectationModel model(g, {.gamma = 0.5, .min_size = 3}, 10, 3);
  for (std::size_t support : {10u, 30u, 50u, 80u}) {
    const double e = model.Expectation(support);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

TEST(SimExpTest, EstimateReportsStddev) {
  Graph g = TestGraph(7, 120, 8.0);
  SimExpectationModel model(g, {.gamma = 0.5, .min_size = 3}, 20, 4);
  const auto est = model.EstimateWithStddev(60);
  EXPECT_GE(est.stddev, 0.0);
  EXPECT_GE(est.mean, 0.0);
}

TEST(SimExpTest, EstimatesIndependentOfQueryOrder) {
  // Parallel SCPM first-touches supports in thread-timing order; each
  // support must draw from its own seed-derived stream so the estimate is
  // the same whatever was queried before it.
  Graph g = TestGraph(12, 80, 6.0);
  const QuasiCliqueParams params{.gamma = 0.5, .min_size = 3};
  SimExpectationModel forward(g, params, 8, 77);
  SimExpectationModel backward(g, params, 8, 77);
  const std::vector<std::size_t> supports = {10, 20, 35, 50, 65, 80};
  std::vector<double> a;
  for (std::size_t s : supports) a.push_back(forward.Expectation(s));
  std::vector<double> b(supports.size());
  for (std::size_t i = supports.size(); i-- > 0;) {
    b[i] = backward.Expectation(supports[i]);
  }
  for (std::size_t i = 0; i < supports.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "support " << supports[i];
  }
}

TEST(MaxExpTest, ThreadSafeConcurrentAccess) {
  Graph g = TestGraph(9);
  MaxExpectationModel model(g, {.gamma = 0.5, .min_size = 4});
  // Reference values computed single-threaded.
  std::vector<double> want;
  for (std::size_t s = 2; s < 100; s += 3) want.push_back(model.Expectation(s));

  MaxExpectationModel fresh(g, {.gamma = 0.5, .min_size = 4});
  std::vector<double> got(want.size());
  {
    ThreadPool pool(4);
    ThreadPool::TaskGroup group;
    for (std::size_t i = 0; i < want.size(); ++i) {
      pool.Spawn(&group,
                 [&fresh, &got, i] { got[i] = fresh.Expectation(2 + 3 * i); });
    }
    pool.WaitFor(&group);
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << i;
  }
}

/// The paper's headline relationship (§2.1.3): the analytical bound
/// dominates the simulated expectation, hence delta_lb <= delta_sim.
class MaxDominatesSimSweep : public ::testing::TestWithParam<int> {};

TEST_P(MaxDominatesSimSweep, MaxExpIsUpperBound) {
  Graph g = TestGraph(GetParam(), 100, 6.0);
  const QuasiCliqueParams params{.gamma = 0.5, .min_size = 4};
  MaxExpectationModel max_model(g, params);
  SimExpectationModel sim_model(g, params, 15, GetParam() + 100);
  for (std::size_t support : {15u, 40u, 70u, 100u}) {
    const double sim = sim_model.Expectation(support);
    const double bound = max_model.Expectation(support);
    // Allow tiny Monte-Carlo slack.
    EXPECT_LE(sim, bound + 0.05) << "support " << support;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxDominatesSimSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace scpm
