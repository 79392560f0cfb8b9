// Unit tests for src/util: Status, Result, Rng, sorted-vector set algebra.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include <atomic>

#include "util/fault.h"
#include "util/random.h"
#include "util/result.h"
#include "util/sorted_ops.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace scpm {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad gamma");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad gamma");
  EXPECT_EQ(s.ToString(), "invalid-argument: bad gamma");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SCPM_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnIfErrorPassesOk) {
  auto wrapper = []() -> Status {
    SCPM_RETURN_IF_ERROR(Status::OK());
    return Status::AlreadyExists("reached end");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kAlreadyExists);
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto makes = []() -> Result<int> { return 7; };
  auto fails = []() -> Result<int> { return Status::Internal("x"); };
  auto wrapper = [&](bool fail) -> Status {
    int v = 0;
    if (fail) {
      SCPM_ASSIGN_OR_RETURN(v, fails());
    } else {
      SCPM_ASSIGN_OR_RETURN(v, makes());
    }
    EXPECT_EQ(v, 7);
    return Status::OK();
  };
  EXPECT_TRUE(wrapper(false).ok());
  EXPECT_EQ(wrapper(true).code(), StatusCode::kInternal);
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingTest, SuppressedLevelsDoNotEvaluate) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto count = [&evaluations] {
    ++evaluations;
    return "message";
  };
  SCPM_LOG(Info) << count();     // Below threshold: not evaluated.
  SCPM_LOG(Error) << count();    // At threshold: evaluated.
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(original);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  SCPM_CHECK(1 + 1 == 2) << "never shown";
  SCPM_CHECK_EQ(4, 4);
  SCPM_CHECK_NE(4, 5);
  SCPM_CHECK_LT(4, 5);
  SCPM_CHECK_LE(5, 5);
  SCPM_CHECK_GT(5, 4);
  SCPM_CHECK_GE(5, 5);
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH(SCPM_CHECK(false) << "boom", "Check failed");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedOneIsAlwaysZero) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = rng.NextInt(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= (x == -2);
    saw_hi |= (x == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // LLN sanity
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfWithinSupportAndSkewed) {
  Rng rng(7);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t x = rng.NextZipf(10, 2.0);
    ASSERT_GE(x, 1u);
    ASSERT_LE(x, 10u);
    ++counts[x];
  }
  // Rank 1 should dominate rank 2, which dominates rank 5.
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
}

TEST(RngTest, SampleWithoutReplacementBasics) {
  Rng rng(8);
  const auto sample = rng.SampleWithoutReplacement(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  EXPECT_TRUE(IsStrictlySorted(sample));
  for (auto v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWholeUniverse) {
  Rng rng(9);
  const auto sample = rng.SampleWithoutReplacement(8, 8);
  ASSERT_EQ(sample.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleZero) {
  Rng rng(10);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

class RngSampleSweep : public ::testing::TestWithParam<int> {};

TEST_P(RngSampleSweep, SamplesAreDistinctSortedAndInRange) {
  Rng rng(GetParam());
  const std::uint32_t n = 50 + GetParam() * 13 % 100;
  const std::uint32_t k = n / 3;
  const auto sample = rng.SampleWithoutReplacement(n, k);
  EXPECT_EQ(sample.size(), k);
  EXPECT_TRUE(IsStrictlySorted(sample));
  for (auto v : sample) EXPECT_LT(v, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSampleSweep, ::testing::Range(0, 20));

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ------------------------------------------------------------ sorted ops

using U32 = std::vector<std::uint32_t>;

TEST(SortedOpsTest, IsStrictlySorted) {
  EXPECT_TRUE(IsStrictlySorted(U32{}));
  EXPECT_TRUE(IsStrictlySorted(U32{5}));
  EXPECT_TRUE(IsStrictlySorted(U32{1, 2, 9}));
  EXPECT_FALSE(IsStrictlySorted(U32{1, 1}));
  EXPECT_FALSE(IsStrictlySorted(U32{2, 1}));
}

TEST(SortedOpsTest, IntersectBasics) {
  U32 out;
  SortedIntersect(U32{1, 3, 5, 7}, U32{2, 3, 5, 8}, &out);
  EXPECT_EQ(out, (U32{3, 5}));
  SortedIntersect(U32{}, U32{1}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SortedOpsTest, IntersectGallopingPath) {
  U32 large;
  for (std::uint32_t i = 0; i < 4000; ++i) large.push_back(i * 2);
  U32 small{2, 1000, 3999, 4002, 7998};
  U32 out;
  SortedIntersect(small, large, &out);
  EXPECT_EQ(out, (U32{2, 1000, 4002, 7998}));
  U32 out2;
  SortedIntersect(large, small, &out2);
  EXPECT_EQ(out, out2);
}

TEST(SortedOpsTest, IntersectSizeMatchesIntersect) {
  U32 a{1, 4, 6, 9}, b{4, 5, 6, 10}, out;
  SortedIntersect(a, b, &out);
  EXPECT_EQ(SortedIntersectSize(a, b), out.size());
}

TEST(SortedOpsTest, UnionDifferenceSubset) {
  U32 out;
  SortedUnion(U32{1, 3}, U32{2, 3, 4}, &out);
  EXPECT_EQ(out, (U32{1, 2, 3, 4}));
  SortedDifference(U32{1, 2, 3, 4}, U32{2, 4}, &out);
  EXPECT_EQ(out, (U32{1, 3}));
  EXPECT_TRUE(SortedIsSubset(U32{2, 4}, U32{1, 2, 3, 4}));
  EXPECT_FALSE(SortedIsSubset(U32{2, 5}, U32{1, 2, 3, 4}));
  EXPECT_TRUE(SortedIsSubset(U32{}, U32{}));
}

TEST(SortedOpsTest, InsertEraseContains) {
  U32 v{2, 6};
  EXPECT_TRUE(SortedInsert(&v, 4u));
  EXPECT_FALSE(SortedInsert(&v, 4u));
  EXPECT_EQ(v, (U32{2, 4, 6}));
  EXPECT_TRUE(SortedContains(v, 4u));
  EXPECT_TRUE(SortedErase(&v, 4u));
  EXPECT_FALSE(SortedErase(&v, 4u));
  EXPECT_FALSE(SortedContains(v, 4u));
}

TEST(SortedOpsTest, SortUnique) {
  U32 v{5, 1, 5, 3, 1};
  SortUnique(&v);
  EXPECT_EQ(v, (U32{1, 3, 5}));
}

/// Property test: sorted ops agree with std::set algebra on random inputs.
class SortedOpsSweep : public ::testing::TestWithParam<int> {};

TEST_P(SortedOpsSweep, AgreesWithStdSet) {
  Rng rng(GetParam());
  U32 a, b;
  std::set<std::uint32_t> sa, sb;
  const int na = 1 + static_cast<int>(rng.NextBounded(60));
  const int nb = 1 + static_cast<int>(rng.NextBounded(60));
  for (int i = 0; i < na; ++i) sa.insert(rng.NextBounded(80));
  for (int i = 0; i < nb; ++i) sb.insert(rng.NextBounded(80));
  a.assign(sa.begin(), sa.end());
  b.assign(sb.begin(), sb.end());

  U32 got, want;
  SortedIntersect(a, b, &got);
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(want));
  EXPECT_EQ(got, want);
  EXPECT_EQ(SortedIntersectSize(a, b), want.size());

  want.clear();
  SortedUnion(a, b, &got);
  std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                 std::back_inserter(want));
  EXPECT_EQ(got, want);

  want.clear();
  SortedDifference(a, b, &got);
  std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                      std::back_inserter(want));
  EXPECT_EQ(got, want);

  EXPECT_EQ(SortedIsSubset(a, b),
            std::includes(sb.begin(), sb.end(), sa.begin(), sa.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedOpsSweep, ::testing::Range(0, 30));

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  ThreadPool::TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Spawn(&group, [&counter] { counter.fetch_add(1); });
  }
  pool.WaitFor(&group);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitForIsReusable) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group;
  std::atomic<int> counter{0};
  pool.Spawn(&group, [&counter] { counter.fetch_add(1); });
  pool.WaitFor(&group);
  EXPECT_EQ(counter.load(), 1);
  pool.Spawn(&group, [&counter] { counter.fetch_add(1); });
  pool.WaitFor(&group);
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  ThreadPool::TaskGroup group;
  std::atomic<bool> ran{false};
  pool.Spawn(&group, [&ran] { ran = true; });
  pool.WaitFor(&group);
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    // Declared before the pool, so it outlives the destructor's drain.
    ThreadPool::TaskGroup group;
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Spawn(&group, [&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

// ----------------------------------------------------------------- Timer

TEST(TimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer timer;
  const double t1 = timer.ElapsedSeconds();
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.Reset();
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

// ------------------------------------------------------------ FaultInjector

// Configure() parses the same grammar SCPM_FAULT_SPEC uses, so these
// pin the env-spec contract: whitespace-tolerant, typed rejection.

TEST(FaultSpecTest, TrimsWhitespaceAroundTermsAndTokens) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  ASSERT_TRUE(fi.Configure("  journal-write = 1 ,\tcheckpoint-write=0 ").ok());
  EXPECT_TRUE(fi.armed());
  EXPECT_TRUE(fi.ShouldFail(fault::kCheckpointWrite));   // hit 0
  EXPECT_FALSE(fi.ShouldFail(fault::kJournalWrite));     // hit 0
  EXPECT_TRUE(fi.ShouldFail(fault::kJournalWrite));      // hit 1
  fi.Reset();
}

TEST(FaultSpecTest, MalformedTokensAreTypedErrorsNamingTheToken) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  const struct {
    const char* spec;
    const char* offending;
  } cases[] = {
      {"journal-write", "journal-write"},      // no '='
      {"=3", "'=3'"},                          // no point name
      {"   = 3 ", "'= 3'"},                    // whitespace-only point
      {"journal-write=", "journal-write="},    // empty count
      {"journal-write=x", "journal-write=x"},  // non-numeric count
      {"journal-write=1x", "journal-write=1x"},
      {"a=1,b=oops,c=2", "b=oops"},  // one bad term poisons the spec
  };
  for (const auto& c : cases) {
    const Status status = fi.Configure(c.spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_NE(status.message().find(c.offending), std::string::npos)
        << "expected '" << c.offending << "' in: " << status.message();
    EXPECT_FALSE(fi.armed()) << c.spec;
  }
  fi.Reset();
}

TEST(FaultSpecTest, EmptyAndCommaOnlySpecsDisarmCleanly) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  ASSERT_TRUE(fi.Configure("journal-write=0").ok());
  EXPECT_TRUE(fi.armed());
  ASSERT_TRUE(fi.Configure("").ok());  // replaces previous arming
  EXPECT_FALSE(fi.armed());
  ASSERT_TRUE(fi.Configure(" , ,, ").ok());
  EXPECT_FALSE(fi.armed());
  fi.Reset();
}

TEST(FaultSpecTest, DynamicPointNamesScriptIndependently) {
  // A suffixed name like "socket-send:2" is a point of its own: it must
  // script and count independently of its base name.
  FaultInjector& fi = FaultInjector::Instance();
  fi.Reset();
  ASSERT_TRUE(fi.Configure("socket-send:2=0").ok());
  EXPECT_FALSE(fi.ShouldFail(fault::kSocketSend));
  EXPECT_FALSE(fi.ShouldFail("socket-send:1"));
  EXPECT_TRUE(fi.ShouldFail("socket-send:2"));
  EXPECT_FALSE(fi.ShouldFail("socket-send:2"));  // scripted hits fire once
  fi.Reset();
}

}  // namespace
}  // namespace scpm
