// Tests for the work-stealing thread pool: recursive fork/join from
// inside tasks (the old submit-and-wait deadlock case), WaitFor
// semantics under contention, group reuse, and worker identity.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/cancel.h"

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace scpm {
namespace {

TEST(ThreadPoolSpawnTest, GroupedTasksAllRun) {
  ThreadPool pool(4);
  ThreadPool::TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Spawn(&group, [&counter] { counter.fetch_add(1); });
  }
  pool.WaitFor(&group);
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolSpawnTest, WaitForOnlyWaitsForItsGroup) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup fast, slow;
  std::atomic<bool> release{false};
  std::atomic<int> fast_done{0};
  pool.Spawn(&slow, [&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 10; ++i) {
    pool.Spawn(&fast, [&fast_done] { fast_done.fetch_add(1); });
  }
  pool.WaitFor(&fast);  // Must not require the slow group to finish.
  EXPECT_EQ(fast_done.load(), 10);
  release.store(true);
  pool.WaitFor(&slow);
}

// The case the pre-work-stealing pool documented as forbidden: a task that
// submits children to the same pool and blocks on them. With one worker
// this deadlocks unless the waiting task helps execute its children.
TEST(ThreadPoolSpawnTest, RecursiveWaitOnSingleWorkerDoesNotDeadlock) {
  ThreadPool pool(1);
  ThreadPool::TaskGroup outer;
  std::atomic<int> leaves{0};
  pool.Spawn(&outer, [&] {
    ThreadPool::TaskGroup inner;
    for (int i = 0; i < 8; ++i) {
      pool.Spawn(&inner, [&leaves] { leaves.fetch_add(1); });
    }
    pool.WaitFor(&inner);
  });
  pool.WaitFor(&outer);
  EXPECT_EQ(leaves.load(), 8);
}

/// Recursive fork/join over a binary tree, returning the leaf count
/// through per-node accumulators; exercises nested WaitFor at every level.
int CountLeaves(ThreadPool& pool, int depth) {
  if (depth == 0) return 1;
  int left = 0, right = 0;
  ThreadPool::TaskGroup children;
  pool.Spawn(&children,
             [&pool, &left, depth] { left = CountLeaves(pool, depth - 1); });
  pool.Spawn(&children,
             [&pool, &right, depth] { right = CountLeaves(pool, depth - 1); });
  pool.WaitFor(&children);
  return left + right;
}

class ThreadPoolRecursionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolRecursionSweep, NestedForkJoinComputesTreeSize) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  int total = 0;
  ThreadPool::TaskGroup root;
  pool.Spawn(&root, [&pool, &total] { total = CountLeaves(pool, 7); });
  pool.WaitFor(&root);
  EXPECT_EQ(total, 128);
}

INSTANTIATE_TEST_SUITE_P(Workers, ThreadPoolRecursionSweep,
                         ::testing::Values(1, 2, 3, 8));

TEST(ThreadPoolSpawnTest, GroupIsReusableAfterDraining) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group;
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Spawn(&group, [&counter] { counter.fetch_add(1); });
    }
    pool.WaitFor(&group);
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolSpawnTest, InterleavedGroupsEachDrain) {
  ThreadPool pool(3);
  ThreadPool::TaskGroup first, second;
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Spawn(&first, [&counter] { counter.fetch_add(1); });
    pool.Spawn(&second, [&counter] { counter.fetch_add(1); });
  }
  pool.WaitFor(&first);
  pool.WaitFor(&second);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolSpawnTest, TasksSpawnedDuringShutdownStillDrain) {
  std::atomic<int> counter{0};
  {
    // Declared before the pool: the pool destructor drains tasks that
    // still spawn into (and complete against) this group.
    ThreadPool::TaskGroup group;
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Spawn(&group, [&pool, &group, &counter] {
        counter.fetch_add(1);
        pool.Spawn(&group, [&counter] { counter.fetch_add(1); });
      });
    }
    // Destructor must drain both generations before joining.
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolDeadlineTest, WaitForUntilDrainsFastGroups) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Spawn(&group, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_TRUE(pool.WaitForUntil(
      &group, std::chrono::steady_clock::now() + std::chrono::seconds(30)));
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolDeadlineTest, WaitForUntilTimesOutAndTokenUnblocks) {
  // The drain-with-budget protocol of the frontier engine: a bounded
  // wait times out on a stuck group, the caller latches the cancel token
  // the tasks poll, and the plain WaitFor then drains promptly.
  ThreadPool pool(2);
  ThreadPool::TaskGroup group;
  CancelToken token;
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i) {
    pool.Spawn(&group, [&token, &finished] {
      std::uint32_t tick = 0;
      while (!token.ShouldStop(&tick)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      finished.fetch_add(1);
    });
  }
  EXPECT_FALSE(pool.WaitForUntil(
      &group,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20)));
  token.RequestCancel();
  pool.WaitFor(&group);
  EXPECT_EQ(finished.load(), 4);
}

TEST(ThreadPoolIdentityTest, WorkerIndexInsideAndOutside) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.current_worker_index(), -1);
  std::atomic<int> bad{0};
  ThreadPool::TaskGroup group;
  for (int i = 0; i < 60; ++i) {
    pool.Spawn(&group, [&pool, &bad] {
      const int index = pool.current_worker_index();
      if (index < 0 || index >= 3) bad.fetch_add(1);
    });
  }
  pool.WaitFor(&group);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pool.current_worker_index(), -1);
}

TEST(ThreadPoolIdentityTest, ForeignPoolIsNotMistakenForOwn) {
  ThreadPool a(2), b(2);
  std::atomic<int> bad{0};
  ThreadPool::TaskGroup group;
  a.Spawn(&group, [&b, &bad] {
    if (b.current_worker_index() != -1) bad.fetch_add(1);
  });
  a.WaitFor(&group);
  EXPECT_EQ(bad.load(), 0);
}

// ------------------------------------------------- parallelism budget

TEST(ParallelismBudgetTest, BorrowAndReturn) {
  ParallelismBudget budget(2);
  EXPECT_EQ(budget.available(), 2u);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.available(), 0u);
  budget.Release();
  EXPECT_TRUE(budget.TryAcquire());
  budget.Release();
  budget.Release();
  EXPECT_EQ(budget.available(), 2u);
}

TEST(ParallelismBudgetTest, ZeroSlotBudgetNeverGrants) {
  ParallelismBudget budget(0);
  EXPECT_FALSE(budget.TryAcquire());
}

// A budget shared by concurrent pool tasks: the number of simultaneous
// holders can never exceed the slot count, failed acquires run inline,
// and every borrowed slot comes back (the miner's borrowing pattern).
TEST(ParallelismBudgetTest, SharedAcrossPoolTasksBoundsConcurrency) {
  ThreadPool pool(4);
  ParallelismBudget budget(3);
  std::atomic<int> holders{0};
  std::atomic<int> max_holders{0};
  std::atomic<int> borrowed{0};
  std::atomic<int> inline_runs{0};
  ThreadPool::TaskGroup group;
  for (int i = 0; i < 300; ++i) {
    pool.Spawn(&group, [&] {
      if (!budget.TryAcquire()) {
        inline_runs.fetch_add(1);
        return;
      }
      borrowed.fetch_add(1);
      const int now = holders.fetch_add(1) + 1;
      int seen = max_holders.load();
      while (now > seen && !max_holders.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::yield();
      holders.fetch_sub(1);
      budget.Release();
    });
  }
  pool.WaitFor(&group);
  EXPECT_LE(max_holders.load(), 3);
  EXPECT_EQ(borrowed.load() + inline_runs.load(), 300);
  EXPECT_GT(borrowed.load(), 0);
  EXPECT_EQ(budget.available(), 3u);
}

// Heavy mixed load: external waits racing helping waits, uneven task
// sizes so stealing actually rebalances.
TEST(ThreadPoolStressTest, ContendedForkJoin) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  ThreadPool::TaskGroup top;
  for (int i = 0; i < 16; ++i) {
    pool.Spawn(&top, [&pool, &sum, i] {
      ThreadPool::TaskGroup nested;
      const int fanout = 1 + (i % 7);
      for (int j = 0; j < fanout; ++j) {
        pool.Spawn(&nested, [&sum, j] {
          long local = 0;
          for (int k = 0; k <= j * 1000; ++k) local += k % 13;
          sum.fetch_add(local + 1);
        });
      }
      pool.WaitFor(&nested);
    });
  }
  pool.WaitFor(&top);
  long expected = 0;
  for (int i = 0; i < 16; ++i) {
    const int fanout = 1 + (i % 7);
    for (int j = 0; j < fanout; ++j) {
      long local = 0;
      for (int k = 0; k <= j * 1000; ++k) local += k % 13;
      expected += local + 1;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace scpm
