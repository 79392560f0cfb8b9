// Work-stealing thread pool for recursive task parallelism.
//
// Each worker owns a deque: it pushes and pops spawned tasks at the back
// (LIFO, keeping the working set hot and the traversal depth-first) while
// idle workers steal from the front (FIFO, taking the largest pending
// subtrees). External submissions land on a shared injection queue.
//
// Tasks may fork children and wait for them from inside the pool:
// Spawn(group, fn) enqueues onto the calling worker's own deque and
// WaitFor(group) *helps* — the waiting worker keeps executing queued
// tasks of the awaited group (wherever they sit, including stealing them
// back from other workers) until the group drains, so recursive fork/join
// cannot deadlock the pool. Helping is restricted to the awaited group on
// purpose: the helper only runs work its own wait transitively depends
// on, so the nesting of blocked frames on its stack is bounded by the
// logical fork/join depth, never by how many unrelated sibling subtrees
// happen to be queued.

#ifndef SCPM_UTIL_THREAD_POOL_H_
#define SCPM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace scpm {

/// Cooperative cap on how many extra tasks a recursive computation may
/// keep outstanding on a pool at once. A computation that wants to fork a
/// subtask calls TryAcquire; on success it spawns and must Release when
/// the subtask finishes, on failure it runs the subtask inline. Sharing
/// one budget between sibling computations makes parallelism adaptive:
/// whichever computation currently has work grabs the slots, and a
/// computation whose subtasks finish returns them to its siblings.
///
/// The budget only shapes *where* work executes (pool vs. inline), never
/// *what* work exists, so callers that decompose work deterministically
/// stay deterministic no matter how acquisition races resolve.
class ParallelismBudget {
 public:
  explicit ParallelismBudget(std::size_t slots) : slots_(slots) {}
  ParallelismBudget(const ParallelismBudget&) = delete;
  ParallelismBudget& operator=(const ParallelismBudget&) = delete;

  /// Borrows one slot; returns false (and borrows nothing) when none are
  /// free. Never blocks.
  bool TryAcquire();

  /// Returns a previously acquired slot.
  void Release();

  /// Currently free slots (racy; for tests and diagnostics).
  std::size_t available() const {
    return slots_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> slots_;
};

/// Fixed set of worker threads with per-worker stealing deques.
class ThreadPool {
 public:
  /// Completion counter for one fork/join scope. A group may be waited on
  /// and reused repeatedly; it must outlive every task spawned into it.
  class TaskGroup {
   public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

   private:
    friend class ThreadPool;
    std::atomic<std::size_t> pending_{0};
  };

  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task accounted against `group`. Thread-safe; callable
  /// from worker threads (lands on the caller's own deque) and external
  /// threads alike (lands on the injection queue).
  void Spawn(TaskGroup* group, std::function<void()> task);

  /// Blocks until every task in `group` has finished. When called from a
  /// worker thread of this pool the worker executes the group's queued
  /// tasks while waiting, so tasks can fork-and-join recursively (see the
  /// file comment for why helping is limited to the awaited group).
  void WaitFor(TaskGroup* group);

  /// WaitFor with a drain budget: helps (or parks) only until `deadline`
  /// passes. Returns true when the group drained, false on timeout — in
  /// which case the group's tasks may still be queued or running and the
  /// caller must make them finish (typically by latching a CancelToken
  /// they poll) before waiting again. A worker calling this stops taking
  /// new tasks of the group once the deadline passes, but a task already
  /// being helped runs to completion, so the return may overshoot by one
  /// task body; budget-aware tasks bound that overshoot by polling their
  /// token.
  bool WaitForUntil(TaskGroup* group,
                    std::chrono::steady_clock::time_point deadline);

  /// Index in [0, num_threads()) when called from one of this pool's
  /// workers (including inside a task run while helping), -1 otherwise.
  int current_worker_index() const;

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// One worker's deque. Owner pushes/pops at the back; thieves and the
  /// injection path take from the front.
  struct Worker {
    std::mutex mutex;
    std::deque<Task> deque;
  };

  void WorkerLoop(std::size_t index);
  void Enqueue(Task task);
  /// Takes the newest (from_back) or oldest matching task out of `deque`;
  /// a null `only_group` matches any task. Caller holds the deque's lock.
  static bool TakeTask(std::deque<Task>* deque, const TaskGroup* only_group,
                       bool from_back, Task* out);
  /// Pops a runnable task: own deque back, then injection front, then
  /// steal from victims' fronts. `only_group` non-null restricts the pop
  /// to that group's tasks (the helping path of WaitFor).
  bool PopTask(std::size_t self, const TaskGroup* only_group, Task* out);
  bool RunOneTask(std::size_t self, const TaskGroup* only_group);
  void FinishTask(const Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex injection_mutex_;
  std::deque<Task> injection_;

  // Sleep/wake machinery. Threads that can *run* tasks (workers, and
  // workers helping inside WaitFor) park on cv_; enqueues bump epoch_ and
  // wake them. External threads blocked in WaitFor/WaitForUntil park on
  // done_cv_ and are woken only by completions that drain a group — an
  // enqueue can never satisfy their predicate, so the per-task hot
  // path does not touch them. All waiters re-check predicates against
  // these atomics under mutex_.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> total_pending_{0};
  // Threads parked on cv_ / done_cv_ respectively. Raised under mutex_
  // before the predicate check; read without it on the notify fast paths,
  // which skip the lock + notify entirely when nobody is parked.
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::size_t> external_sleepers_{0};
  bool shutting_down_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace scpm

#endif  // SCPM_UTIL_THREAD_POOL_H_
