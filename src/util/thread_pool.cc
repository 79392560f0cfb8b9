#include "util/thread_pool.h"

#include <utility>

namespace scpm {

namespace {

/// Identity of the current thread within its owning pool, if any. Set once
/// per worker thread; tasks executed while helping inherit the worker's
/// identity, which is what per-worker state needs.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;

/// RAII registration of a thread about to park on the pool's cv. The
/// count must be raised under the cv mutex (so a notifier that reads a
/// stale zero is ordered before the sleeper's predicate check, which then
/// observes the notifier's state change) and is read without it on the
/// notify fast path.
class ScopedSleeper {
 public:
  explicit ScopedSleeper(std::atomic<std::size_t>* sleepers)
      : sleepers_(sleepers) {
    sleepers_->fetch_add(1);
  }
  ~ScopedSleeper() { sleepers_->fetch_sub(1); }

 private:
  std::atomic<std::size_t>* sleepers_;
};

}  // namespace

bool ParallelismBudget::TryAcquire() {
  std::size_t free = slots_.load(std::memory_order_relaxed);
  while (free > 0) {
    if (slots_.compare_exchange_weak(free, free - 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void ParallelismBudget::Release() {
  slots_.fetch_add(1, std::memory_order_release);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

int ThreadPool::current_worker_index() const {
  return tls_pool == this ? static_cast<int>(tls_index) : -1;
}

void ThreadPool::Spawn(TaskGroup* group, std::function<void()> task) {
  group->pending_.fetch_add(1);
  Enqueue(Task{std::move(task), group});
}

void ThreadPool::Enqueue(Task task) {
  total_pending_.fetch_add(1);
  if (tls_pool == this) {
    Worker& self = *workers_[tls_index];
    std::lock_guard<std::mutex> lock(self.mutex);
    self.deque.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    injection_.push_back(std::move(task));
  }
  epoch_.fetch_add(1);
  // Fast path: nobody is parked, nobody to wake. A thread concurrently
  // about to park raised sleepers_ under mutex_ before its predicate
  // check, so reading 0 here means its check happens after the epoch
  // bump above and it will not sleep.
  if (sleepers_.load() != 0) {
    // Empty critical section: serializes with cv_ waiters between their
    // predicate check and sleep, so the notify cannot be lost.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }
}

bool ThreadPool::TakeTask(std::deque<Task>* deque,
                          const TaskGroup* only_group, bool from_back,
                          Task* out) {
  if (only_group == nullptr) {
    if (deque->empty()) return false;
    if (from_back) {
      *out = std::move(deque->back());
      deque->pop_back();
    } else {
      *out = std::move(deque->front());
      deque->pop_front();
    }
    return true;
  }
  if (from_back) {
    for (auto it = deque->rbegin(); it != deque->rend(); ++it) {
      if (it->group != only_group) continue;
      *out = std::move(*it);
      deque->erase(std::next(it).base());
      return true;
    }
  } else {
    for (auto it = deque->begin(); it != deque->end(); ++it) {
      if (it->group != only_group) continue;
      *out = std::move(*it);
      deque->erase(it);
      return true;
    }
  }
  return false;
}

bool ThreadPool::PopTask(std::size_t self, const TaskGroup* only_group,
                         Task* out) {
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (TakeTask(&own.deque, only_group, /*from_back=*/true, out)) {
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    if (TakeTask(&injection_, only_group, /*from_back=*/false, out)) {
      return true;
    }
  }
  for (std::size_t step = 1; step < workers_.size(); ++step) {
    Worker& victim = *workers_[(self + step) % workers_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (TakeTask(&victim.deque, only_group, /*from_back=*/false, out)) {
      return true;
    }
  }
  return false;
}

void ThreadPool::FinishTask(const Task& task) {
  bool notify = false;
  if (task.group->pending_.fetch_sub(1) == 1) notify = true;
  // The last task overall may release workers parked for shutdown.
  if (total_pending_.fetch_sub(1) == 1) notify = true;
  if (!notify) return;
  // A drained group may release helping workers (cv_) and external
  // waiters (done_cv_) alike.
  if (sleepers_.load() != 0 || external_sleepers_.load() != 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
    done_cv_.notify_all();
  }
}

bool ThreadPool::RunOneTask(std::size_t self, const TaskGroup* only_group) {
  Task task;
  if (!PopTask(self, only_group, &task)) return false;
  task.fn();
  FinishTask(task);
  return true;
}

void ThreadPool::WorkerLoop(std::size_t index) {
  tls_pool = this;
  tls_index = index;
  while (true) {
    const std::uint64_t epoch = epoch_.load();
    if (RunOneTask(index, nullptr)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutting_down_ && total_pending_.load() == 0) return;
    ScopedSleeper sleeper(&sleepers_);
    cv_.wait(lock, [this, epoch] {
      return epoch_.load() != epoch ||
             (shutting_down_ && total_pending_.load() == 0);
    });
  }
}

void ThreadPool::WaitFor(TaskGroup* group) {
  if (tls_pool == this) {
    const std::size_t self = tls_index;
    while (group->pending_.load() != 0) {
      const std::uint64_t epoch = epoch_.load();
      // Help on the awaited group's tasks only: anything else could block
      // in a nested WaitFor of its own and pile unrelated frames on this
      // stack (see the file comment in the header).
      if (RunOneTask(self, group)) continue;
      // None queued: the group's remaining tasks are executing on other
      // workers. Sleep until something completes or new work shows up (a
      // running task of the group may fork into it).
      std::unique_lock<std::mutex> lock(mutex_);
      ScopedSleeper sleeper(&sleepers_);
      cv_.wait(lock, [this, group, epoch] {
        return group->pending_.load() == 0 || epoch_.load() != epoch;
      });
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  ScopedSleeper sleeper(&external_sleepers_);
  done_cv_.wait(lock, [group] { return group->pending_.load() == 0; });
}

bool ThreadPool::WaitForUntil(
    TaskGroup* group, std::chrono::steady_clock::time_point deadline) {
  if (tls_pool == this) {
    const std::size_t self = tls_index;
    while (group->pending_.load() != 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      const std::uint64_t epoch = epoch_.load();
      if (RunOneTask(self, group)) continue;
      std::unique_lock<std::mutex> lock(mutex_);
      ScopedSleeper sleeper(&sleepers_);
      cv_.wait_until(lock, deadline, [this, group, epoch] {
        return group->pending_.load() == 0 || epoch_.load() != epoch;
      });
    }
    return true;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  ScopedSleeper sleeper(&external_sleepers_);
  return done_cv_.wait_until(lock, deadline, [group] {
    return group->pending_.load() == 0;
  });
}

}  // namespace scpm
