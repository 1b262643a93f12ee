#include "src/runtime/task_pool.h"

#include <memory>
#include <stdexcept>

#include "src/support/env.h"

namespace sdfmap {

namespace {

/// Index of the pool worker running on this thread, or kNotAWorker. Lets
/// submit() and take_task() prefer the thread's own deque.
constexpr unsigned kNotAWorker = ~0u;
thread_local unsigned t_worker_index = kNotAWorker;

struct GlobalPoolState {
  std::mutex mutex;
  std::unique_ptr<TaskPool> pool;
  unsigned jobs = 0;  // 0 = not yet initialized from the environment
};

GlobalPoolState& global_state() {
  static GlobalPoolState state;
  return state;
}

unsigned jobs_from_environment() {
  return static_cast<unsigned>(read_knob(Knob::kJobs).integer);
}

}  // namespace

TaskPool::TaskPool(unsigned workers) : num_workers_(workers), queues_(workers) {}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void TaskPool::ensure_started() {
  std::lock_guard<std::mutex> lock(start_mutex_);
  if (started_) return;
  started_ = true;
  threads_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void TaskPool::submit(std::function<void()> task) {
  if (num_workers_ == 0) {
    throw std::logic_error("TaskPool::submit: pool has no workers");
  }
  ensure_started();
  // A worker submitting (nested region) feeds its own deque's hot end so the
  // work stays local unless someone steals it; external threads round-robin
  // across the deques to spread the initial load.
  unsigned slot = t_worker_index;
  const bool own = slot != kNotAWorker && slot < num_workers_;
  if (!own) {
    slot = static_cast<unsigned>(submit_cursor_.fetch_add(1, std::memory_order_relaxed) %
                                 num_workers_);
  }
  {
    std::lock_guard<std::mutex> lock(queues_[slot].mutex);
    if (own) {
      queues_[slot].tasks.push_back(std::move(task));
    } else {
      queues_[slot].tasks.push_front(std::move(task));
    }
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

bool TaskPool::take_task(unsigned self, std::function<void()>& out) {
  // Own deque first, hot end (the task most recently pushed by this worker).
  if (self != kNotAWorker) {
    WorkerQueue& own = queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      executed_local_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal from the cold end of a victim, scanning from a rotating start so
  // thieves don't pile onto deque 0.
  const unsigned start = static_cast<unsigned>(
      steal_cursor_.fetch_add(1, std::memory_order_relaxed) % num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    const unsigned victim = (start + i) % num_workers_;
    if (victim == self) continue;
    WorkerQueue& q = queues_[victim];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      executed_stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool TaskPool::try_run_one() {
  if (num_workers_ == 0 || pending_.load(std::memory_order_acquire) == 0) return false;
  std::function<void()> task;
  if (!take_task(t_worker_index, task)) return false;
  task();
  return true;
}

void TaskPool::worker_loop(unsigned self) {
  t_worker_index = self;
  while (true) {
    std::function<void()> task;
    if (take_task(self, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
  }
  t_worker_index = kNotAWorker;
}

TaskPoolCounters TaskPool::counters() const {
  TaskPoolCounters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.executed_local = executed_local_.load(std::memory_order_relaxed);
  c.executed_stolen = executed_stolen_.load(std::memory_order_relaxed);
  return c;
}

TaskPool& TaskPool::global() {
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.jobs == 0) state.jobs = jobs_from_environment();
  if (!state.pool) {
    state.pool = std::make_unique<TaskPool>(state.jobs > 0 ? state.jobs - 1 : 0);
  }
  return *state.pool;
}

void TaskPool::set_global_jobs(unsigned jobs) {
  if (jobs < 1) jobs = 1;
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.jobs == jobs && state.pool) return;
  state.jobs = jobs;
  state.pool.reset();  // rebuilt lazily at the new width
}

unsigned TaskPool::global_jobs() {
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.jobs == 0) state.jobs = jobs_from_environment();
  return state.jobs;
}

unsigned TaskPool::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

}  // namespace sdfmap
