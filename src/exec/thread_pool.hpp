// Work-stealing thread pool (DESIGN.md, exec/).
//
// N workers, each with its own double-ended task queue. A worker pops from
// the back of its own queue (LIFO: hot caches, bounded memory on recursive
// fan-out) and, when empty, steals from the front of a sibling's queue
// (FIFO: steals the oldest — typically largest — piece of work). External
// submissions round-robin across the worker queues. The pool never spins:
// idle workers sleep on a condition variable and are woken per submission.
//
// Tasks are plain `void()` callables that must not throw: buffyd's request
// jobs catch their own errors and answer them on the wire. A ThreadPool
// with zero workers is valid and means "caller runs inline".
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/checked_math.hpp"

namespace buffy::exec {

/// Work-stealing pool; see file comment.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = inline execution; see file comment).
  explicit ThreadPool(unsigned threads);

  /// Drains nothing: outstanding tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Begins shutdown: outstanding tasks complete, workers join. Idempotent;
  /// the destructor calls it. After stop() the pool is still a valid
  /// object — submit() runs tasks inline (see below) — which makes the
  /// shutdown window well-defined instead of a race.
  void stop();

  /// Enqueues a task. The task must not block waiting for another pool
  /// task (the pool does not grow). With zero workers — or once shutdown
  /// has begun — the task runs inline, here: enqueueing after the workers
  /// decided to exit would drop the task.
  void submit(std::function<void()> task);

  [[nodiscard]] unsigned num_workers() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// A sensible worker count for this machine: hardware concurrency,
  /// falling back to 1 when unknown.
  [[nodiscard]] static unsigned default_concurrency();

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  [[nodiscard]] bool try_pop(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<Queue>> queues_;  // one per worker
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::size_t next_queue_ = 0;  // round-robin cursor for submissions
  std::size_t pending_ = 0;     // queued, not-yet-popped tasks
  bool stopping_ = false;       // all three guarded by sleep_mutex_
};

}  // namespace buffy::exec
