#include "exec/thread_pool.hpp"

namespace buffy::exec {

ThreadPool::ThreadPool(unsigned threads) {
  queues_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i]() { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard lock(sleep_mutex_);
    if (stopping_) return;  // idempotent: second caller has nothing to join
    stopping_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // inline mode: the caller is the worker
    return;
  }
  std::size_t target;
  {
    std::lock_guard lock(sleep_mutex_);
    if (stopping_) {
      // Shutdown has begun: a worker that already observed
      // `pending_ == 0 && stopping_` will never re-check its queue, so a
      // task enqueued now could be dropped without running, and a drain
      // waiting for it would hang. Running it inline (outside the lock,
      // below) keeps submit() lossless through the whole shutdown window
      // and preserves the invariant that pending_ never grows once
      // stopping_ is set.
      target = queues_.size();
    } else {
      target = next_queue_;
      next_queue_ = (next_queue_ + 1) % queues_.size();
      ++pending_;
    }
  }
  if (target == queues_.size()) {
    task();
    return;
  }
  {
    std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  sleep_cv_.notify_one();
}

unsigned ThreadPool::default_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& task) {
  // Own queue first, newest task (LIFO)...
  {
    Queue& q = *queues_[self];
    std::lock_guard lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      std::lock_guard sleep_lock(sleep_mutex_);
      --pending_;
      return true;
    }
  }
  // ...then steal the oldest task of a sibling (FIFO).
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    Queue& q = *queues_[(self + i) % queues_.size()];
    std::lock_guard lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      std::lock_guard sleep_lock(sleep_mutex_);
      --pending_;
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(self, task)) {
      task();
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    sleep_cv_.wait(lock, [&]() { return stopping_ || pending_ > 0; });
    if (pending_ == 0 && stopping_) return;
  }
}

}  // namespace buffy::exec
