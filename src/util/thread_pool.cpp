#include "util/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "util/metrics.hpp"

namespace dtm {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == kPerCore) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads = hw - 1;  // the caller is the remaining lane
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& t : workers_) t.join();
  // Contract (thread_pool.hpp): task errors must be collected via wait().
  // An error still pending here is a caller bug; throwing from a destructor
  // would std::terminate with no context, so log it (and assert in debug
  // builds) instead of dropping it silently.
  if (first_error_) {
    try {
      std::rethrow_exception(first_error_);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "ThreadPool: task exception was never collected by "
                   "wait(): %s\n",
                   e.what());
    } catch (...) {
      std::fprintf(stderr,
                   "ThreadPool: non-std task exception was never collected "
                   "by wait()\n");
    }
    assert(false && "ThreadPool destroyed with uncollected task exception");
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

ThreadPool& shared_pool() {
  // The one-shot counter records the worker count in bench artifacts so a
  // recorded run documents how wide its parallel phases ran.
  static ThreadPool pool;
  static const bool recorded = [] {
    metrics::count("pool.workers", pool.thread_count());
    return true;
  }();
  (void)recorded;
  return pool;
}

void ThreadPool::worker_loop(std::size_t index) {
  // Phase spans recorded from this thread (ScopedPhaseTimer inside pool
  // tasks) land on a per-worker trace track instead of all piling on "main".
  TraceRecorder::set_thread_track("worker " + std::to_string(index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::unique_lock lock(mutex_);
      --in_flight_;
      if (err && !first_error_) first_error_ = err;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace dtm
