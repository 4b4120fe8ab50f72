// Latch: the completion primitive of the task layer.
//
// Constructed with a fixed number of arrivals: count_down() records one,
// wait() blocks until all have arrived.  TaskScheduler::run_all counts its
// bodies with it and TaskBackend::run its rank fibers.  std::latch itself
// is avoided: libstdc++'s implementation uses futexes directly, which the
// TSan fiber annotations in task_backend.cpp cannot see through.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sparts::exec {

class Latch {
 public:
  explicit Latch(std::int64_t count) : count_(count) {
    SPARTS_CHECK(count >= 0, "Latch count must be non-negative");
  }

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// One arrival.  Counting down past zero throws.
  void count_down() {
    std::lock_guard<std::mutex> lock(mutex_);
    SPARTS_CHECK(count_ > 0, "Latch::count_down past zero");
    if (--count_ == 0) cv_.notify_all();
  }

  /// Block until every arrival has happened; returns at once when it has.
  /// Must not be called from a scheduler worker that the counted work
  /// needs to make progress (it would self-deadlock).
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::int64_t count_;
};

}  // namespace sparts::exec
