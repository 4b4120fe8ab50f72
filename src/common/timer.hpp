// Wall-clock timing for host-side measurements (benchmark harness).
// Simulated time lives in simpar::Machine's per-rank clocks, not here.
#pragma once

#include <chrono>

namespace sparts {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer();

  /// Restart the stopwatch.
  void reset();

  /// Seconds elapsed since construction or last reset().
  double seconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sparts
