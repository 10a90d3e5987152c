// Wall-clock timing utilities.
//
// The paper times distinct *phases of execution* (file read, data structure
// construction, algorithm, output) and criticises Graphalytics for mixing
// them up. Every timed region in this codebase goes through WallTimer so
// phases are measured uniformly across all five systems.
#pragma once

#include <chrono>

namespace epgs {

/// Monotonic wall-clock timer: seconds since construction or reset().
class WallTimer {
 public:
  using clock = std::chrono::steady_clock;

  WallTimer() : start_(clock::now()) {}

  /// Restart the timer from now.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  clock::time_point start_;
};

}  // namespace epgs
