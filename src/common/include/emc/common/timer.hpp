// Wall-clock timing helper for calibration and host-side measurement.
//
// EMC_LINT_ALLOW_FILE(det-clock): this is the sanctioned host-clock
// primitive — it exists so BENCH JSON metrics and measurement-mode
// crypto billing can read wall time in one audited place. Simulated
// paths must charge virtual time instead (sim::Process::advance).
#pragma once

#include <chrono>

namespace emc {

/// Monotonic stopwatch; starts on construction.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Elapsed seconds since construction/reset.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace emc
