// Cooperative cancellation.
//
// The trial supervisor cannot preempt a hung algorithm from outside (the
// systems under test run in-process), so cancellation is cooperative: the
// running system polls its token at iteration boundaries — frontier
// swaps, PageRank iterations, delta-stepping epochs — via checkpoint(),
// which throws CancelledError to unwind the trial. The poll itself reads
// every cause: an explicit cancel() (the RSS sampler, an injected fault),
// the attempt's steady-clock deadline, and the process-wide interrupt
// flag. No thread stands by to turn a deadline or a signal into a flag.
// Checkpoints live only in the serial sections between parallel regions:
// throwing out of an OpenMP worker would terminate the process, exactly
// what the supervisor exists to prevent.
#pragma once

#include <atomic>
#include <chrono>

#include "core/error.hpp"

namespace epgs {

// --- Interrupt flag -------------------------------------------------------
//
// Graceful SIGINT/SIGTERM: the CLI's signal handler records the signal,
// every token reports cancelled at its next poll, and the supervisor
// classifies the unwind as Outcome::kInterrupted — never retried, dropped
// from journal replay so a --resume re-runs the unit from its final
// checkpoint snapshot.

namespace detail {
inline std::atomic<int> g_interrupt_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "request_interrupt must be async-signal-safe");
}  // namespace detail

/// Record that an interrupt signal arrived. Async-signal-safe.
inline void request_interrupt(int signal) noexcept {
  detail::g_interrupt_signal.store(signal, std::memory_order_relaxed);
}

/// The recorded signal number, or 0 when none arrived.
[[nodiscard]] inline int interrupt_signal() noexcept {
  return detail::g_interrupt_signal.load(std::memory_order_relaxed);
}

[[nodiscard]] inline bool interrupt_requested() noexcept {
  return interrupt_signal() != 0;
}

/// Clear the recorded signal (tests).
inline void reset_interrupt() noexcept {
  detail::g_interrupt_signal.store(0, std::memory_order_relaxed);
}

/// An absolute steady-clock deadline, or "none". The serve scheduler
/// stamps one per request from its deadline_ms and consults it at every
/// hand-off (admission, dequeue, reply): expired-before-execution turns
/// into a typed `deadline` reply instead of a queued request the
/// client has already given up on, and remaining_seconds() bounds the
/// trial's timeout so an in-flight kernel is cancelled cooperatively at
/// the same instant. Monotonic by construction — never the system clock.
class Deadline {
 public:
  using clock = std::chrono::steady_clock;

  /// No deadline: never expires, remaining time is unbounded.
  Deadline() = default;

  /// Expire `d` from now; d <= 0 means no deadline.
  template <typename Rep, typename Period>
  [[nodiscard]] static Deadline after(std::chrono::duration<Rep, Period> d) {
    Deadline out;
    if (d.count() > 0) {
      out.enabled_ = true;
      out.at_ = clock::now() + std::chrono::duration_cast<clock::duration>(d);
    }
    return out;
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] bool expired() const noexcept {
    return enabled_ && clock::now() >= at_;
  }

  /// Seconds until expiry, clamped to 0; 0 also when no deadline is set
  /// (callers gate on enabled() to tell the two apart).
  [[nodiscard]] double remaining_seconds() const noexcept {
    if (!enabled_) return 0.0;
    const double s = std::chrono::duration<double>(at_ - clock::now()).count();
    return s > 0.0 ? s : 0.0;
  }

 private:
  bool enabled_ = false;
  clock::time_point at_{};
};

class CancellationToken {
 public:
  CancellationToken() = default;

  /// A token that also reports cancelled once `deadline` has passed.
  explicit CancellationToken(Deadline deadline) : deadline_(deadline) {}

  /// const: cancellers often only hold the observer-side pointer the
  /// System carries (e.g. the deterministic cancel-at-iteration fault).
  void cancel() const noexcept {
    cancelled_.store(true, std::memory_order_release);
  }

  /// True once cancel() was called, the deadline passed, or an interrupt
  /// signal was recorded. The clock is read only when a deadline is set.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire) ||
           interrupt_requested() || deadline_.expired();
  }

  /// Throws CancelledError once cancelled() holds.
  void checkpoint() const {
    if (cancelled()) {
      throw CancelledError("trial cancelled at watchdog deadline");
    }
  }

 private:
  Deadline deadline_;
  mutable std::atomic<bool> cancelled_{false};
};

}  // namespace epgs
