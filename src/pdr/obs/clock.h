// Deterministic clock seam for observability timestamps.
//
// Every obs-layer timestamp (flight-recorder micro-events) flows
// through ObsClock::NowNs() instead of touching steady_clock
// directly. By default that IS the steady clock, so production behavior is
// unchanged; tests install a LogicalClock — a logical tick counter scaled
// by a fixed step plus a monotonic offset — and every dump becomes
// byte-stable: the same event sequence always serializes to the same
// bytes, independent of machine speed or scheduling.
//
// The seam deliberately does NOT touch the Timer/Deadline machinery in
// pdr/common and pdr/resilience: measured query cost and deadline expiry
// stay real wall time (the hexfloat determinism transcripts never include
// timestamps, so they are unaffected either way).
//
// Thread-safety: the source pointer is a single atomic; installed clocks
// must be safe to call from any thread (LogicalClock is — one fetch_add).

#ifndef PDR_OBS_CLOCK_H_
#define PDR_OBS_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace pdr {

/// A source of nanosecond timestamps. Implementations must be monotonic
/// per call site and thread-safe.
class EventClock {
 public:
  virtual ~EventClock() = default;
  virtual int64_t NowNs() = 0;
};

/// The process-wide timestamp seam. With no source installed (the
/// default), NowNs() reads the steady clock.
class ObsClock {
 public:
  static int64_t NowNs() {
    if (EventClock* c = Source().load(std::memory_order_acquire)) {
      return c->NowNs();
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Installs `clock` (not owned; must outlive its installation). nullptr
  /// restores the steady clock.
  static void SetSource(EventClock* clock) {
    Source().store(clock, std::memory_order_release);
  }

  static EventClock* source() {
    return Source().load(std::memory_order_acquire);
  }

 private:
  static std::atomic<EventClock*>& Source() {
    static std::atomic<EventClock*> source{nullptr};
    return source;
  }
};

/// Deterministic test clock: the n-th call (process-wide, any thread)
/// returns offset_ns + n * step_ns. Install via ObsClock::SetSource for
/// byte-stable flight-recorder dumps; single-threaded event sequences then
/// serialize identically on every run.
class LogicalClock : public EventClock {
 public:
  explicit LogicalClock(int64_t offset_ns = 0, int64_t step_ns = 1000)
      : offset_ns_(offset_ns), step_ns_(step_ns) {}

  int64_t NowNs() override {
    return offset_ns_ +
           step_ns_ * static_cast<int64_t>(
                          ticks_.fetch_add(1, std::memory_order_relaxed));
  }

  int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  int64_t offset_ns_;
  int64_t step_ns_;
  std::atomic<int64_t> ticks_{0};
};

/// RAII installation of a clock source (tests).
class ScopedObsClock {
 public:
  explicit ScopedObsClock(EventClock* clock) : prev_(ObsClock::source()) {
    ObsClock::SetSource(clock);
  }
  ~ScopedObsClock() { ObsClock::SetSource(prev_); }

  ScopedObsClock(const ScopedObsClock&) = delete;
  ScopedObsClock& operator=(const ScopedObsClock&) = delete;

 private:
  EventClock* prev_;
};

}  // namespace pdr

#endif  // PDR_OBS_CLOCK_H_
