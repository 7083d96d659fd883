// SLO burn-rate monitoring over the serving loop.
//
// An SLO is a target fraction of "good" outcomes (e.g. 99% of ticks answer
// at full quality within the latency bound); the error budget is the
// allowed bad fraction (1%). The *burn rate* of a window is
// bad_fraction / error_budget: burn 1.0 spends the budget exactly on
// schedule, burn 10 exhausts it 10x too fast. Following the multi-window
// practice, an alert requires BOTH a short window (fast detection) and a
// long window (noise suppression) to burn above the threshold — a single
// slow tick cannot alert, and a sustained regression alerts within
// short_window samples.
//
// Four independent signals are tracked, one window pair each:
//
//   latency   elapsed_ms above Options::latency_slo_ms (off when 0)
//   degraded  answered below kExact (the tier mix)
//   shed      rejected at admission control
//   audit     sampled shadow-audit verdict below the precision/recall floor
//
// Windows are sample-counted, not wall-clocked, so tests are deterministic
// and a stalled loop cannot silently "recover" by aging samples out.
//
// On a newly raised alert the monitor (1) bumps the labeled
// pdr.slo.alerts counter, (2) triggers a flight-recorder dump
// (Trigger::kOnSloAlert) so the incident's event window is preserved,
// (3) optionally halves an attached AdmissionController's bound to shed
// load at the door, and (4) invokes the user alert hook. When every
// signal's long-window burn drops below 1.0 the alert latch releases and
// the admission bound is restored.
//
// The monitor is deliberately single-threaded (one per serving loop),
// like ShadowAuditor; feed it from the thread that owns the loop.

#ifndef PDR_OBS_SLO_H_
#define PDR_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pdr {

class AdmissionController;
enum class AnswerTier : uint8_t;

class SloMonitor {
 public:
  /// Audit-signal precision floor: a sampled verdict below it is "bad".
  static constexpr double kMinAuditPrecision = 0.5;

  struct Options {
    /// Latency SLO bound in ms; 0 disables the latency signal.
    double latency_slo_ms = 0.0;
    /// Target good fraction; error budget = 1 - target.
    double target = 0.99;
    /// Window sizes in samples (short detects, long confirms).
    int short_window = 32;
    int long_window = 256;
    /// Alert when a signal's short AND long burn reach this multiple of
    /// the budget.
    double burn_alert = 2.0;
    /// Audit-signal recall floor (a sampled verdict below it is "bad").
    double min_audit_recall = 0.9;
    /// Divisor applied to the attached admission bound while alerting.
    int admission_backoff = 2;
  };

  /// One raised alert (also kept in alerts() for inspection).
  struct Alert {
    std::string signal;    ///< "latency" | "degraded" | "shed" | "audit"
    double burn_short = 0.0;
    double burn_long = 0.0;
    int64_t sample = 0;    ///< index of the sample that tripped it
  };

  explicit SloMonitor(const Options& options);

  /// Feeds one completed serving decision (shed ticks included).
  void OnSample(double elapsed_ms, AnswerTier tier, bool shed);

  /// Feeds one sampled shadow-audit verdict.
  void OnAudit(double precision, double recall);

  /// Attaches the admission controller whose bound the monitor may tighten
  /// while alerting (not owned; nullptr detaches and restores the bound).
  void SetAdmission(AdmissionController* admission);

  /// Called once per newly raised alert (after the built-in responses).
  void SetAlertHook(std::function<void(const Alert&)> hook) {
    hook_ = std::move(hook);
  }

  /// True while any signal's alert latch is raised.
  bool alerting() const;

  /// Burn rates of one signal's current windows.
  double BurnShort(const std::string& signal) const;
  double BurnLong(const std::string& signal) const;

  const std::vector<Alert>& alerts() const { return alerts_; }
  int64_t samples() const { return samples_; }
  const Options& options() const { return options_; }

 private:
  /// Fixed-capacity rolling window of bad-bits.
  struct Window {
    explicit Window(int capacity)
        : capacity(capacity < 1 ? 1 : capacity) {}
    void Push(bool bad);
    double BadFraction() const;

    int capacity;
    std::vector<uint8_t> bits;
    int next = 0;
    int64_t count = 0;  ///< total pushes (window is full when >= capacity)
    int64_t bad = 0;    ///< bad bits currently inside the window
  };

  struct Signal {
    Signal(const char* name, const Options& options)
        : name(name),
          short_w(options.short_window),
          long_w(options.long_window) {}
    const char* name;
    Window short_w;
    Window long_w;
    bool latched = false;
  };

  void Feed(Signal* signal, bool bad);
  void Raise(Signal* signal);
  void MaybeRecover();
  const Signal* Find(const std::string& name) const;
  double Budget() const { return 1.0 - options_.target; }

  Options options_;
  std::vector<Signal> signals_;
  std::vector<Alert> alerts_;
  std::function<void(const Alert&)> hook_;
  AdmissionController* admission_ = nullptr;
  int admission_normal_bound_ = 0;  ///< bound to restore on recovery
  bool admission_tightened_ = false;
  int64_t samples_ = 0;
};

}  // namespace pdr

#endif  // PDR_OBS_SLO_H_
