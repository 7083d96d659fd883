#include "pdr/obs/slo.h"

#include <algorithm>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/resilience/admission.h"
#include "pdr/resilience/executor.h"

namespace pdr {
namespace {

Counter& AlertCounter(const char* signal) {
  return MetricsRegistry::Global().GetCounter(
      WithLabel("pdr.slo.alerts", "signal", signal));
}

Gauge& BurnGauge(const char* signal, const char* window) {
  return MetricsRegistry::Global().GetGauge(WithLabel(
      std::string("pdr.slo.burn_") + window, "signal", signal));
}

}  // namespace

void SloMonitor::Window::Push(bool is_bad) {
  if (bits.empty()) bits.assign(static_cast<size_t>(capacity), 0);
  uint8_t& slot = bits[static_cast<size_t>(next)];
  if (count >= capacity) bad -= slot;  // evict the overwritten bit
  slot = is_bad ? 1 : 0;
  bad += slot;
  next = (next + 1) % capacity;
  ++count;
}

double SloMonitor::Window::BadFraction() const {
  const int64_t n = std::min<int64_t>(count, capacity);
  return n > 0 ? static_cast<double>(bad) / static_cast<double>(n) : 0.0;
}

SloMonitor::SloMonitor(const Options& options) : options_(options) {
  if (options_.short_window < 1) options_.short_window = 1;
  if (options_.long_window < options_.short_window) {
    options_.long_window = options_.short_window;
  }
  if (options_.target >= 1.0) options_.target = 0.999;
  if (options_.admission_backoff < 2) options_.admission_backoff = 2;
  signals_.reserve(4);
  signals_.emplace_back("latency", options_);
  signals_.emplace_back("degraded", options_);
  signals_.emplace_back("shed", options_);
  signals_.emplace_back("audit", options_);
}

void SloMonitor::OnSample(double elapsed_ms, AnswerTier tier, bool shed) {
  ++samples_;
  if (options_.latency_slo_ms > 0.0) {
    Feed(&signals_[0], elapsed_ms > options_.latency_slo_ms);
  }
  Feed(&signals_[1], !shed && tier != AnswerTier::kExact);
  Feed(&signals_[2], shed);
  MaybeRecover();
}

void SloMonitor::OnAudit(double precision, double recall) {
  Feed(&signals_[3], precision < kMinAuditPrecision ||
                         recall < options_.min_audit_recall);
  MaybeRecover();
}

void SloMonitor::Feed(Signal* signal, bool bad) {
  signal->short_w.Push(bad);
  signal->long_w.Push(bad);
  const double budget = Budget();
  const double burn_short = signal->short_w.BadFraction() / budget;
  const double burn_long = signal->long_w.BadFraction() / budget;
  BurnGauge(signal->name, "short").Set(burn_short);
  BurnGauge(signal->name, "long").Set(burn_long);
  if (signal->latched) return;
  // Both windows must be full and burning: the short window alone would
  // alert on one slow tick right after construction, the long window
  // alone would alert an hour after the incident ended.
  if (signal->short_w.count < signal->short_w.capacity) return;
  if (signal->long_w.count < signal->long_w.capacity) return;
  if (burn_short >= options_.burn_alert && burn_long >= options_.burn_alert) {
    Raise(signal);
  }
}

void SloMonitor::Raise(Signal* signal) {
  signal->latched = true;
  const double budget = Budget();
  Alert alert;
  alert.signal = signal->name;
  alert.burn_short = signal->short_w.BadFraction() / budget;
  alert.burn_long = signal->long_w.BadFraction() / budget;
  alert.sample = samples_;
  alerts_.push_back(alert);
  AlertCounter(signal->name).Increment();
  // Preserve the incident's event window before it scrolls out of the
  // rings, then shed load at the door until the long window recovers.
  FlightRecorder::Global().TriggerDump(FlightRecorder::kOnSloAlert,
                                       std::string("slo_") + signal->name);
  if (admission_ != nullptr && !admission_tightened_) {
    admission_normal_bound_ = admission_->max_inflight();
    admission_->SetMaxInflight(
        std::max(1, admission_normal_bound_ / options_.admission_backoff));
    admission_tightened_ = true;
  }
  if (hook_) hook_(alerts_.back());
}

void SloMonitor::MaybeRecover() {
  bool any_latched = false;
  for (Signal& signal : signals_) {
    if (!signal.latched) continue;
    // Release when the long window is back under budget (burn < 1): the
    // regression has not just paused, it has been absorbed.
    if (signal.long_w.BadFraction() / Budget() < 1.0) {
      signal.latched = false;
    } else {
      any_latched = true;
    }
  }
  if (!any_latched && admission_tightened_) {
    admission_->SetMaxInflight(admission_normal_bound_);
    admission_tightened_ = false;
  }
}

void SloMonitor::SetAdmission(AdmissionController* admission) {
  if (admission == nullptr && admission_tightened_ && admission_ != nullptr) {
    admission_->SetMaxInflight(admission_normal_bound_);
    admission_tightened_ = false;
  }
  admission_ = admission;
}

bool SloMonitor::alerting() const {
  for (const Signal& signal : signals_) {
    if (signal.latched) return true;
  }
  return false;
}

const SloMonitor::Signal* SloMonitor::Find(const std::string& name) const {
  for (const Signal& signal : signals_) {
    if (name == signal.name) return &signal;
  }
  return nullptr;
}

double SloMonitor::BurnShort(const std::string& signal) const {
  const Signal* s = Find(signal);
  return s != nullptr ? s->short_w.BadFraction() / Budget() : 0.0;
}

double SloMonitor::BurnLong(const std::string& signal) const {
  const Signal* s = Find(signal);
  return s != nullptr ? s->long_w.BadFraction() / Budget() : 0.0;
}

}  // namespace pdr
