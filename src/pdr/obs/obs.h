// Observability master switch (and umbrella header for pdr/obs).
//
// The switch below gates metrics (MetricsRegistry counters/gauges/
// histograms): one relaxed atomic op per event, meant to stay on in hot
// paths. Per-query event streams come from the flight recorder
// (flight_recorder.h), which has its own runtime switch.
//
// Compile-time kill switch: configuring with -DPDR_OBS=OFF defines
// PDR_OBS_DISABLED, which pins PdrObs::Enabled() to `false` as a constant
// so every instrumentation site folds away entirely.
//
// Runtime: the master switch defaults to ON; set the environment variable
// PDR_OBS=0 before process start (or call PdrObs::SetEnabled(false)) to
// turn metrics off.

#ifndef PDR_OBS_OBS_H_
#define PDR_OBS_OBS_H_

#include <atomic>

#ifdef PDR_OBS_DISABLED
#define PDR_OBS_COMPILED 0
#else
#define PDR_OBS_COMPILED 1
#endif

namespace pdr {

class PdrObs {
 public:
  /// True when the layer is compiled in (PDR_OBS cmake option).
  static constexpr bool CompiledIn() { return PDR_OBS_COMPILED != 0; }

  /// Master runtime switch. Defaults to the PDR_OBS environment variable
  /// ("0" disables), else on. Always false when compiled out.
  static bool Enabled() {
#if PDR_OBS_COMPILED
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }
  static void SetEnabled(bool on);

 private:
#if PDR_OBS_COMPILED
  static std::atomic<bool> enabled_;
#endif
};

}  // namespace pdr

#include "pdr/obs/registry.h"  // IWYU pragma: export

#endif  // PDR_OBS_OBS_H_
