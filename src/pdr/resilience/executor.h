// The graceful-degradation ladder: deadline-bounded PDR answers.
//
// The paper's own FR/PA split (exact filtering-refinement vs. Chebyshev
// approximation, Sections 5-6) is a ready-made quality/latency trade-off;
// this executor exploits it at runtime. A query walks the rungs of
// kLadder in order until one completes within the remaining budget:
//
//   kExact      exact FR answer (filter + plane-sweep refinement), run
//               under the query's deadline/cancel control — unless
//               options().enable_exact is off;
//   kFft        whole-plane density field (src/pdr/fft) — taken only
//               when an FftDensityEngine is attached and q_t lies inside
//               its horizon. `region` is its certainly-dense accept cells
//               and `maybe_region` the accepts+candidates superset; both
//               sandwich the exact answer (DESIGN.md §15). Much tighter
//               than the histogram floor (fine raster vs. the coarse DH
//               grid) and amortized: every query on the same q_t shares
//               one cached summed-area table;
//   kApprox     PA branch-and-bound over the Chebyshev density model —
//               taken only when a fallback PA engine is attached, its
//               fixed l matches the query's l, and q_t lies inside its
//               horizon; also deadline-controlled;
//   kHistogram  the filter step alone. `region` is the *pessimistic*
//               answer (accepted cells only) — sound by Algorithm 1, so
//               it never contains a non-dense point (no false accepts) —
//               and `maybe_region` the optimistic accepts+candidates
//               superset that conservatively contains every dense point.
//               This floor is a bounded O(m^2) histogram scan and is never
//               cancelled: it is the ladder's final work quantum, so every
//               query returns within budget + one quantum.
//
// (kShed is stamped by callers that shed a query at admission control
// before the ladder ever ran.)
//
// One failure rule covers every rung: a cancelled (deadline / token),
// storage-exhausted or corruption-hit rung records an uncompleted stage,
// names the downgrade reason if it is the query's first failure, and the
// walk continues — or, with degrade = false, the error propagates to the
// caller, which is the right behavior for batch jobs that prefer failure
// over approximation.
//
// Every result is stamped with its achieved tier, elapsed wall time, and
// the budget it ran under; tier counts and downgrade totals are exported
// through the metrics registry (pdr.resilience.*).

#ifndef PDR_RESILIENCE_EXECUTOR_H_
#define PDR_RESILIENCE_EXECUTOR_H_

#include <cstdint>

#include "pdr/common/region.h"
#include "pdr/common/stats.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/pa_engine.h"
#include "pdr/obs/explain.h"
#include "pdr/resilience/deadline.h"

namespace pdr {

class FftDensityEngine;

/// The quality tier a deadline-bounded query achieved. kFft is appended
/// after kShed so the tier bytes baked into workload-log digests and
/// golden fixtures keep their values; the walk order is kLadder, not
/// enum order.
enum class AnswerTier : uint8_t {
  kExact = 0,      ///< exact FR answer
  kApprox = 1,     ///< PA Chebyshev approximation
  kHistogram = 2,  ///< filter-only conservative bounds
  kShed = 3,       ///< rejected at admission control; no fresh answer
  kFft = 4,        ///< whole-plane density-field sandwich (src/pdr/fft)
};

/// The ladder's rungs in walk order; the histogram floor always serves.
inline constexpr AnswerTier kLadder[] = {AnswerTier::kExact, AnswerTier::kFft,
                                         AnswerTier::kApprox,
                                         AnswerTier::kHistogram};

const char* AnswerTierName(AnswerTier tier);

/// Why a query ended below kExact. Distinguishes overload (deadline,
/// shed) from storage trouble (transient-retry exhaustion, unrepairable
/// page corruption) so the SLO monitor and operators can tell the
/// failure domains apart.
enum class DowngradeReason : uint8_t {
  kNone = 0,        ///< answered at kExact
  kDeadline = 1,    ///< a rung was cancelled by the budget / cancel token
  kShed = 2,        ///< rejected at admission control (stamped by callers)
  kTransient = 3,   ///< storage transient-retry exhaustion on a rung
  kDisabled = 4,    ///< the exact rung was switched off by policy
  kCorruption = 5,  ///< an unrepairable page made the exact rung unsafe
};

const char* DowngradeReasonName(DowngradeReason reason);

struct ResilienceOptions {
  /// Per-query latency budget in milliseconds; <= 0 means unbounded.
  double deadline_ms = 0.0;
  /// Bound on concurrently admitted queries; <= 0 disables admission
  /// control. (Consumed by PdrMonitor / serving loops, not the ladder.)
  int max_inflight = 0;
  /// Walk the ladder on a rung failure. false: the rung's error
  /// (CancelledError, TransientExhaustedError, CorruptionError) propagates
  /// instead of degrading.
  bool degrade = true;
  /// Exact-rung toggle: a server may pin a cheaper tier under sustained
  /// overload (and tests use it to reach a rung deterministically). The
  /// other rungs run when their engine is attached.
  bool enable_exact = true;
};

/// A deadline-bounded answer, stamped with how it was obtained.
struct TieredResult {
  Region region;  ///< the answer at `tier` (kHistogram/kFft: certainly-dense)
  /// kHistogram and kFft only: optimistic accepts+candidates superset —
  /// every dense point lies inside it. Empty at other tiers.
  Region maybe_region;
  CostBreakdown cost;  ///< cost of the rung that produced the answer
  AnswerTier tier = AnswerTier::kExact;
  /// Why the answer is below kExact (kNone at kExact). Callers that shed a
  /// query at admission control stamp kShed alongside tier kShed.
  DowngradeReason downgrade_reason = DowngradeReason::kNone;
  bool timed_out = false;   ///< at least one rung was cancelled
  double elapsed_ms = 0.0;  ///< wall time across all rungs tried
  double budget_ms = 0.0;   ///< the deadline this query ran under (0 = none)
  /// Full provenance: stages run, filter decisions, pages touched. The
  /// flight-recorder correlation key is explain.query_id.
  ExplainRecord explain;
};

class ResilientExecutor {
 public:
  /// `fr` is required (the exact rung and the histogram floor both run
  /// through it); `fallback` may be null, which skips the kApprox rung,
  /// and `fft` may be null, which skips the kFft rung. None are owned.
  /// The fallback and fft engines must be fed the same update stream as
  /// `fr`.
  ResilientExecutor(FrEngine* fr, PaEngine* fallback,
                    const ResilienceOptions& options,
                    FftDensityEngine* fft = nullptr);

  /// Runs the ladder for snapshot query (rho, l, q_t). `token` optionally
  /// wires external cancellation into every rung. Throws HorizonError for
  /// q_t outside [now, now + H], and a rung's error only when
  /// options().degrade is false.
  TieredResult Query(Tick q_t, double rho, double l,
                     const CancelToken* token = nullptr);

  const ResilienceOptions& options() const { return options_; }

 private:
  /// The rung's applicability rule for (q_t, l).
  bool Serves(AnswerTier tier, Tick q_t, double l) const;

  FrEngine* fr_;
  PaEngine* fallback_;
  FftDensityEngine* fft_;
  ResilienceOptions options_;
};

/// Stamps an exact FR answer's provenance — query id, tier, the
/// filter/refine stages, filter counts, refinement work, pages — into
/// `explain`. Every exact answer path (the ladder, PdrMonitor's direct,
/// batch and snapshot paths) stamps through here.
void StampExact(const FrEngine::QueryResult& result, ExplainRecord* explain);

/// Stamps a PA answer's provenance — tier, the `approx` stage (`spent_ms`),
/// branch-and-bound counts — into `explain`.
void StampApprox(const PaEngine::QueryResult& result, double spent_ms,
                 ExplainRecord* explain);

}  // namespace pdr

#endif  // PDR_RESILIENCE_EXECUTOR_H_
