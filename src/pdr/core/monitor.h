// Continuous PDR monitoring.
//
// The paper evaluates one-shot snapshot queries; its motivating
// applications (traffic control, resource scheduling) actually watch a
// *standing* query — "always show the regions that will be dense W ticks
// from now" — as updates stream in. PdrMonitor keeps the previous answer
// and reports constructive deltas per tick:
//
//   appeared = current \ previous   (congestion forming: act on these)
//   vanished = previous \ current   (congestion dissolving)
//
// so downstream consumers (alerting, dispatch) handle O(change) instead
// of re-reading the full answer. This is the natural extension toward the
// continuous density queries of the follow-up literature.
//
// The monitor runs over either engine: FR-primary (exact answers; the
// original mode) or PA-primary (fast approximate answers). In PA-primary
// mode a ShadowAuditor can be attached — each tick's answer is then
// offered to the sampler, and ~sample_rate of them are replayed through
// exact FR and scored; the verdict rides along on the Delta. In
// FR-primary mode an attached CostCalibrator predicts each query's cost
// before it runs and scores the prediction against actuals.

#ifndef PDR_CORE_MONITOR_H_
#define PDR_CORE_MONITOR_H_

#include <functional>
#include <memory>
#include <optional>

#include "pdr/common/region.h"
#include "pdr/common/stats.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/pa_engine.h"
#include "pdr/obs/audit.h"
#include "pdr/parallel/exec_policy.h"
#include "pdr/parallel/thread_pool.h"
#include "pdr/resilience/admission.h"
#include "pdr/resilience/executor.h"

namespace pdr {

class FftDensityEngine;
class SloMonitor;
class WorkloadRecorder;

class PdrMonitor {
 public:
  struct Options {
    double rho = 0.0;    ///< density threshold
    double l = 30.0;     ///< neighborhood edge
    Tick lookahead = 0;  ///< q_t = now + lookahead (<= W for completeness)
    /// Deadline / admission-control / degradation policy. Inactive by
    /// default. A per-tick deadline or degradation ladder requires the
    /// FR-primary mode (the ladder's rungs are FR exact -> FFT field ->
    /// PA approximate -> FR histogram); OnTick throws std::logic_error
    /// otherwise.
    ResilienceOptions resilience;
  };

  /// The change in the standing answer at one tick.
  struct Delta {
    Tick now = 0;
    Tick q_t = 0;
    Region current;   ///< full answer at q_t
    Region appeared;  ///< dense now, not dense at the previous evaluation
    Region vanished;  ///< dense at the previous evaluation, not now
    CostBreakdown cost;
    /// Present when this tick's answer was shadow-audited: PA-primary with
    /// an attached auditor (sampled in), or FR-primary when a degraded
    /// (non-exact) tier answered and an auditor is attached.
    std::optional<AuditVerdict> audit;
    /// What the answer is worth this tick. kExact unless the resilience
    /// ladder downgraded (kFft / kApprox / kHistogram) or admission
    /// control shed
    /// the tick outright (kShed: `current` repeats the previous answer and
    /// appeared/vanished are empty).
    AnswerTier tier = AnswerTier::kExact;
    /// Why the answer is below kExact (kNone at full quality; kShed when
    /// the tick never ran).
    DowngradeReason downgrade_reason = DowngradeReason::kNone;
    /// Per-query provenance: which tier answered, what each stage spent,
    /// cells filtered, pages touched, audit verdict when sampled. Always
    /// populated (a shed tick gets a stub naming the shed).
    ExplainRecord explain;
    bool shed = false;        ///< true iff admission control refused the tick
    double elapsed_ms = 0.0;  ///< wall time spent evaluating this tick
    double budget_ms = 0.0;   ///< configured deadline (0 = unbounded)
    /// MVCC epoch the answer was read at: 0 for live/serialized OnTick
    /// evaluation, the pinned epoch for RunSnapshotQuery answers. A
    /// snapshot delta is an *absolute* answer — appeared/vanished stay
    /// empty, because concurrent readers hold no shared standing state
    /// (delta semantics require serialized evaluation order).
    uint64_t epoch = 0;
    /// kHistogram/kFft tiers only: the optimistic superset
    /// (accepts+candidates); everything dense is inside it. Empty at other
    /// tiers.
    Region maybe_region;

    bool Changed() const {
      return !appeared.IsEmpty() || !vanished.IsEmpty();
    }
  };

  /// FR-primary: the monitor evaluates through `engine` (not owned); the
  /// caller keeps feeding the engine its update stream.
  PdrMonitor(FrEngine* engine, const Options& options)
      : engine_(engine), options_(options) {}

  /// PA-primary: evaluates through the approximate engine (not owned).
  /// `options.l` must match the engine's fixed l.
  PdrMonitor(PaEngine* primary, const Options& options)
      : pa_(primary), options_(options) {}

  /// Attaches a shadow auditor (PA-primary mode; not owned). The auditor's
  /// FR engine must be fed the same update stream as the PA engine.
  void SetAuditor(ShadowAuditor* auditor) { auditor_ = auditor; }

  /// Attaches a cost calibrator (FR-primary mode; not owned): each tick's
  /// query is predicted before it runs and the prediction scored.
  void SetCalibrator(CostCalibrator* calibrator) { calibrator_ = calibrator; }

  /// FR-primary only: the approximate engine the degradation ladder falls
  /// back to when the exact query overruns its deadline (not owned; must be
  /// fed the same update stream, with matching l). Without one the ladder
  /// skips straight to the histogram tier.
  void SetFallback(PaEngine* fallback) {
    fallback_ = fallback;
    executor_.reset();  // rebuilt lazily with the new fallback
  }

  /// FR-primary only: attaches the FFT whole-plane density engine as the
  /// ladder's second rung (exact -> fft -> approx -> histogram; not owned;
  /// must be fed the same update stream as the FR engine). Also enables
  /// QueryBatch amortization: queries on the same q_t share one cached
  /// summed-area table.
  void SetFftRung(FftDensityEngine* fft) {
    fft_ = fft;
    executor_.reset();  // rebuilt lazily with the new rung
  }

  /// Shares an admission controller across monitors/threads (not owned).
  /// When unset and `resilience.max_inflight > 0`, the monitor lazily
  /// creates a private one.
  void SetAdmissionController(AdmissionController* admission) {
    admission_ = admission;
  }

  /// Attaches an SLO monitor (not owned): every tick's latency/tier/shed
  /// outcome — and every sampled audit verdict — is fed to it, so burn-rate
  /// alerting and admission backoff track this standing query.
  void SetSloMonitor(SloMonitor* slo) { slo_ = slo; }

  /// Attaches a workload recorder (not owned): every tick's delta — shed
  /// or evaluated — is appended to the workload log with its result
  /// digests, so the run can be replayed bit-exactly offline.
  void SetRecorder(WorkloadRecorder* recorder) { recorder_ = recorder; }

  ~PdrMonitor();

  /// With a parallel policy, a sampled-in shadow audit runs off the query
  /// thread, overlapping the appeared/vanished delta computation; the tick
  /// joins it before returning, and the sampling dice stay on the query
  /// thread, so which ticks get audited — and every verdict — is identical
  /// to serial execution.
  void SetExecPolicy(const ExecPolicy& exec);
  const ExecPolicy& exec_policy() const { return exec_; }

  const Options& options() const { return options_; }

  /// Evaluates the standing query at `now` (engine must be advanced to
  /// `now` and fed all updates up to it) and returns the delta against
  /// the previous evaluation.
  Delta OnTick(Tick now);

  /// One query of a same-tick batch: evaluate (rho, l) at q_t = now +
  /// lookahead. Unlike the standing query, batch specs are ad hoc — a
  /// dashboard refreshing many thresholds, a dispatcher scanning several
  /// neighborhood sizes — so they bypass the delta/standing state.
  struct BatchQuerySpec {
    double rho = 0.0;
    double l = 30.0;
    Tick lookahead = 0;
  };

  /// FR-primary only: answers every spec at `now` in one pass, grouped by
  /// q_t so specs sharing a target tick amortize: with an attached FFT
  /// rung (SetFftRung) the first query on each q_t builds the density
  /// field — rasterize + one summed-area table — and the rest reuse the
  /// cached field, paying only block sums + classification
  /// (EXPERIMENTS.md has the measured amortization curve). Results come
  /// back in spec order, each stamped with its tier/EXPLAIN provenance
  /// exactly as a single ladder query would be. Does not touch the
  /// standing answer, admission control, or the recorder.
  std::vector<TieredResult> QueryBatch(Tick now,
                                       const std::vector<BatchQuerySpec>& specs);

  /// Forgets the previous answer (the next delta reports everything as
  /// appeared).
  void Reset() { has_previous_ = false; }

  /// Durability cadence: after every `every_ticks` evaluated ticks the
  /// monitor invokes `hook` — typically FrEngine::Checkpoint on the engine
  /// it watches, so the standing query's state hits disk at a bounded
  /// recovery distance. `every_ticks <= 0` (or an empty hook) disables.
  /// Shed ticks never run the hook and never advance the cadence counter:
  /// the standing state they would checkpoint did not change.
  void SetCheckpointHook(std::function<void()> hook, Tick every_ticks) {
    checkpoint_hook_ = std::move(hook);
    checkpoint_every_ = every_ticks;
    ticks_since_checkpoint_ = 0;
  }

  /// Online-scrub cadence: `hook` runs once per evaluated tick, after the
  /// tick's query (and any checkpoint) — typically DiskPager::Scrub with
  /// a small page budget, so the whole store gets verified incrementally
  /// while the system serves. The per-tick cost bound lives in the hook's
  /// budget, not here. Empty hook disables. Shed ticks skip it (they do
  /// no storage work to amortize against).
  void SetScrubHook(std::function<void()> hook) {
    scrub_hook_ = std::move(hook);
  }

  // --- MVCC concurrent mode (DESIGN.md §14) ------------------------------
  //
  // FR-primary with the engine built over a SnapshotManager
  // (FrEngine::Options::snapshots). One writer thread drives
  // ApplyUpdates; any number of reader threads call RunSnapshotQuery
  // concurrently — the writer never blocks on them, and every answer is
  // exact and bit-identical to serialized execution at its pinned epoch
  // (tests/mvcc_interleave_test.cc). Only the FR engine is versioned:
  // attached FFT/PA rungs serve OnTick, never snapshot reads. OnTick
  // stays available for single-threaded/serialized use but must not race
  // ApplyUpdates.

  /// Commits the engine's current state as the first epoch so readers
  /// can pin before any updates arrive. Writer thread. Returns the
  /// committed epoch. Throws std::logic_error unless FR-primary with
  /// snapshots enabled.
  uint64_t StartConcurrent();

  /// Writer-thread tick: advances the FR engine to `now`, applies the
  /// batch, and commits it as one epoch (FrEngine::Commit). Records the
  /// batch + epoch to an attached WorkloadRecorder *before* the commit
  /// publishes, so a concurrent capture always logs an epoch's updates
  /// before any query pinned to it. Returns the committed epoch.
  uint64_t ApplyUpdates(Tick now, const std::vector<UpdateEvent>& updates);

  /// Reader-thread query: pins the latest committed epoch, runs the
  /// standing query against the frozen view, and returns an absolute
  /// delta (epoch set; appeared/vanished empty — see Delta::epoch).
  /// Thread-safe against the writer and other readers; touches no
  /// standing monitor state. Records to an attached WorkloadRecorder.
  Delta RunSnapshotQuery(const QueryControl& ctl = {});

  /// Builds the Delta a snapshot (or replayed serialized) FR answer maps
  /// to: tier kExact, filter/refine stages, work counts — exactly the
  /// shape OnTick's direct-exact path produces, minus appeared/vanished.
  /// Shared by RunSnapshotQuery and the replayer's concurrent verify so
  /// recorded and re-derived digests compare one code path against
  /// itself.
  static Delta MakeSnapshotDelta(Tick now, Tick q_t, double rho, double l,
                                 uint64_t epoch,
                                 const FrEngine::QueryResult& result,
                                 double elapsed_ms);

 private:
  void RequireConcurrent(const char* op) const;  // throws std::logic_error
  ThreadPool* PoolForTick();  // null when the policy is serial
  ResilientExecutor* ExecutorForTick();   // null when the ladder is inactive
  AdmissionController* AdmissionForTick();  // null when admission is off

  FrEngine* engine_ = nullptr;
  PaEngine* pa_ = nullptr;
  PaEngine* fallback_ = nullptr;
  FftDensityEngine* fft_ = nullptr;
  ShadowAuditor* auditor_ = nullptr;
  CostCalibrator* calibrator_ = nullptr;
  AdmissionController* admission_ = nullptr;  // shared, not owned
  SloMonitor* slo_ = nullptr;                 // shared, not owned
  WorkloadRecorder* recorder_ = nullptr;      // shared, not owned
  std::unique_ptr<AdmissionController> owned_admission_;
  std::unique_ptr<ResilientExecutor> executor_;
  Options options_;
  ExecPolicy exec_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily on first parallel tick
  Region previous_;
  bool has_previous_ = false;
  int64_t ticks_total_ = 0;      // evaluated (non-shed) ticks
  int64_t degraded_ticks_ = 0;   // evaluated ticks answered below kExact
  std::function<void()> checkpoint_hook_;
  Tick checkpoint_every_ = 0;
  Tick ticks_since_checkpoint_ = 0;
  std::function<void()> scrub_hook_;
};

}  // namespace pdr

#endif  // PDR_CORE_MONITOR_H_
