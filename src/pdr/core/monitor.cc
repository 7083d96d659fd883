#include "pdr/core/monitor.h"

#include <future>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "pdr/fft/fft_engine.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/snapshot_query.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/obs/slo.h"
#include "pdr/obs/workload_log.h"
#include "pdr/parallel/thread_pool.h"

namespace pdr {

PdrMonitor::~PdrMonitor() = default;

ResilientExecutor* PdrMonitor::ExecutorForTick() {
  const ResilienceOptions& r = options_.resilience;
  const bool ladder_active = r.deadline_ms > 0.0 || !r.enable_exact;
  if (!ladder_active) return nullptr;
  if (pa_ != nullptr) {
    throw std::logic_error(
        "PdrMonitor: the degradation ladder requires FR-primary mode "
        "(its rungs are FR exact -> FFT field -> PA approximate -> "
        "FR histogram)");
  }
  if (executor_ == nullptr) {
    executor_ =
        std::make_unique<ResilientExecutor>(engine_, fallback_, r, fft_);
  }
  return executor_.get();
}

AdmissionController* PdrMonitor::AdmissionForTick() {
  if (admission_ != nullptr) return admission_;
  if (options_.resilience.max_inflight <= 0) return nullptr;
  if (owned_admission_ == nullptr) {
    owned_admission_ = std::make_unique<AdmissionController>(
        AdmissionController::Options{options_.resilience.max_inflight});
  }
  return owned_admission_.get();
}

void PdrMonitor::SetExecPolicy(const ExecPolicy& exec) {
  exec_ = exec;
  pool_.reset();  // rebuilt lazily at the new width
}

ThreadPool* PdrMonitor::PoolForTick() {
  if (!exec_.IsParallel()) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(exec_.threads);
  }
  return pool_.get();
}

PdrMonitor::Delta PdrMonitor::OnTick(Tick now) {
  Timer timer;
  Delta delta;
  delta.now = now;
  delta.q_t = now + options_.lookahead;
  delta.budget_ms = options_.resilience.deadline_ms;
  FlightRecorder::Record(FrEvent::kTickBegin, now, delta.q_t);
  const auto record_tick_end = [&delta] {
    FlightRecorder::Record(FrEvent::kTickEnd,
                           static_cast<int64_t>(delta.tier),
                           static_cast<int64_t>(delta.current.size()));
  };

  // Admission control first: when too many evaluations are already in
  // flight (shared controller across monitors/threads), shed this tick
  // outright — repeat the previous answer, leave the standing state (and
  // previous_) untouched, and report tier kShed.
  AdmissionController::Permit permit;
  if (AdmissionController* admission = AdmissionForTick()) {
    permit = admission->TryAdmit();
    if (!permit.ok()) {
      delta.shed = true;
      delta.tier = AnswerTier::kShed;
      delta.downgrade_reason = DowngradeReason::kShed;
      if (has_previous_) delta.current = previous_;
      delta.elapsed_ms = timer.ElapsedMillis();
      delta.explain.q_t = delta.q_t;
      delta.explain.rho = options_.rho;
      delta.explain.l = options_.l;
      delta.explain.tier = delta.tier;
      delta.explain.downgrade_reason = delta.downgrade_reason;
      delta.explain.budget_ms = delta.budget_ms;
      delta.explain.elapsed_ms = delta.elapsed_ms;
      FlightRecorder::Record(FrEvent::kShed, static_cast<int64_t>(now));
      static Counter& shed_ticks =
          MetricsRegistry::Global().GetCounter("pdr.monitor.shed_ticks");
      shed_ticks.Increment();
      static Counter& reason_shed = MetricsRegistry::Global().GetCounter(
          WithLabel("pdr.resilience.downgrade_reason", "reason", "shed"));
      reason_shed.Increment();
      if (slo_ != nullptr) {
        slo_->OnSample(delta.elapsed_ms, delta.tier, /*shed=*/true);
      }
      record_tick_end();
      if (recorder_ != nullptr) recorder_->RecordTick(delta);
      return delta;
    }
  }

  ResilientExecutor* ladder = ExecutorForTick();
  delta.explain.q_t = delta.q_t;
  delta.explain.rho = options_.rho;
  delta.explain.l = options_.l;
  delta.explain.budget_ms = delta.budget_ms;
  if (pa_ != nullptr) {
    Timer pa_timer;
    auto result = pa_->Query(delta.q_t, options_.rho);
    const double pa_elapsed = pa_timer.ElapsedMillis();
    if (PdrObs::Enabled()) {
      static Histogram& pa_ms =
          MetricsRegistry::Global().GetHistogram("pdr.monitor.pa_query_ms");
      pa_ms.Observe(pa_elapsed);
    }
    delta.cost = result.cost;
    delta.current = std::move(result.region);
    StampApprox(result, pa_elapsed, &delta.explain);
  } else if (ladder != nullptr) {
    auto result = ladder->Query(delta.q_t, options_.rho, options_.l);
    delta.cost = result.cost;
    delta.current = std::move(result.region);
    delta.maybe_region = std::move(result.maybe_region);
    delta.tier = result.tier;
    delta.downgrade_reason = result.downgrade_reason;
    delta.explain = std::move(result.explain);
  } else {
    std::optional<CostPrediction> predicted;
    if (calibrator_ != nullptr && PdrObs::Enabled()) {
      predicted = calibrator_->Predict(delta.q_t, options_.rho, options_.l);
    }
    auto result = engine_->Query(delta.q_t, options_.rho, options_.l);
    if (predicted) calibrator_->Observe(*predicted, result);
    delta.cost = result.cost;
    delta.current = std::move(result.region);
    StampExact(result, &delta.explain);
  }

  // Shadow audit (PA-primary only). The sampling roll stays on this thread
  // — the RNG stream, and therefore which ticks get audited, must not
  // depend on scheduling. With a pool, the audit's exact FR replay runs
  // concurrently with the delta computation below (both only read
  // delta.current); the previous_ update waits for the join.
  std::future<void> audit_done;
  ThreadPool* pool = pa_ != nullptr ? PoolForTick() : nullptr;
  if (pa_ != nullptr && auditor_ != nullptr) {
    if (pool != nullptr) {
      if (auditor_->ShouldSample()) {
        audit_done = pool->Submit([this, &delta] {
          delta.audit =
              auditor_->Audit(delta.q_t, options_.rho, delta.current);
        });
      }
    } else {
      delta.audit =
          auditor_->MaybeAudit(delta.q_t, options_.rho, delta.current);
    }
  }
  // Degraded answers are the ones whose quality is in question: in
  // FR-primary mode with an auditor attached, offer every below-exact tick
  // to the sampler so the shadow audit tracks what degradation costs.
  if (pa_ == nullptr && auditor_ != nullptr &&
      delta.tier != AnswerTier::kExact) {
    delta.audit =
        auditor_->MaybeAudit(delta.q_t, options_.rho, delta.current);
  }

  if (has_previous_) {
    std::tie(delta.appeared, delta.vanished) =
        RegionDifferences(delta.current, previous_);
  } else {
    delta.appeared = delta.current.Coalesced();
  }
  if (audit_done.valid()) pool->Wait(audit_done);
  previous_ = delta.current;
  has_previous_ = true;

  static Counter& ticks =
      MetricsRegistry::Global().GetCounter("pdr.monitor.ticks");
  static Counter& changed =
      MetricsRegistry::Global().GetCounter("pdr.monitor.changed_ticks");
  static Histogram& tick_ms =
      MetricsRegistry::Global().GetHistogram("pdr.monitor.tick_ms");
  ticks.Increment();
  if (delta.Changed()) changed.Increment();
  delta.elapsed_ms = timer.ElapsedMillis();
  tick_ms.Observe(delta.elapsed_ms);

  // The ladder stamps its own (query-level) elapsed; the direct paths get
  // the tick's. The audit verdict rides into the provenance record so an
  // EXPLAIN of a sampled tick shows what the answer was worth.
  if (ladder == nullptr) delta.explain.elapsed_ms = delta.elapsed_ms;
  delta.explain.downgrade_reason = delta.downgrade_reason;
  if (delta.audit) {
    delta.explain.audited = true;
    delta.explain.audit_precision = delta.audit->precision;
    delta.explain.audit_recall = delta.audit->recall;
  }
  if (slo_ != nullptr) {
    slo_->OnSample(delta.elapsed_ms, delta.tier, /*shed=*/false);
    if (delta.audit) {
      slo_->OnAudit(delta.audit->precision, delta.audit->recall);
    }
  }

  ++ticks_total_;
  if (delta.tier != AnswerTier::kExact) {
    ++degraded_ticks_;
    static Counter& degraded =
        MetricsRegistry::Global().GetCounter("pdr.monitor.degraded_ticks");
    degraded.Increment();
  }
  static Gauge& downgrade_rate =
      MetricsRegistry::Global().GetGauge("pdr.monitor.downgrade_rate");
  downgrade_rate.Set(static_cast<double>(degraded_ticks_) /
                     static_cast<double>(ticks_total_));

  if (checkpoint_hook_ && checkpoint_every_ > 0 &&
      ++ticks_since_checkpoint_ >= checkpoint_every_) {
    ticks_since_checkpoint_ = 0;
    checkpoint_hook_();
  }
  if (scrub_hook_) scrub_hook_();

  record_tick_end();
  if (recorder_ != nullptr) recorder_->RecordTick(delta);
  return delta;
}

std::vector<TieredResult> PdrMonitor::QueryBatch(
    Tick now, const std::vector<BatchQuerySpec>& specs) {
  if (pa_ != nullptr) {
    throw std::logic_error(
        "PdrMonitor::QueryBatch requires FR-primary mode");
  }
  std::vector<TieredResult> out(specs.size());
  // Evaluate in q_t groups so every spec sharing a target tick runs
  // back-to-back: with an FFT rung attached, the group's first query
  // rasterizes and builds the summed-area table and the rest hit the
  // cached field, so each distinct q_t pays for exactly one field.
  std::map<Tick, std::vector<size_t>> by_qt;
  for (size_t i = 0; i < specs.size(); ++i) {
    by_qt[now + specs[i].lookahead].push_back(i);
  }
  ResilientExecutor* ladder = ExecutorForTick();
  for (const auto& [q_t, indices] : by_qt) {
    for (size_t i : indices) {
      const BatchQuerySpec& s = specs[i];
      if (ladder != nullptr) {
        out[i] = ladder->Query(q_t, s.rho, s.l);
        continue;
      }
      // No ladder configured: answer exactly through the FR engine, but
      // stamp the result in ladder shape so batch callers always consume
      // TieredResults.
      Timer query_timer;
      FrEngine::QueryResult r = engine_->Query(q_t, s.rho, s.l);
      TieredResult& t = out[i];
      t.region = std::move(r.region);
      t.cost = r.cost;
      t.elapsed_ms = query_timer.ElapsedMillis();
      t.explain.q_t = q_t;
      t.explain.rho = s.rho;
      t.explain.l = s.l;
      t.explain.elapsed_ms = t.elapsed_ms;
      StampExact(r, &t.explain);
    }
  }
  static Counter& batches =
      MetricsRegistry::Global().GetCounter("pdr.monitor.batches");
  static Counter& batch_queries =
      MetricsRegistry::Global().GetCounter("pdr.monitor.batch_queries");
  batches.Increment();
  batch_queries.Add(static_cast<int64_t>(specs.size()));
  return out;
}

void PdrMonitor::RequireConcurrent(const char* op) const {
  if (engine_ == nullptr || engine_->snapshots() == nullptr) {
    throw std::logic_error(std::string("PdrMonitor::") + op +
                           ": concurrent mode requires FR-primary with "
                           "FrEngine::Options::snapshots set");
  }
}

uint64_t PdrMonitor::StartConcurrent() {
  RequireConcurrent("StartConcurrent");
  // Log the (empty) initial commit too: the replayer re-derives one
  // reference answer per epoch from its updates record, and a reader may
  // pin the initial epoch before the first ApplyUpdates.
  if (recorder_ != nullptr) {
    recorder_->OnCommit(engine_->now(), {},
                        engine_->snapshots()->open_epoch());
  }
  return engine_->Commit();
}

uint64_t PdrMonitor::ApplyUpdates(Tick now,
                                  const std::vector<UpdateEvent>& updates) {
  RequireConcurrent("ApplyUpdates");
  engine_->AdvanceTo(now);
  for (const UpdateEvent& u : updates) engine_->Apply(u);
  // Log the batch *before* Commit publishes its epoch: a reader can pin
  // epoch E and record its answer the instant Commit returns, and the
  // replayer requires every epoch's updates record to precede every tick
  // record pinned to it.
  if (recorder_ != nullptr) {
    recorder_->OnCommit(now, updates, engine_->snapshots()->open_epoch());
  }
  return engine_->Commit();
}

PdrMonitor::Delta PdrMonitor::MakeSnapshotDelta(
    Tick now, Tick q_t, double rho, double l, uint64_t epoch,
    const FrEngine::QueryResult& result, double elapsed_ms) {
  Delta delta;
  delta.now = now;
  delta.q_t = q_t;
  delta.epoch = epoch;
  delta.cost = result.cost;
  delta.current = result.region;
  delta.elapsed_ms = elapsed_ms;
  delta.explain.q_t = q_t;
  delta.explain.rho = rho;
  delta.explain.l = l;
  delta.explain.epoch = epoch;
  delta.explain.elapsed_ms = elapsed_ms;
  StampExact(result, &delta.explain);
  return delta;
}

PdrMonitor::Delta PdrMonitor::RunSnapshotQuery(const QueryControl& ctl) {
  RequireConcurrent("RunSnapshotQuery");
  Timer timer;
  mvcc::Snapshot snap = engine_->snapshots()->Pin();
  const Tick now = mvcc::SnapshotFrNow(snap);
  const Tick q_t = now + options_.lookahead;
  const uint64_t epoch = snap.epoch();
  FrEngine::QueryResult result =
      mvcc::SnapshotFrQuery(*engine_, snap, q_t, options_.rho, options_.l,
                            ctl);
  snap.Release();
  Delta delta = MakeSnapshotDelta(now, q_t, options_.rho, options_.l, epoch,
                                  result, timer.ElapsedMillis());
  static Counter& snapshot_queries = MetricsRegistry::Global().GetCounter(
      "pdr.monitor.snapshot_queries");
  snapshot_queries.Increment();
  if (recorder_ != nullptr) recorder_->RecordTick(delta);
  return delta;
}

}  // namespace pdr
