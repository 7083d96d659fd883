#include "pdr/core/pa_engine.h"

#include <stdexcept>
#include <string>

#include "pdr/core/fr_snapshot_state.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/versioned_cheb.h"
#include "pdr/obs/obs.h"
#include "pdr/parallel/thread_pool.h"

namespace pdr {
namespace {

void FinishPaSpan(TraceSpan* span, const PaEngine::QueryResult& result) {
  if (!span->active()) return;
  span->SetAttr("cpu_ms", result.cost.cpu_ms);
  span->SetAttr("nodes_visited", result.bnb.nodes_visited);
  span->SetAttr("accepted_boxes", result.bnb.accepted_boxes);
  span->SetAttr("pruned_boxes", result.bnb.pruned_boxes);
  span->SetAttr("point_evals", result.bnb.point_evals);
}

// The ChebGrid constructor checks the model's own options; the
// branch-and-bound leaf resolution is the engine's.
const PaEngine::Options& Validated(const PaEngine::Options& options) {
  if (options.eval_grid < options.poly_side) {
    throw std::invalid_argument(
        "PaEngine: eval_grid " + std::to_string(options.eval_grid) +
        " < poly_side " + std::to_string(options.poly_side));
  }
  return options;
}

}  // namespace

PaEngine::PaEngine(const Options& options)
    : options_(Validated(options)),
      model_({options.extent, options.poly_side, options.degree,
              options.horizon, options.l}) {
  if (options_.snapshots != nullptr) {
    model_.EnableDirtyTracking();
    vcheb_ = std::make_unique<mvcc::VersionedChebModel>(&model_,
                                                        options_.snapshots);
  }
}

PaEngine::~PaEngine() = default;

void PaEngine::PrepareCommit() {
  if (vcheb_ == nullptr) {
    throw std::logic_error("PaEngine::PrepareCommit: snapshots not enabled");
  }
  vcheb_->PublishDirty();
}

std::shared_ptr<const PaSnapshotState> PaEngine::CaptureState() const {
  auto state = std::make_shared<PaSnapshotState>();
  state->now = model_.now();
  return state;
}

void PaEngine::SetExecPolicy(const ExecPolicy& exec) {
  options_.exec = exec;
  pool_.reset();  // rebuilt lazily at the new width
}

ThreadPool* PaEngine::PoolForQuery() {
  if (!options_.exec.IsParallel()) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.exec.threads);
  }
  return pool_.get();
}

void PaEngine::ValidateQt(Tick q_t) const {
  ValidateHorizon("pa", q_t, model_.now(), options_.horizon);
}

PaEngine::QueryResult PaEngine::Query(Tick q_t, double rho,
                                      const QueryControl& ctl) {
  ValidateQt(q_t);
  // Entry cancellation point (see FrEngine::Query).
  if (ctl.active()) ctl.Check();
  TraceSpan span("pa.query");
  span.SetAttr("q_t", static_cast<int64_t>(q_t));
  span.SetAttr("rho", rho);
  Timer timer;
  QueryResult result;
  result.region =
      model_.QueryDense(q_t, rho, options_.eval_grid, &result.bnb,
                        PoolForQuery(), ctl.active() ? &ctl : nullptr);
  result.cost.cpu_ms = timer.ElapsedMillis();

  static Counter& queries =
      MetricsRegistry::Global().GetCounter("pdr.pa.queries");
  static Histogram& query_ms =
      MetricsRegistry::Global().GetHistogram("pdr.pa.query_ms");
  queries.Increment();
  query_ms.Observe(result.cost.cpu_ms);
  FinishPaSpan(&span, result);
  return result;
}

PaEngine::QueryResult PaEngine::QueryGridScan(Tick q_t, double rho) {
  ValidateQt(q_t);
  TraceSpan span("pa.query_grid_scan");
  Timer timer;
  QueryResult result;
  result.region =
      model_.QueryDenseGridScan(q_t, rho, options_.eval_grid, &result.bnb);
  result.cost.cpu_ms = timer.ElapsedMillis();
  FinishPaSpan(&span, result);
  return result;
}

PaEngine::QueryResult PaEngine::QueryInterval(Tick q_lo, Tick q_hi,
                                              double rho,
                                              const QueryControl& ctl) {
  ValidateQt(q_lo);
  ValidateQt(q_hi);
  TraceSpan span("pa.query_interval");
  span.SetAttr("q_lo", static_cast<int64_t>(q_lo));
  span.SetAttr("q_hi", static_cast<int64_t>(q_hi));
  QueryResult total;
  Region all;
  for (Tick t = q_lo; t <= q_hi; ++t) {
    QueryResult snap = Query(t, rho, ctl);
    all.Add(snap.region);
    total.cost += snap.cost;
    total.bnb += snap.bnb;
  }
  total.region = all.Coalesced();
  FinishPaSpan(&span, total);
  return total;
}

}  // namespace pdr
