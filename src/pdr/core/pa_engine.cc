#include "pdr/core/pa_engine.h"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/parallel/thread_pool.h"

namespace pdr {
namespace {

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
              options.horizon, options.l}) {}

PaEngine::~PaEngine() = default;

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
  Timer timer;
  // Flight-recorder attribution, as in FrQueryCore: reuse the caller's
  // query id or mint a fresh one.
  std::optional<FlightRecorder::QueryScope> fr_scope;
  if (FlightRecorder::Enabled()) {
    if (FlightRecorder::CurrentQueryId() == 0) {
      fr_scope.emplace(FlightRecorder::NextQueryId());
    }
    int64_t rho_bits = 0;
    std::memcpy(&rho_bits, &rho, sizeof(rho_bits));
    FlightRecorder::Record(FrEvent::kQueryBegin, q_t, rho_bits);
  }
  QueryResult result;
  result.region =
      model_.QueryDense(q_t, rho, options_.eval_grid, &result.bnb,
                        PoolForQuery(), ctl.active() ? &ctl : nullptr);
  result.cost.cpu_ms = timer.ElapsedMillis();
  FlightRecorder::Record(FrEvent::kQueryEnd, 0,
                         static_cast<int64_t>(result.region.size()));

  static Counter& queries =
      MetricsRegistry::Global().GetCounter("pdr.pa.queries");
  static Histogram& query_ms =
      MetricsRegistry::Global().GetHistogram("pdr.pa.query_ms");
  queries.Increment();
  query_ms.Observe(result.cost.cpu_ms);
  return result;
}

PaEngine::QueryResult PaEngine::QueryGridScan(Tick q_t, double rho) {
  ValidateQt(q_t);
  Timer timer;
  QueryResult result;
  result.region =
      model_.QueryDenseGridScan(q_t, rho, options_.eval_grid, &result.bnb);
  result.cost.cpu_ms = timer.ElapsedMillis();
  return result;
}

PaEngine::QueryResult PaEngine::QueryInterval(Tick q_lo, Tick q_hi,
                                              double rho,
                                              const QueryControl& ctl) {
  ValidateQt(q_lo);
  ValidateQt(q_hi);
  QueryResult total;
  Region all;
  for (Tick t = q_lo; t <= q_hi; ++t) {
    QueryResult snap = Query(t, rho, ctl);
    all.Add(snap.region);
    total.cost += snap.cost;
    total.bnb += snap.bnb;
  }
  total.region = all.Coalesced();
  return total;
}

}  // namespace pdr
