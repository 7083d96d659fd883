// PA: the approximate polynomial PDR engine (Section 6).
//
// A thin, cost-accounted facade over ChebGrid: maintains the per-tick
// Chebyshev density model from the update stream and answers snapshot PDR
// queries by branch-and-bound over the polynomial bounds. Incurs no I/O —
// all coefficients stay in memory (Section 7.3: "PA incurs no I/O at
// all") — so its total cost is CPU only.

#ifndef PDR_CORE_PA_ENGINE_H_
#define PDR_CORE_PA_ENGINE_H_

#include <memory>

#include "pdr/cheb/cheb_grid.h"
#include "pdr/common/errors.h"
#include "pdr/common/region.h"
#include "pdr/common/stats.h"
#include "pdr/parallel/exec_policy.h"
#include "pdr/resilience/deadline.h"

namespace pdr {

class ThreadPool;

class PaEngine {
 public:
  struct Options {
    double extent = 1000.0;
    int poly_side = 10;   ///< g: macro-cells per side (g^2 polynomials)
    int degree = 5;       ///< k
    Tick horizon = 120;   ///< H = U + W
    double l = 30.0;      ///< fixed l-square edge (Section 6 limitation)
    int eval_grid = 1000; ///< m_d: finest branch-and-bound resolution
    ExecPolicy exec;      ///< serial by default; see SetExecPolicy
  };

  /// Throws std::invalid_argument on options the model cannot hold: a
  /// degree outside [0, kChebMaxDegree], poly_side < 1,
  /// eval_grid < poly_side, l <= 0 or horizon < 0.
  explicit PaEngine(const Options& options);
  ~PaEngine();

  /// Switches how Query fans the per-macro-cell branch-and-bound out.
  /// Results stay bit-identical to serial at any thread count (per-cell
  /// regions merge in cell order).
  void SetExecPolicy(const ExecPolicy& exec);
  const ExecPolicy& exec_policy() const { return options_.exec; }

  void AdvanceTo(Tick now) { model_.AdvanceTo(now); }
  Tick now() const { return model_.now(); }
  void Apply(const UpdateEvent& update) { model_.Apply(update); }

  struct QueryResult {
    Region region;
    CostBreakdown cost;  ///< io_ms always 0 for PA
    BnbStats bnb;
  };

  /// Approximate snapshot PDR query (rho, options().l, q_t) via
  /// branch-and-bound.
  ///
  /// Throws HorizonError when q_t lies outside [now, now + H] (the
  /// Chebyshev slices only cover the horizon window). An active `ctl` is
  /// checked at entry and at every branch-and-bound node; a cancelled
  /// query throws CancelledError within one node expansion.
  QueryResult Query(Tick q_t, double rho, const QueryControl& ctl = {});

  /// The paper's "trivial approach" (full grid scan) for the ablation.
  QueryResult QueryGridScan(Tick q_t, double rho);

  /// Interval PDR query: union of snapshot answers over [q_lo, q_hi].
  /// Both endpoints must lie inside the horizon (HorizonError otherwise).
  QueryResult QueryInterval(Tick q_lo, Tick q_hi, double rho,
                            const QueryControl& ctl = {});

  /// Approximated point density at `p`, tick `t`.
  double Density(Tick t, Vec2 p) const { return model_.Density(t, p); }

  const ChebGrid& model() const { return model_; }
  const Options& options() const { return options_; }

 private:
  ThreadPool* PoolForQuery();  // null when the policy is serial
  void ValidateQt(Tick q_t) const;  // throws HorizonError

  Options options_;
  ChebGrid model_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily on first parallel query
};

}  // namespace pdr

#endif  // PDR_CORE_PA_ENGINE_H_
