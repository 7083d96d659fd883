#include "pdr/cheb/cheb_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/parallel/thread_pool.h"

namespace pdr {

namespace {

const ChebGrid::Options& Validated(const ChebGrid::Options& options) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("ChebGrid: " + what);
  };
  if (options.degree < 0 || options.degree > kChebMaxDegree) {
    reject("degree " + std::to_string(options.degree) + " outside [0, " +
           std::to_string(kChebMaxDegree) + "]");
  }
  if (options.grid_side < 1) {
    reject("grid side " + std::to_string(options.grid_side) + " < 1");
  }
  if (!(options.l > 0)) reject("l " + std::to_string(options.l) + " <= 0");
  if (options.horizon < 0) {
    reject("horizon " + std::to_string(options.horizon) + " < 0");
  }
  return options;
}

}  // namespace

ChebGrid::ChebGrid(const Options& options)
    : options_(Validated(options)), grid_(options.extent, options.grid_side) {
  slices_.assign(options.horizon + 1,
                 std::vector<Cheb2D>(grid_.cell_count(),
                                     Cheb2D(options.degree)));
  slot_tick_.resize(options.horizon + 1);
  for (Tick t = 0; t <= options.horizon; ++t) slot_tick_[SlotOf(t)] = t;
}

void ChebGrid::AdvanceTo(Tick now) {
  assert(now >= now_);
  for (Tick t = now_ + 1; t <= now; ++t) {
    const Tick incoming = t + options_.horizon;
    const int slot = SlotOf(incoming);
    for (Cheb2D& poly : slices_[slot]) poly.Reset();
    slot_tick_[slot] = incoming;
  }
  now_ = now;
}

const std::vector<Cheb2D>& ChebGrid::Slice(Tick t) const {
  assert(t >= now_ && t <= now_ + options_.horizon);
  assert(slot_tick_[SlotOf(t)] == t);
  return slices_[SlotOf(t)];
}

const Cheb2D& ChebGrid::CellPoly(Tick t, int cell) const {
  return Slice(t)[cell];
}

size_t ChebGrid::CoefficientsPerSlice() const {
  const size_t per_cell =
      static_cast<size_t>(options_.degree + 1) * (options_.degree + 2) / 2;
  return per_cell * static_cast<size_t>(grid_.cell_count());
}

void ChebGrid::AddSquare(Tick t, Vec2 center, double height) {
  if (!grid_.InDomain(center)) return;  // domain convention, see generator.h
  const Rect square =
      Rect::CenteredSquare(center, options_.l).ClippedTo(grid_.domain());
  if (square.Empty()) return;
  const int c_lo = grid_.ColOf(square.x_lo);
  const int c_hi = grid_.ColOf(std::nexttoward(square.x_hi, square.x_lo));
  const int r_lo = grid_.RowOf(square.y_lo);
  const int r_hi = grid_.RowOf(std::nexttoward(square.y_hi, square.y_lo));
  std::vector<Cheb2D>& slice = slices_[SlotOf(t)];
  assert(slot_tick_[SlotOf(t)] == t);
  for (int row = r_lo; row <= r_hi; ++row) {
    for (int col = c_lo; col <= c_hi; ++col) {
      const Rect cell = grid_.CellRect(col, row);
      const Rect overlap = square.Intersection(cell);
      if (overlap.Empty()) continue;
      // Map the overlap into the cell-local [-1, 1]^2 frame.
      const double sx = 2.0 / cell.Width();
      const double sy = 2.0 / cell.Height();
      const int flat = grid_.FlatIndex(col, row);
      slice[flat].AddIndicator((overlap.x_lo - cell.x_lo) * sx - 1.0,
                               (overlap.x_hi - cell.x_lo) * sx - 1.0,
                               (overlap.y_lo - cell.y_lo) * sy - 1.0,
                               (overlap.y_hi - cell.y_lo) * sy - 1.0, height);
    }
  }
}

void ChebGrid::Apply(const UpdateEvent& update) {
  assert(update.tick == now_ && "updates must be applied at their tick");
  const double inv_l2 = 1.0 / (options_.l * options_.l);
  if (update.old_state) {
    const Tick last = std::min(update.old_state->t_ref + options_.horizon,
                               now_ + options_.horizon);
    for (Tick t = now_; t <= last; ++t) {
      AddSquare(t, update.old_state->PositionAt(t), -inv_l2);
    }
  }
  if (update.new_state) {
    // Usually t_ref == now_; rebuilds may re-insert an older state, which
    // only covers ticks up to t_ref + H — mirror the removal clamp above so
    // that a later delete cancels exactly what was added.
    assert(update.new_state->t_ref <= now_);
    const Tick last = std::min(update.new_state->t_ref + options_.horizon,
                               now_ + options_.horizon);
    for (Tick t = now_; t <= last; ++t) {
      AddSquare(t, update.new_state->PositionAt(t), inv_l2);
    }
  }
}

double ChebGrid::Density(Tick t, Vec2 p) const {
  const int col = grid_.ColOf(p.x);
  const int row = grid_.RowOf(p.y);
  const Rect cell = grid_.CellRect(col, row);
  const double nx = (p.x - cell.x_lo) * 2.0 / cell.Width() - 1.0;
  const double ny = (p.y - cell.y_lo) * 2.0 / cell.Height() - 1.0;
  return Slice(t)[grid_.FlatIndex(col, row)].Eval(
      std::clamp(nx, -1.0, 1.0), std::clamp(ny, -1.0, 1.0));
}

namespace {

/// Branch-and-bound over one macro-cell's normalized frame (Section 6.3).
/// Each node carries T_0..T_k at its four box edges, so a split evaluates
/// only the two new midpoint edges (ChebTEdge) and the children reuse the
/// parent's; the bound is then bit-identical to a fresh Cheb2D::Bound.
class BnbSearch {
 public:
  BnbSearch(const Cheb2D& poly, Rect cell_world, double rho,
            double min_edge_norm, std::vector<Rect>* out, BnbStats* stats,
            const QueryControl* ctl)
      : poly_(poly),
        cell_world_(cell_world),
        rho_(rho),
        min_edge_norm_(min_edge_norm),
        out_(out),
        stats_(stats),
        ctl_(ctl) {}

  void Run() {
    double lo[kChebMaxDegree + 1], hi[kChebMaxDegree + 1];
    ChebTEdge(poly_.degree(), -1.0, lo);
    ChebTEdge(poly_.degree(), 1.0, hi);
    Recurse(-1.0, 1.0, -1.0, 1.0, lo, hi, lo, hi);
  }

 private:
  // Searches the box; returns true when it came back wholly dense, as one
  // rect at the back of *out_. When all four quadrants of a box do, their
  // rects are replaced by the box's own: the quadrants' world edges are
  // the same doubles (dyadic midpoints through one ToWorld), so the
  // covered point set, and with it Coalesced(), is unchanged.
  bool Recurse(double x1, double x2, double y1, double y2, const double* tx1,
               const double* tx2, const double* ty1, const double* ty2) {
    if (ctl_ != nullptr) ctl_->Check();  // cancellation point per node
    if (stats_ != nullptr) ++stats_->nodes_visited;
    const Interval bound =
        poly_.BoundFromEdges(x1, x2, y1, y2, tx1, tx2, ty1, ty2);
    if (bound.lo >= rho_) {
      out_->push_back(ToWorld(x1, x2, y1, y2));
      if (stats_ != nullptr) ++stats_->accepted_boxes;
      return true;
    }
    if (bound.hi < rho_) {
      if (stats_ != nullptr) ++stats_->pruned_boxes;
      return false;
    }
    if (x2 - x1 <= min_edge_norm_ && y2 - y1 <= min_edge_norm_) {
      if (stats_ != nullptr) ++stats_->point_evals;
      if (poly_.Eval((x1 + x2) / 2.0, (y1 + y2) / 2.0) < rho_) return false;
      out_->push_back(ToWorld(x1, x2, y1, y2));
      return true;
    }
    const double mx = (x1 + x2) / 2.0;
    const double my = (y1 + y2) / 2.0;
    double tmx[kChebMaxDegree + 1], tmy[kChebMaxDegree + 1];
    ChebTEdge(poly_.degree(), mx, tmx);
    ChebTEdge(poly_.degree(), my, tmy);
    const bool q0 = Recurse(x1, mx, y1, my, tx1, tmx, ty1, tmy);
    const bool q1 = Recurse(mx, x2, y1, my, tmx, tx2, ty1, tmy);
    const bool q2 = Recurse(x1, mx, my, y2, tx1, tmx, tmy, ty2);
    const bool q3 = Recurse(mx, x2, my, y2, tmx, tx2, tmy, ty2);
    if (!(q0 && q1 && q2 && q3)) return false;
    out_->resize(out_->size() - 4);
    out_->push_back(ToWorld(x1, x2, y1, y2));
    return true;
  }

  Rect ToWorld(double nx1, double nx2, double ny1, double ny2) const {
    const double wx = cell_world_.Width() / 2.0;
    const double wy = cell_world_.Height() / 2.0;
    return Rect(cell_world_.x_lo + (nx1 + 1.0) * wx,
                cell_world_.y_lo + (ny1 + 1.0) * wy,
                cell_world_.x_lo + (nx2 + 1.0) * wx,
                cell_world_.y_lo + (ny2 + 1.0) * wy);
  }

  const Cheb2D& poly_;
  const Rect cell_world_;
  const double rho_;
  const double min_edge_norm_;
  std::vector<Rect>* out_;
  BnbStats* stats_;
  const QueryControl* ctl_;
};

}  // namespace

Region ChebGrid::QueryDense(Tick t, double rho, int eval_grid,
                            BnbStats* stats, ThreadPool* pool,
                            const QueryControl* ctl) const {
  assert(eval_grid >= options_.grid_side);
  // Leaf resolution: eval_grid cells across the whole domain => normalized
  // edge 2 * g / eval_grid inside one macro-cell.
  const double min_edge_norm =
      2.0 * static_cast<double>(options_.grid_side) / eval_grid;
  const std::vector<Cheb2D>& slice = Slice(t);
  static Counter& bnb_nodes =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_nodes");
  static Counter& bnb_pruned =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_pruned");
  static Counter& bnb_accepted =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_accepted");
  static Counter& bnb_point_evals =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_point_evals");

  // Each macro-cell's search writes its own rects and counters; cell
  // rects are concatenated in cell order below, so serial and parallel
  // execution build the identical rectangle sequence before Coalesced().
  const int cell_count = grid_.cell_count();
  std::vector<std::vector<Rect>> cell_out(static_cast<size_t>(cell_count));
  std::vector<BnbStats> cell_stats(static_cast<size_t>(cell_count));

  const auto search_cell = [&](int64_t cell) {
    const Cheb2D& poly = slice[static_cast<size_t>(cell)];
    // Per-macro-cell branch-and-bound: one stats scope per cell.
    BnbStats& cs = cell_stats[static_cast<size_t>(cell)];
    if (poly.IsZero() && rho > 0) {
      ++cs.pruned_boxes;
    } else {
      BnbSearch(poly, grid_.CellRect(static_cast<int>(cell)), rho,
                min_edge_norm, &cell_out[static_cast<size_t>(cell)], &cs, ctl)
          .Run();
    }
    bnb_nodes.Add(cs.nodes_visited);
    bnb_pruned.Add(cs.pruned_boxes);
    bnb_accepted.Add(cs.accepted_boxes);
    bnb_point_evals.Add(cs.point_evals);
    // One summary event per macro cell (per-box events would swamp the
    // ring on deep searches; the counters carry totals).
    if (cs.pruned_boxes > 0) {
      FlightRecorder::Record(FrEvent::kBnbPrune, cell, cs.pruned_boxes);
    }
  };

  if (pool != nullptr && cell_count > 1) {
    pool->ParallelFor(cell_count, search_cell,
                      ctl != nullptr && ctl->active() ? ctl : nullptr);
  } else {
    for (int64_t cell = 0; cell < cell_count; ++cell) search_cell(cell);
  }

  Region out;
  for (int cell = 0; cell < cell_count; ++cell) {
    for (const Rect& r : cell_out[static_cast<size_t>(cell)]) out.Add(r);
    if (stats != nullptr) *stats += cell_stats[static_cast<size_t>(cell)];
  }
  return out.Coalesced();
}

Region ChebGrid::QueryDenseGridScan(Tick t, double rho, int eval_grid,
                                    BnbStats* stats) const {
  Grid eval(options_.extent, eval_grid);
  Region out;
  for (int row = 0; row < eval_grid; ++row) {
    for (int col = 0; col < eval_grid; ++col) {
      const Rect cell = eval.CellRect(col, row);
      if (stats != nullptr) ++stats->point_evals;
      if (Density(t, cell.Center()) >= rho) out.Add(cell);
    }
  }
  return out.Coalesced();
}

}  // namespace pdr
