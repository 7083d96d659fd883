// FFT whole-plane density engine.
//
// Answers PDR queries from the *entire* density field at once: rasterize
// every live object's predicted position at q_t onto an m x m
// closed-top/right grid (raster.h) and take its summed-area table, after
// which every cell's (2h+1)^2 block sum is four lookups. That is O(n + m^2)
// once per (tick, q_t), O(m^2) per *distinct* block half-width after that,
// and one classification pass per query sharing both — the batch
// amortization a tick with many standing queries needs: the per-query
// marginal cost is independent of the object count and of how many
// queries share the field. (The engine first computed the same integer
// block sums by FFT convolution; it keeps the name, see DESIGN.md §15.)
//
// Answer semantics (the documented error bound, DESIGN.md §15): with
// T = MinObjectsForDensity(rho, l) and the conservative / expansive block
// sums C and E of raster.h,
//
//   C(cell) >= T  ->  accept   (every point of the cell is dense)
//   E(cell) <  T  ->  reject   (no point of the cell is dense)
//   otherwise     ->  candidate
//
// so `region` (accepts) is a subset of the exact FR answer and
// `maybe_region` (accepts + candidates) a superset, both up to the
// measure-zero domain-edge locus raster.h documents; the per-cell count
// uncertainty is at most E - C, which shrinks as m grows. tests/fft_test.cc
// asserts the sandwich against exact FR across 200 seeded scenarios and
// the block sums against naive per-cell summation.
//
// Cancellation: an active QueryControl is checked at the engine's work
// boundaries — query entry, after rasterization / before the prefix sums,
// and before each new half-width's block sums — so the degradation ladder
// can abandon a field build within one O(m^2) pass. Fields are cached per
// q_t until the next update, each with its block sums per half-width; a
// cancelled build leaves no partial cache entry.

#ifndef PDR_FFT_FFT_ENGINE_H_
#define PDR_FFT_FFT_ENGINE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "pdr/common/errors.h"
#include "pdr/common/region.h"
#include "pdr/fft/raster.h"
#include "pdr/histogram/filter.h"
#include "pdr/mobility/object.h"
#include "pdr/resilience/deadline.h"

namespace pdr {

class FftDensityEngine {
 public:
  struct Options {
    double extent = 1000.0;
    /// Raster resolution m (cells per side).
    int grid = 128;
    Tick horizon = 120;  ///< H = U + W, same contract as the other engines
  };

  struct QueryResult {
    Region region;        ///< certainly dense: accepted cells
    Region maybe_region;  ///< accepts + candidates: every dense point is here
    int64_t accepted_cells = 0;
    int64_t rejected_cells = 0;
    int64_t candidate_cells = 0;
    double field_ms = 0.0;     ///< rasterize + prefix sums (0 on cache hit)
    double classify_ms = 0.0;  ///< block sums + classification + regions
    bool field_cached = false; ///< the field was already built
    int grid = 0;              ///< m this answer was computed at
  };

  explicit FftDensityEngine(const Options& options);

  const Options& options() const { return options_; }
  const RasterGrid& raster() const { return raster_; }

  void AdvanceTo(Tick now);
  Tick now() const { return now_; }

  /// Applies one update (same stream as the FR engine); invalidates every
  /// cached field.
  void Apply(const UpdateEvent& update);

  size_t live_objects() const { return table_.size(); }

  /// One snapshot query. Throws HorizonError outside [now, now + H] and
  /// CancelledError at a work boundary when `ctl` fired. Queries on one
  /// q_t share its cached field and each distinct half-width's block
  /// sums, so a query after the first is a classification pass only.
  QueryResult Query(Tick q_t, double rho, double l,
                    const QueryControl& ctl = {});

  /// Block sums over the (2h+1)^2 neighborhood for every cell at q_t
  /// (exposed for the metamorphic/differential tests). h is clamped to
  /// m - 1, past which blocks cover the grid.
  std::vector<int64_t> BlockSums(Tick q_t, int half_width,
                                 const QueryControl& ctl = {});

  /// Total raster mass at q_t == number of live in-domain objects
  /// (mass-conservation witness).
  int64_t FieldMass(Tick q_t);

 private:
  struct Field {
    SummedAreaTable counts;  ///< prefix sums of the raster counts
    /// Block sums already computed for this field, keyed by half-width.
    std::map<int, std::vector<int64_t>> sums;
  };

  Field& FieldFor(Tick q_t, const QueryControl& ctl, double* build_ms);
  const std::vector<int64_t>& SumsFor(Field& field, int half_width,
                                      const QueryControl& ctl);

  Options options_;
  RasterGrid raster_;
  Grid report_grid_;  ///< half-open cells for Region output (area-identical)
  Tick now_ = 0;
  ObjectTable table_;
  std::map<Tick, Field> fields_;
};

}  // namespace pdr

#endif  // PDR_FFT_FFT_ENGINE_H_
