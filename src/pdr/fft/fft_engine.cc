#include "pdr/fft/fft_engine.h"

#include <algorithm>
#include <utility>

#include "pdr/common/stats.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"

namespace pdr {
namespace {

struct FftMetrics {
  Counter& queries;
  Counter& fields_built;
  Counter& field_cache_hits;
  Histogram& field_build_ms;
  Histogram& classify_ms;

  static FftMetrics& Get() {
    static FftMetrics m{
        MetricsRegistry::Global().GetCounter("pdr.fft.queries"),
        MetricsRegistry::Global().GetCounter("pdr.fft.fields_built"),
        MetricsRegistry::Global().GetCounter("pdr.fft.field_cache_hits"),
        MetricsRegistry::Global().GetHistogram("pdr.fft.field_build_ms"),
        MetricsRegistry::Global().GetHistogram("pdr.fft.classify_ms"),
    };
    return m;
  }
};

}  // namespace

FftDensityEngine::FftDensityEngine(const Options& options)
    : options_(options),
      raster_(options.extent, options.grid),
      report_grid_(options.extent, options.grid) {}

void FftDensityEngine::AdvanceTo(Tick now) {
  now_ = now;
  // Fields behind the clock can never be queried again (horizon starts at
  // now); they only hold memory.
  fields_.erase(fields_.begin(), fields_.lower_bound(now));
}

void FftDensityEngine::Apply(const UpdateEvent& update) {
  table_.Apply(update);
  fields_.clear();  // every cached field predicts from stale states now
}

FftDensityEngine::Field& FftDensityEngine::FieldFor(Tick q_t,
                                                    const QueryControl& ctl,
                                                    double* build_ms) {
  const auto it = fields_.find(q_t);
  if (it != fields_.end()) {
    FftMetrics::Get().field_cache_hits.Increment();
    if (build_ms != nullptr) *build_ms = 0.0;
    return it->second;
  }
  Timer timer;
  ctl.Check();  // boundary: about to rasterize
  const std::vector<int64_t> counts =
      RasterizeCounts(raster_, table_.PositionsAt(q_t));
  ctl.Check();  // boundary: rasterized, about to take the prefix sums
  Field field{SummedAreaTable(counts, options_.grid), {}};
  const double elapsed = timer.ElapsedMillis();
  if (build_ms != nullptr) *build_ms = elapsed;
  FftMetrics& m = FftMetrics::Get();
  m.fields_built.Increment();
  m.field_build_ms.Observe(elapsed);
  FlightRecorder::Record(FrEvent::kFftField, static_cast<int64_t>(q_t),
                         static_cast<int64_t>(options_.grid));
  return fields_.emplace(q_t, std::move(field)).first->second;
}

const std::vector<int64_t>& FftDensityEngine::SumsFor(Field& field,
                                                      int half_width,
                                                      const QueryControl& ctl) {
  const auto it = field.sums.find(half_width);
  if (it != field.sums.end()) return it->second;
  ctl.Check();  // boundary: about to sum a new half-width's blocks
  return field.sums.emplace(half_width, field.counts.BlockSums(half_width))
      .first->second;
}

FftDensityEngine::QueryResult FftDensityEngine::Query(Tick q_t, double rho,
                                                      double l,
                                                      const QueryControl& ctl) {
  ValidateHorizon("fft", q_t, now_, options_.horizon);
  ctl.Check();  // boundary: query entry
  FftMetrics::Get().queries.Increment();

  QueryResult out;
  out.grid = options_.grid;
  const bool had_field = fields_.find(q_t) != fields_.end();
  Field& field = FieldFor(q_t, ctl, &out.field_ms);
  out.field_cached = had_field;

  Timer classify_timer;
  const int m = options_.grid;
  const int64_t threshold = MinObjectsForDensity(rho, l);
  const int a = raster_.ConservativeHalfWidth(l);
  const int b = std::min(raster_.ExpansiveHalfWidth(l), m - 1);
  const std::vector<int64_t>* cons =
      a >= 0 ? &SumsFor(field, std::min(a, m - 1), ctl) : nullptr;
  const std::vector<int64_t>& expansive = SumsFor(field, b, ctl);

  FilterResult filter;
  filter.cells_per_side = m;
  filter.classes.resize(static_cast<size_t>(m) * m);
  for (size_t i = 0; i < filter.classes.size(); ++i) {
    const int64_t cons_count = cons != nullptr ? (*cons)[i] : 0;
    if (cons_count >= threshold) {
      filter.classes[i] = CellClass::kAccept;
      ++filter.accepted;
    } else if (expansive[i] < threshold) {
      filter.classes[i] = CellClass::kReject;
      ++filter.rejected;
    } else {
      filter.classes[i] = CellClass::kCandidate;
      ++filter.candidates;
    }
  }
  out.region = CellsAsRegion(filter, report_grid_, /*include_candidates=*/false);
  out.maybe_region =
      CellsAsRegion(filter, report_grid_, /*include_candidates=*/true);
  out.accepted_cells = filter.accepted;
  out.rejected_cells = filter.rejected;
  out.candidate_cells = filter.candidates;
  out.classify_ms = classify_timer.ElapsedMillis();
  FftMetrics::Get().classify_ms.Observe(out.classify_ms);
  return out;
}

std::vector<int64_t> FftDensityEngine::BlockSums(Tick q_t, int half_width,
                                                 const QueryControl& ctl) {
  ValidateHorizon("fft", q_t, now_, options_.horizon);
  Field& field = FieldFor(q_t, ctl, nullptr);
  return SumsFor(field, std::clamp(half_width, 0, options_.grid - 1), ctl);
}

int64_t FftDensityEngine::FieldMass(Tick q_t) {
  ValidateHorizon("fft", q_t, now_, options_.horizon);
  return FieldFor(q_t, QueryControl{}, nullptr).counts.Total();
}

}  // namespace pdr
