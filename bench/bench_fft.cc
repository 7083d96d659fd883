// Extension bench: the FFT whole-plane density engine (DESIGN.md §15).
// Prices the engine's two headline claims on a steady paper workload:
//
//   fft_field_build          cost of one whole-plane answer as the raster
//                            resolution m grows: rasterize + summed-area
//                            table (field_ms), block sums for the two
//                            half-widths + classification + both regions
//                            (classify_ms), and the cost of a second query
//                            against the cached field. The field is
//                            O(n + m^2) for n objects and each distinct
//                            half-width O(m^2).
//   fft_batch_amortization   per-query cost of answering N (rho, l) pairs
//                            against one tick's cached field: one
//                            field regardless of N, so per-query cost
//                            should fall toward the pure classification
//                            cost as N grows. fields_built counts the
//                            fields actually built (always 1 per row).
//
// Expected shapes: field_ms stays nearly flat while rasterizing the n
// objects dominates and then grows like m^2; classify_ms and cached_ms
// grow ~4x per grid doubling; fields_built == 1 in every amortization
// row.

#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

using namespace pdr;

Counter& FieldsBuilt() {
  return MetricsRegistry::Global().GetCounter("pdr.fft.fields_built");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdr;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::Banner(env, "bench_fft",
                "FFT whole-plane density engine: field build cost and "
                "batch amortization (§15)");

  const int objects = env.ScaledObjects(100000);
  const double l = 30.0;
  const double rho = env.Rho(objects, 2);
  const bench::SteadyWorkload w = bench::MakeSteadyWorkload(env, objects);
  const Tick q_t = w.now + env.paper.prediction_window / 2;
  const Tick horizon = 2 * env.paper.max_update_interval;
  std::printf("dataset: %d objects, q_t=%d, rho=%.3g, l=%g\n", objects, q_t,
              rho, l);

  bench::SeriesPrinter build(
      "fft_field_build",
      {"grid", "field_ms", "classify_ms", "cached_ms", "accepted_cells"});
  for (const int grid : {64, 128, 256, 512}) {
    FftDensityEngine fft(
        {.extent = env.paper.extent, .grid = grid, .horizon = horizon});
    ReplayInto(w.dataset, -1, &fft);
    const auto first = fft.Query(q_t, rho, l);
    Timer cached_timer;
    const auto second = fft.Query(q_t, rho, l);
    const double cached_ms = cached_timer.ElapsedMillis();
    build.Row({static_cast<double>(grid), first.field_ms, first.classify_ms,
               cached_ms, static_cast<double>(second.accepted_cells)});
  }
  build.Flush();

  bench::SeriesPrinter amortized(
      "fft_batch_amortization",
      {"queries", "fields_built", "total_ms", "per_query_ms"});
  for (const int n : {1, 8, 64}) {
    FftDensityEngine fft(
        {.extent = env.paper.extent, .grid = 128, .horizon = horizon});
    ReplayInto(w.dataset, -1, &fft);
    // N standing queries against the same tick, thresholds spread around
    // the paper's rho so classification outcomes differ per query.
    std::vector<double> rhos;
    for (int i = 0; i < n; ++i) {
      rhos.push_back(rho * (0.5 + 1.5 * i / std::max(1, n - 1)));
    }
    if (n == 1) rhos[0] = rho;
    const int64_t built_before = FieldsBuilt().value();
    Timer timer;
    for (const double r : rhos) fft.Query(q_t, r, l);
    const double total_ms = timer.ElapsedMillis();
    const int64_t built =
        FieldsBuilt().value() - built_before;
    amortized.Row({static_cast<double>(rhos.size()),
                   static_cast<double>(built), total_ms, total_ms / n});
  }
  amortized.Flush();

  std::printf(
      "\nExpected: field_ms is O(n + m^2), flat until the m^2 table "
      "outweighs rasterizing; classify_ms and cached_ms are O(m^2), ~4x "
      "per grid doubling; every amortization row builds exactly one "
      "field, so per_query_ms falls toward the classification floor as N "
      "grows.\n");
  return 0;
}
