// Micro-benchmarks of the hot primitives (google-benchmark): histogram
// and Chebyshev-grid update paths, TPR-tree operations, the plane sweep,
// region algebra, and polynomial evaluation/bounding. These back the
// per-operation numbers quoted in EXPERIMENTS.md.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace pdr {
namespace {

constexpr double kExtent = 1000.0;
constexpr Tick kHorizon = 120;

std::vector<UpdateEvent> SomeInserts(int n, uint64_t seed = 7) {
  return MakeUniformInserts(n, kExtent, 1.5, seed);
}

void BM_HistogramApplyInsert(benchmark::State& state) {
  DensityHistogram dh({kExtent, 100, kHorizon});
  const auto events = SomeInserts(10000);
  size_t i = 0;
  ObjectId next_id = 100000;
  for (auto _ : state) {
    UpdateEvent e = events[i++ % events.size()];
    e.id = next_id++;
    dh.Apply(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramApplyInsert);

void BM_ChebGridApplyInsert(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  ChebGrid grid({kExtent, 10, degree, kHorizon, 30.0});
  const auto events = SomeInserts(10000);
  size_t i = 0;
  ObjectId next_id = 100000;
  for (auto _ : state) {
    UpdateEvent e = events[i++ % events.size()];
    e.id = next_id++;
    grid.Apply(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChebGridApplyInsert)->Arg(3)->Arg(5)->Arg(7);

void BM_TprInsert(benchmark::State& state) {
  TprTree tree({.buffer_pages = 4096, .horizon = kHorizon});
  const auto events = SomeInserts(50000);
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = events[i % events.size()];
    tree.Insert(static_cast<ObjectId>(i), *e.new_state);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TprInsert);

void BM_TprRangeQuery(benchmark::State& state) {
  TprTree tree({.buffer_pages = 4096, .horizon = kHorizon});
  for (const auto& e : SomeInserts(50000)) tree.Apply(e);
  Rng rng(3);
  for (auto _ : state) {
    const double x = rng.Uniform(0, kExtent - 50);
    const double y = rng.Uniform(0, kExtent - 50);
    benchmark::DoNotOptimize(
        tree.RangeQuery(Rect(x, y, x + 50, y + 50), 30));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TprRangeQuery);

void BM_TprUpdate(benchmark::State& state) {
  TprTree tree({.buffer_pages = 4096, .horizon = kHorizon});
  auto events = SomeInserts(50000);
  for (const auto& e : events) tree.Apply(e);
  Rng rng(4);
  for (auto _ : state) {
    const size_t idx = rng.UniformInt(0, events.size() - 1);
    const MotionState old_state = *events[idx].new_state;
    const MotionState fresh{{rng.Uniform(0, kExtent), rng.Uniform(0, kExtent)},
                            {rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                            old_state.t_ref};
    tree.Apply({old_state.t_ref, events[idx].id, old_state, fresh});
    events[idx].new_state = fresh;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TprUpdate);

void BM_SweepCell(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (int i = 0; i < n; ++i) {
    positions.push_back({rng.Uniform(-15, 25), rng.Uniform(-15, 25)});
  }
  const Rect cell(0, 0, 10, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepCell(cell, positions, 30.0, n / 4));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepCell)->Arg(64)->Arg(512)->Arg(4096);

// l = 1 in the same 10-unit cell: the band is a thin slice of the cell
// while the Y boundary table holds every nearby object, the regime where a
// Y-sweep that scanned the whole table per strip would lose to one over
// the band.
void BM_SweepCellSmallL(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (int i = 0; i < n; ++i) {
    positions.push_back({rng.Uniform(-0.5, 10.5), rng.Uniform(-0.5, 10.5)});
  }
  const Rect cell(0, 0, 10, 10);
  // About twice the mean count of a unit square: dense spots exist.
  const int64_t n_min = 2 * n / 121 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepCell(cell, positions, 1.0, n_min));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepCellSmallL)->Arg(512)->Arg(4096);

// The real candidate cells of the serving benchmark's standing exact
// query: a seeded 10k-object trip model after U + 10 ticks, queried 20
// ticks ahead at varrho 3, l 30 (about 38 objects per cell), each cell's
// positions gathered by its own range query as Section 5.3 refines it.
struct TripCell {
  Rect rect;
  std::vector<Vec2> positions;
};
constexpr int kTripObjects = 10000;
constexpr double kTripRho = 3.0 * kTripObjects / (kExtent * kExtent);
constexpr double kTripL = 30.0;

const std::vector<TripCell>& TripModelCells() {
  static const std::vector<TripCell> cells = [] {
    constexpr Tick kU = 60;
    WorkloadConfig wc;
    wc.WithExtent(kExtent);
    wc.num_objects = kTripObjects;
    wc.max_update_interval = kU;
    wc.seed = 1;
    const Dataset ds = GenerateDataset(wc, kU + 10);
    FrEngine fr({.extent = kExtent,
                 .histogram_side = 100,
                 .horizon = 2 * kU,
                 .buffer_pages = 4096,
                 .max_update_interval = kU});
    ReplayInto(ds, -1, &fr);
    const Tick q_t = ds.duration() + 20;
    const Grid& grid = fr.histogram().grid();
    const FilterResult filter =
        FilterCells(fr.histogram(), q_t, kTripRho, kTripL);
    std::vector<TripCell> out;
    for (int flat = 0; flat < grid.cell_count(); ++flat) {
      const Rect rect = grid.CellRect(flat);
      if (filter.At(flat % grid.cells_per_side(),
                    flat / grid.cells_per_side()) != CellClass::kCandidate) {
        continue;
      }
      TripCell cell{rect, {}};
      for (const auto& [id, st] :
           fr.index().RangeQuery(rect.Expanded(kTripL / 2), q_t)) {
        (void)id;
        const Vec2 p = st.PositionAt(q_t);
        if (grid.InDomain(p)) cell.positions.push_back(p);
      }
      out.push_back(std::move(cell));
    }
    return out;
  }();
  return cells;
}

// The plane sweep on the trip model's candidate cells. One iteration sweeps
// one cell, cycling through all of them, so the time is per cell.
void BM_SweepCellTripModel(benchmark::State& state) {
  const std::vector<TripCell>& cells = TripModelCells();
  const int64_t n_min = MinObjectsForDensity(kTripRho, kTripL);
  size_t i = 0;
  int64_t objects = 0;
  for (auto _ : state) {
    const TripCell& cell = cells[i];
    benchmark::DoNotOptimize(
        SweepCell(cell.rect, cell.positions, kTripL, n_min));
    objects += static_cast<int64_t>(cell.positions.size());
    if (++i == cells.size()) i = 0;
  }
  state.counters["cells"] = static_cast<double>(cells.size());
  state.counters["objects_per_cell"] =
      static_cast<double>(objects) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SweepCellTripModel);

// FR's merge on the trip model: Coalesced() of every candidate cell's
// SweepCell rects, as they come (arg 0) or after FoldRepeatedStrips per
// cell, which the engine runs before its merge (arg 1). The sweeps run
// once, outside the timed loop; the fold is timed.
void BM_FrMergeTripModel(benchmark::State& state) {
  const bool fold = state.range(0) != 0;
  const int64_t n_min = MinObjectsForDensity(kTripRho, kTripL);
  static const std::vector<std::vector<Rect>> swept = [n_min] {
    std::vector<std::vector<Rect>> out;
    for (const TripCell& cell : TripModelCells()) {
      out.push_back(SweepCell(cell.rect, cell.positions, kTripL, n_min));
    }
    return out;
  }();
  std::vector<Rect> rects;
  size_t merged = 0;
  for (auto _ : state) {
    Region region;
    for (const std::vector<Rect>& cell : swept) {
      rects = cell;
      if (fold) FoldRepeatedStrips(&rects);
      for (const Rect& r : rects) region.Add(r);
    }
    merged = region.size();
    benchmark::DoNotOptimize(region.Coalesced());
  }
  state.counters["merge_input_rects"] = static_cast<double>(merged);
}
BENCHMARK(BM_FrMergeTripModel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Cheb2DEval(benchmark::State& state) {
  Cheb2D poly(5);
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    poly.AddIndicator(rng.Uniform(-1, 0), rng.Uniform(0, 1),
                      rng.Uniform(-1, 0), rng.Uniform(0, 1), 1.0);
  }
  double x = -1.0;
  for (auto _ : state) {
    x += 1e-4;
    if (x > 1) x = -1;
    benchmark::DoNotOptimize(poly.Eval(x, -x));
  }
}
BENCHMARK(BM_Cheb2DEval);

void BM_Cheb2DBound(benchmark::State& state) {
  Cheb2D poly(5);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    poly.AddIndicator(rng.Uniform(-1, 0), rng.Uniform(0, 1),
                      rng.Uniform(-1, 0), rng.Uniform(0, 1), 1.0);
  }
  // Boxes drawn at run time, so the optimizer cannot fold the bound of a
  // constant box once the range code is inline.
  std::vector<std::array<double, 4>> boxes(64);
  for (auto& b : boxes) {
    const double x = rng.Uniform(-1, 0.5), y = rng.Uniform(-1, 0.5);
    b = {x, x + rng.Uniform(0.01, 0.5), y, y + rng.Uniform(0.01, 0.5)};
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& b = boxes[i++ % boxes.size()];
    benchmark::DoNotOptimize(poly.Bound(b[0], b[1], b[2], b[3]));
  }
}
BENCHMARK(BM_Cheb2DBound);

void BM_Cheb2DBoundFromEdges(benchmark::State& state) {
  // The per-node bound of the branch-and-bound: T_k at the box edges is
  // already at hand (carried down the splits), so no trigonometry.
  Cheb2D poly(5);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    poly.AddIndicator(rng.Uniform(-1, 0), rng.Uniform(0, 1),
                      rng.Uniform(-1, 0), rng.Uniform(0, 1), 1.0);
  }
  struct Box {
    double z[4];
    double t[4][kChebMaxDegree + 1];
  };
  std::vector<Box> boxes(64);
  for (Box& b : boxes) {
    const double x = rng.Uniform(-1, 0.5), y = rng.Uniform(-1, 0.5);
    b.z[0] = x;
    b.z[1] = x + rng.Uniform(0.01, 0.5);
    b.z[2] = y;
    b.z[3] = y + rng.Uniform(0.01, 0.5);
    for (int e = 0; e < 4; ++e) ChebTEdge(poly.degree(), b.z[e], b.t[e]);
  }
  size_t i = 0;
  for (auto _ : state) {
    const Box& b = boxes[i++ % boxes.size()];
    benchmark::DoNotOptimize(poly.BoundFromEdges(
        b.z[0], b.z[1], b.z[2], b.z[3], b.t[0], b.t[1], b.t[2], b.t[3]));
  }
}
BENCHMARK(BM_Cheb2DBoundFromEdges);

void BM_ChebGridQueryDense(benchmark::State& state) {
  // One PA branch-and-bound over a seeded 10k-object road-network model at
  // g = 10, k = 5, eval_grid 1000, thresholded at varrho = 3.
  WorkloadConfig config;
  config.seed = 11;
  TripSimulator sim(config);
  ChebGrid grid({kExtent, 10, 5, kHorizon, 30.0});
  for (const UpdateEvent& e : sim.Bootstrap()) grid.Apply(e);
  const double rho = 3.0 * config.num_objects / (kExtent * kExtent);
  BnbStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.QueryDense(20, rho, 1000, &stats));
  }
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(stats.nodes_visited),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ChebGridQueryDense)->Unit(benchmark::kMillisecond);

void BM_Cheb2DAddIndicator(benchmark::State& state) {
  Cheb2D poly(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    poly.AddIndicator(-0.4, 0.3, -0.2, 0.6, 1.0);
  }
}
BENCHMARK(BM_Cheb2DAddIndicator)->Arg(3)->Arg(5)->Arg(7);

void BM_RegionCoalesce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  Region region;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 900);
    const double y = rng.Uniform(0, 900);
    region.Add(Rect(x, y, x + rng.Uniform(5, 60), y + rng.Uniform(5, 60)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.Coalesced());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RegionCoalesce)->Arg(100)->Arg(1000);

void BM_IntersectionArea(benchmark::State& state) {
  Rng rng(9);
  Region a, b;
  for (int i = 0; i < 500; ++i) {
    double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    a.Add(Rect(x, y, x + 40, y + 40));
    x = rng.Uniform(0, 900);
    y = rng.Uniform(0, 900);
    b.Add(Rect(x, y, x + 40, y + 40));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectionArea(a, b));
  }
}
BENCHMARK(BM_IntersectionArea);

// The coalesced FR answers at two consecutive ticks (first the earlier) of
// a seeded 10k-object model: twelve drifting clusters over a uniform
// background.
const std::pair<Region, Region>& ConsecutiveFrAnswers() {
  static const std::pair<Region, Region> answers = [] {
    constexpr int kObjects = 10000;
    FrEngine fr(
        {.extent = kExtent, .histogram_side = 100, .horizon = kHorizon});
    Rng rng(10);
    for (UpdateEvent e :
         MakeClusteredInserts(kObjects, 12, kExtent, 40.0, 0.3, 10)) {
      e.new_state->vel = {rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5)};
      fr.Apply(e);
    }
    const double rho = 3.0 * kObjects / (kExtent * kExtent);
    return std::pair<Region, Region>(
        fr.Query(/*q_t=*/4, rho, /*l=*/30.0).region,
        fr.Query(/*q_t=*/5, rho, /*l=*/30.0).region);
  }();
  return answers;
}

// One side of the standing monitor's delta: RegionDifference between the
// two answers.
void BM_RegionDifference(benchmark::State& state) {
  const auto& [previous, current] = ConsecutiveFrAnswers();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RegionDifference(current, previous));
  }
  state.counters["rects"] =
      static_cast<double>(previous.size() + current.size());
}
BENCHMARK(BM_RegionDifference)->Unit(benchmark::kMillisecond);

// The whole delta as the monitor computes it: both differences from one
// RegionDifferences sweep.
void BM_RegionDifferences(benchmark::State& state) {
  const auto& [previous, current] = ConsecutiveFrAnswers();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RegionDifferences(current, previous));
  }
  state.counters["rects"] =
      static_cast<double>(previous.size() + current.size());
}
BENCHMARK(BM_RegionDifferences)->Unit(benchmark::kMillisecond);

void BM_FilterCells(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DensityHistogram dh({kExtent, m, 4});
  for (const auto& e : SomeInserts(50000)) dh.Apply(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterCells(dh, 0, 0.05, 30.0));
  }
}
BENCHMARK(BM_FilterCells)->Arg(100)->Arg(250);

// One recorder event: the cost every instrumented call site pays. With
// the recorder disabled (the default) this is a relaxed load and a
// branch; with PDR_FLIGHT_RECORDER=1 it is four relaxed stores into the
// calling thread's ring. Run the binary both ways to see the two costs.
void BM_RecorderRecord(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    FlightRecorder::Record(FrEvent::kTaskRun, ++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderRecord);

// End-to-end FR query on a pre-built engine: the probe behind the CI
// recorder-overhead gate (scripts/check_overhead.sh). The query path
// crosses every instrumented subsystem — filter, per-cluster fetch,
// per-cell plane sweep, buffer pool — so the off-vs-on delta of this
// bench bounds what always-on recording costs a serving process.
void RunFrQuery(benchmark::State& state, bool recorder_on) {
  const bool was_enabled = FlightRecorder::Enabled();
  FlightRecorder::SetEnabled(recorder_on);
  FrEngine fr({.extent = kExtent,
               .histogram_side = 50,
               .horizon = kHorizon,
               .buffer_pages = 256});
  for (const auto& e : SomeInserts(20000)) fr.Apply(e);
  const double rho = 3.0 * 20000 / (kExtent * kExtent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fr.Query(/*q_t=*/5, rho, /*l=*/30.0));
  }
  state.SetItemsProcessed(state.iterations());
  FlightRecorder::SetEnabled(was_enabled);
}

void BM_FrQuery(benchmark::State& state) { RunFrQuery(state, false); }
BENCHMARK(BM_FrQuery);

// The same query with recording forced on. The off/on pair is the CI
// overhead gate's probe: run both in ONE process with
// --benchmark_enable_random_interleaving so the repetitions alternate,
// and thermal/scheduler drift hits both sides equally instead of biasing
// whichever side ran second.
void BM_FrQueryRecorderOn(benchmark::State& state) { RunFrQuery(state, true); }
BENCHMARK(BM_FrQueryRecorderOn);

// End-to-end monitor tick with and without the workload recorder: the
// probe behind the CI recording-overhead gate (scripts/check_replay.sh).
// Each tick runs the full FR query plus the delta computation; the
// recorded variant additionally digests the answer (raw-bits transcript +
// EXPLAIN signature hash) and appends one framed record to the log, so
// the off/on delta bounds what always-on capture costs a serving process.
// The workload is deliberately small (~1.5 ms/tick): a gate comparing two
// minima needs hundreds of iterations per repetition for the per-rep
// means to be stable, and the 20k-object query probe above fits only ~20
// — at that count scheduler noise alone read as >8% phantom overhead.
// The density is tuned so the answer is non-empty (a few hundred rects),
// making the digest hash real answer bytes rather than an empty region.
void RunMonitorTick(benchmark::State& state, bool recorded) {
  constexpr double kTickExtent = 500.0;
  constexpr int kTickObjects = 800;
  FrEngine fr({.extent = kTickExtent,
               .histogram_side = 25,
               .horizon = kHorizon,
               .buffer_pages = 256});
  for (const auto& e : MakeUniformInserts(kTickObjects, kTickExtent, 1.5, 7))
    fr.Apply(e);
  const double rho = 3.0 * kTickObjects / (kTickExtent * kTickExtent);
  PdrMonitor monitor(&fr, {.rho = rho, .l = 25.0, .lookahead = 5});
  std::unique_ptr<WorkloadRecorder> recorder;
  std::string path;
  if (recorded) {
    path = "/tmp/pdr_bench_monitor_tick_" +
           std::to_string(static_cast<long long>(::getpid())) + ".wlog";
    recorder = std::make_unique<WorkloadRecorder>(path, WorkloadLogHeader{});
    monitor.SetRecorder(recorder.get());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.OnTick(0));
  }
  state.SetItemsProcessed(state.iterations());
  recorder.reset();
  if (!path.empty()) std::remove(path.c_str());
}

void BM_MonitorTick(benchmark::State& state) { RunMonitorTick(state, false); }
BENCHMARK(BM_MonitorTick);

void BM_MonitorTickRecorded(benchmark::State& state) {
  RunMonitorTick(state, true);
}
BENCHMARK(BM_MonitorTickRecorded);

}  // namespace
}  // namespace pdr

BENCHMARK_MAIN();
