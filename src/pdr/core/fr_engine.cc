#include "pdr/core/fr_engine.h"

#include <cassert>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "pdr/bx/bx_tree.h"
#include "pdr/core/fr_snapshot_state.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/versioned_histogram.h"
#include "pdr/mvcc/versioned_pager.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/parallel/thread_pool.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/serde.h"
#include "pdr/tpr/tpr_tree.h"

namespace pdr {
namespace {

std::unique_ptr<mvcc::VersionedPager> MakeVersionedPager(
    const FrEngine::Options& options) {
  if (options.snapshots == nullptr) return nullptr;
  if (!options.storage_dir.empty()) {
    throw std::invalid_argument(
        "FrEngine: snapshots and storage_dir are mutually exclusive");
  }
  return std::make_unique<mvcc::VersionedPager>(options.snapshots);
}

std::unique_ptr<ObjectIndex> MakeIndex(const FrEngine::Options& options,
                                       Pager* external_pager) {
  switch (options.index) {
    case IndexKind::kBxTree: {
      BxTree::Options bx;
      bx.buffer_pages = options.buffer_pages;
      bx.extent = options.extent;
      bx.max_update_interval = options.max_update_interval;
      bx.storage_dir = options.storage_dir;
      bx.fault_injector = options.fault_injector;
      bx.external_pager = external_pager;
      return std::make_unique<BxTree>(bx);
    }
    case IndexKind::kTprTree:
      break;
  }
  TprTree::Options tpr;
  tpr.buffer_pages = options.buffer_pages;
  tpr.horizon = options.horizon;
  tpr.storage_dir = options.storage_dir;
  tpr.fault_injector = options.fault_injector;
  tpr.external_pager = external_pager;
  return std::make_unique<TprTree>(tpr);
}

constexpr uint32_t kEngineMetaMagic = 0x454d5246u;  // "FRME"
constexpr uint32_t kEngineMetaVersion = 1;

struct FrMetrics {
  Counter& queries;
  Counter& cells_accepted;
  Counter& cells_rejected;
  Counter& cells_candidate;
  Counter& objects_fetched;
  Histogram& query_ms;
  Histogram& refine_objects;

  static FrMetrics& Get() {
    static FrMetrics m{
        MetricsRegistry::Global().GetCounter("pdr.fr.queries"),
        MetricsRegistry::Global().GetCounter("pdr.fr.cells_accepted"),
        MetricsRegistry::Global().GetCounter("pdr.fr.cells_rejected"),
        MetricsRegistry::Global().GetCounter("pdr.fr.cells_candidate"),
        MetricsRegistry::Global().GetCounter("pdr.fr.objects_fetched"),
        MetricsRegistry::Global().GetHistogram("pdr.fr.query_ms"),
        MetricsRegistry::Global().GetHistogram("pdr.fr.refine_objects"),
    };
    return m;
  }
};

// One candidate cluster's fetch: the positions at q_t of the objects its
// window holds, counting-sorted by the grid cell they fall in
// (Grid::ColOf/RowOf) over the cells the window spans. Bucket (col, row)
// is positions[offsets[b], offsets[b + 1]) with
// b = (row - row_lo) * cols + (col - col_lo).
struct ClusterFetch {
  int col_lo = 0, row_lo = 0, cols = 0;
  std::vector<Vec2> positions;
  std::vector<uint32_t> offsets;
};

ClusterFetch FetchCluster(const Grid& grid, const ObjectIndex& index,
                          const Rect& window, Tick q_t) {
  ClusterFetch fetch;
  fetch.col_lo = grid.ColOf(window.x_lo);
  fetch.row_lo = grid.RowOf(window.y_lo);
  fetch.cols = grid.ColOf(window.x_hi) - fetch.col_lo + 1;
  const int rows = grid.RowOf(window.y_hi) - fetch.row_lo + 1;
  const bool record = FlightRecorder::Enabled();
  const IoStats io_before = record ? index.io_stats() : IoStats{};
  std::vector<Vec2> unsorted;
  for (const auto& [id, state] : index.RangeQuery(window, q_t)) {
    (void)id;
    unsorted.push_back(state.PositionAt(q_t));
  }
  if (record) {
    const IoStats io = index.io_stats() - io_before;
    FlightRecorder::Record(
        FrEvent::kRangeQuery, static_cast<int64_t>(unsorted.size()),
        FlightRecorder::Pack(io.logical_reads, io.physical_reads));
  }
  const auto bucket = [&](Vec2 p) {
    const int col = grid.ColOf(p.x) - fetch.col_lo;
    const int row = grid.RowOf(p.y) - fetch.row_lo;
    // Every result lies in `window`, and ColOf/RowOf are monotone.
    assert(col >= 0 && col < fetch.cols && row >= 0 && row < rows);
    return static_cast<size_t>(row) * fetch.cols + col;
  };
  // Count into b + 2 and scatter through b + 1: that leaves offsets[b] at
  // the start of bucket b.
  fetch.offsets.assign(static_cast<size_t>(fetch.cols) * rows + 2, 0);
  for (const Vec2 p : unsorted) ++fetch.offsets[bucket(p) + 2];
  for (size_t b = 2; b < fetch.offsets.size(); ++b) {
    fetch.offsets[b] += fetch.offsets[b - 1];
  }
  fetch.positions.resize(unsorted.size());
  for (const Vec2 p : unsorted) {
    fetch.positions[fetch.offsets[bucket(p) + 1]++] = p;
  }
  return fetch;
}

}  // namespace

FrEngine::FrEngine(const Options& options)
    : options_(options),
      histogram_({options.extent, options.histogram_side, options.horizon}),
      versioned_pager_(MakeVersionedPager(options)),
      index_(MakeIndex(options, versioned_pager_.get())) {
  if (options_.snapshots != nullptr) {
    histogram_.EnableDirtyTracking();
    vhist_ = std::make_unique<mvcc::VersionedHistogram>(&histogram_,
                                                        options_.snapshots);
  }
  if (index_->recovered()) {
    // The index restored its pages and metadata from the store; the
    // engine-level blob riding on the same checkpoint restores the filter
    // side, so filter and refinement resume from one consistent instant.
    ByteReader reader(index_->recovered_app_meta());
    if (reader.Get<uint32_t>() != kEngineMetaMagic ||
        reader.Get<uint32_t>() != kEngineMetaVersion) {
      throw std::runtime_error(
          "recovered store does not hold FR engine state");
    }
    const auto kind = static_cast<IndexKind>(reader.Get<uint8_t>());
    if (kind != options_.index) {
      throw std::runtime_error(
          "recovered store was checkpointed with a different index kind");
    }
    histogram_.Restore(&reader);
  }
}

FrEngine::~FrEngine() = default;

void FrEngine::Checkpoint() {
  if (!index_->durable()) return;
  if (FlightRecorder::Enabled()) {
    // Recorded before the WAL appends, so a crash dump still shows the
    // checkpoint that crashed; the flush turns the pool's dirty frames
    // into the pager's dirty set, which is what this checkpoint logs.
    index_->FlushBufferPool();
    FlightRecorder::Record(
        FrEvent::kCheckpoint, static_cast<int64_t>(histogram_.now()),
        static_cast<int64_t>(index_->disk()->dirty_page_count()));
  }
  std::string meta;
  PutPod(&meta, kEngineMetaMagic);
  PutPod(&meta, kEngineMetaVersion);
  PutPod(&meta, static_cast<uint8_t>(options_.index));
  histogram_.Serialize(&meta);
  index_->Checkpoint(meta);
}

void FrEngine::SetExecPolicy(const ExecPolicy& exec) {
  options_.exec = exec;
  pool_.reset();  // rebuilt lazily at the new width
}

ThreadPool* FrEngine::PoolForQuery() {
  if (!options_.exec.IsParallel()) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.exec.threads);
  }
  return pool_.get();
}

void FrEngine::AdvanceTo(Tick now) {
  histogram_.AdvanceTo(now);
  index_->AdvanceTo(now);
}

void FrEngine::Apply(const UpdateEvent& update) {
  histogram_.Apply(update);
  index_->Apply(update);
}

void FrEngine::ValidateQt(Tick q_t) const {
  ValidateHorizon("fr", q_t, histogram_.now(), options_.horizon);
}

FrEngine::QueryResult FrEngine::Query(Tick q_t, double rho, double l,
                                      bool cold_cache,
                                      const QueryControl& ctl) {
  ValidateQt(q_t);
  return FrQueryCore(histogram_.grid(), histogram_.Slice(q_t), *index_,
                     PoolForQuery(), options_.io_ms, q_t, rho, l, cold_cache,
                     ctl);
}

uint64_t FrEngine::Commit() {
  if (versioned_pager_ == nullptr) {
    throw std::logic_error("FrEngine::Commit: snapshots not enabled");
  }
  // Flush first: the buffer pool may hold dirty tree pages the pager has
  // never seen, and a published epoch must be the complete tree image.
  index_->FlushBufferPool();
  versioned_pager_->PublishDirty();
  vhist_->PublishDirty();
  auto state = std::make_shared<FrSnapshotState>();
  state->now = histogram_.now();
  state->index = options_.index;
  state->size = index_->size();
  state->height = index_->height();
  switch (options_.index) {
    case IndexKind::kTprTree:
      state->tpr_root = static_cast<const TprTree&>(*index_).root();
      break;
    case IndexKind::kBxTree:
      state->bx = static_cast<const BxTree&>(*index_).read_view();
      break;
  }
  return options_.snapshots->Commit(std::move(state));
}

FrEngine::QueryResult FrQueryCore(
    const Grid& grid, const std::vector<DensityHistogram::Counter>& slice,
    ObjectIndex& index, ThreadPool* pool, double io_ms, Tick q_t, double rho,
    double l, bool cold_cache, const QueryControl& ctl) {
  // Entry cancellation point: a query offered with an already-expired
  // deadline (or cancelled token) fails here deterministically, before
  // any engine work.
  if (ctl.active()) ctl.Check();
  if (cold_cache) index.DropCaches();
  const IoStats io_before = index.io_stats();
  Timer timer;

  FrEngine::QueryResult result;
  // Flight-recorder attribution: reuse the caller's query id (the ladder
  // opens one per TieredResult) or mint a fresh one for direct queries.
  std::optional<FlightRecorder::QueryScope> fr_scope;
  if (FlightRecorder::Enabled()) {
    result.query_id = FlightRecorder::CurrentQueryId();
    if (result.query_id == 0) {
      result.query_id = FlightRecorder::NextQueryId();
      fr_scope.emplace(result.query_id);
    }
    int64_t rho_bits = 0;
    std::memcpy(&rho_bits, &rho, sizeof(rho_bits));
    FlightRecorder::Record(FrEvent::kQueryBegin, q_t, rho_bits);
  }
  const int64_t n_min = MinObjectsForDensity(rho, l);

  // --- filtering step ------------------------------------------------------
  FilterResult filter;
  {
    Timer filter_timer;
    filter = FilterCellsOverSlice(grid, slice, rho, l);
    result.filter_ms = filter_timer.ElapsedMillis();
    FlightRecorder::Record(
        FrEvent::kFilter,
        FlightRecorder::Pack(filter.accepted, filter.rejected),
        filter.candidates);
  }
  result.accepted_cells = filter.accepted;
  result.rejected_cells = filter.rejected;
  result.candidate_cells = filter.candidates;

  // --- refinement step -----------------------------------------------------
  // Three sub-phases so serial and parallel execution produce the same
  // rectangle sequence and the same I/O. Fetch: one range query per
  // 8-connected cluster of candidate cells, over the bounding box of its
  // members' l/2-windows, on the calling thread; the positions are bucketed
  // by grid cell. Sweep: each candidate gathers exactly the objects its own
  // window holds from its cluster's buckets and sweeps them (inline and in
  // order when serial, fanned out over the pool when parallel). Merge:
  // per-cell outputs in row-major order, interleaved with the accepted
  // cells' rectangles.
  Timer refine_timer;
  const int m = grid.cells_per_side();
  const QueryControl* control = ctl.active() ? &ctl : nullptr;
  struct Candidate {
    int col, row;
    size_t cluster;
  };
  struct CellOut {
    std::vector<Rect> rects;
    int64_t objects = 0;
    SweepStats sweep;
  };
  // Cancellation points after the filter and per cluster: one fetch is at
  // most one traversal.
  if (control != nullptr) control->Check();
  const std::vector<CandidateCluster> clusters = CandidateClusters(filter);
  std::vector<ClusterFetch> fetches;
  fetches.reserve(clusters.size());
  std::vector<size_t> cluster_of(static_cast<size_t>(m) * m);
  for (size_t k = 0; k < clusters.size(); ++k) {
    if (control != nullptr) control->Check();
    for (const int cell : clusters[k].cells) cluster_of[cell] = k;
    fetches.push_back(
        FetchCluster(grid, index, clusters[k].FetchWindow(grid, l), q_t));
  }

  std::vector<Candidate> candidates;
  candidates.reserve(static_cast<size_t>(filter.candidates));
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      if (filter.At(col, row) == CellClass::kCandidate) {
        candidates.push_back({col, row, cluster_of[grid.FlatIndex(col, row)]});
      }
    }
  }
  std::vector<CellOut> outs(candidates.size());

  const auto refine_cell = [&](int64_t i) {
    // Cancellation point per candidate cell (plus per sweep strip inside
    // SweepCell): a deadline-expired refinement abandons the query here.
    if (control != nullptr) control->Check();
    const Candidate c = candidates[static_cast<size_t>(i)];
    CellOut& out = outs[static_cast<size_t>(i)];
    FlightRecorder::Record(FrEvent::kCellBegin,
                           FlightRecorder::Pack(c.col, c.row));
    // The cell's own range query would return exactly the fetched objects
    // its window holds: the index applies the same closed test to the same
    // PositionAt(q_t) double, and the window lies inside the cluster's.
    const Rect cell = grid.CellRect(c.col, c.row);
    const Rect window = cell.Expanded(l / 2);
    const ClusterFetch& fetch = fetches[c.cluster];
    const int col_lo = grid.ColOf(window.x_lo) - fetch.col_lo;
    const int col_hi = grid.ColOf(window.x_hi) - fetch.col_lo;
    std::vector<Vec2> positions;
    for (int row = grid.RowOf(window.y_lo); row <= grid.RowOf(window.y_hi);
         ++row) {
      const size_t base = static_cast<size_t>(row - fetch.row_lo) * fetch.cols;
      for (uint32_t j = fetch.offsets[base + col_lo];
           j < fetch.offsets[base + col_hi + 1]; ++j) {
        const Vec2 p = fetch.positions[j];
        if (!window.ContainsClosed(p)) continue;
        ++out.objects;
        if (grid.InDomain(p)) positions.push_back(p);
      }
    }
    out.rects = SweepCell(cell, positions, l, n_min, &out.sweep, control);
    FoldRepeatedStrips(&out.rects);
    FlightRecorder::Record(
        FrEvent::kCellEnd, FlightRecorder::Pack(c.col, c.row),
        FlightRecorder::Pack(out.objects, out.sweep.dense_rects));
  };

  if (pool != nullptr && candidates.size() > 1) {
    pool->ParallelFor(static_cast<int64_t>(candidates.size()), refine_cell,
                      control);
  } else {
    for (int64_t i = 0; i < static_cast<int64_t>(candidates.size()); ++i) {
      refine_cell(i);
    }
  }

  // --- deterministic merge -------------------------------------------------
  Region region;
  size_t next_candidate = 0;
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      const CellClass cls = filter.At(col, row);
      if (cls == CellClass::kAccept) {
        region.Add(grid.CellRect(col, row));
      } else if (cls == CellClass::kCandidate) {
        const CellOut& out = outs[next_candidate++];
        for (const Rect& r : out.rects) region.Add(r);
        result.objects_fetched += out.objects;
        result.sweep += out.sweep;
      }
    }
  }
  result.region = region.Coalesced();
  result.refine_ms = refine_timer.ElapsedMillis();
  FlightRecorder::Record(FrEvent::kQueryEnd, result.objects_fetched,
                         result.sweep.dense_rects);

  result.cost.cpu_ms = timer.ElapsedMillis();
  result.cost.io = index.io_stats() - io_before;
  result.cost.io_ms = result.cost.io.ReadCostMs(io_ms);

  FrMetrics& metrics = FrMetrics::Get();
  metrics.queries.Increment();
  metrics.cells_accepted.Add(filter.accepted);
  metrics.cells_rejected.Add(filter.rejected);
  metrics.cells_candidate.Add(filter.candidates);
  metrics.objects_fetched.Add(result.objects_fetched);
  metrics.query_ms.Observe(result.cost.TotalMs());
  metrics.refine_objects.Observe(
      static_cast<double>(result.objects_fetched));
  return result;
}

FrEngine::QueryResult FrEngine::QueryInterval(Tick q_lo, Tick q_hi,
                                              double rho, double l,
                                              const QueryControl& ctl) {
  ValidateQt(q_lo);
  ValidateQt(q_hi);
  QueryResult total;
  Region all;
  for (Tick t = q_lo; t <= q_hi; ++t) {
    QueryResult snap = Query(t, rho, l, /*cold_cache=*/false, ctl);
    all.Add(snap.region);
    total.cost += snap.cost;
    total.accepted_cells += snap.accepted_cells;
    total.rejected_cells += snap.rejected_cells;
    total.candidate_cells += snap.candidate_cells;
    total.objects_fetched += snap.objects_fetched;
    total.sweep += snap.sweep;
  }
  total.region = all.Coalesced();
  return total;
}

FrEngine::DhResult FrEngine::DhOnlyQuery(Tick q_t, double rho, double l,
                                         bool optimistic) {
  ValidateQt(q_t);
  Timer timer;
  DhResult result;
  result.filter = FilterCells(histogram_, q_t, rho, l);
  result.region =
      CellsAsRegion(result.filter, histogram_.grid(), optimistic);
  result.cpu_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace pdr
