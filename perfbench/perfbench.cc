// PDR serving benchmark.
//
// One process, one caller, closed loop: every tick generates that tick's
// updates from the seeded trip simulator (untimed), applies them to every
// engine of the workload, evaluates the standing query through
// PdrMonitor::OnTick and, on approx_dashboard, a 16-spec QueryBatch. The
// next tick starts only after the previous one returned. All engines run
// serially, and every reported time is wall time; the paper's modeled
// 10 ms per page read is reported only as a separate count.
//
// --trace 1 adds a second stack assembled from the layer objects
// (DensityHistogram, TprTree on a DiskPager when durable, FilterCells,
// RangeQuery, SweepCell, region merge/difference, PaEngine,
// FftDensityEngine). It is fed the same stream in lockstep, records a span
// around every call into a layer, and must return the same answer as the
// public-API stack on every tick. Per-layer numbers come from its spans;
// reconciliation compares them with the untraced stack's tick.
//
// Usage: pdr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--scale F] [--out DIR] [--git-sha SHA]
//                      [--git-dirty 0|1] [--src-digest HEX]
// The last stdout line is the JSON result object; README.md in this
// directory documents the workloads and metrics.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pdr/common/region.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/monitor.h"
#include "pdr/core/oracle.h"
#include "pdr/core/paper_config.h"
#include "pdr/core/pa_engine.h"
#include "pdr/fft/fft_engine.h"
#include "pdr/histogram/density_histogram.h"
#include "pdr/histogram/filter.h"
#include "pdr/mobility/generator.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/serde.h"
#include "pdr/sweep/plane_sweep.h"
#include "pdr/tpr/tpr_tree.h"

#ifndef PDR_BENCH_BUILD_TYPE
#define PDR_BENCH_BUILD_TYPE "unknown"
#endif

namespace pdr_bench {
namespace {

using namespace pdr;
namespace fs = std::filesystem;

constexpr double kExtent = 1000.0;
constexpr int kHistogramSide = 100;
constexpr double kModeledIoMs = 10.0;  // the paper's charge per page read
constexpr int kSetupReps = 5;          // setup_s is the median of these
constexpr int kTailBeyond = 10;        // samples beyond the tail percentile
constexpr double kAreaTol = 1e-6;      // answer checks, as in the tests
constexpr double kMaxRunWallS = 140.0; // hard stop well inside 180 s
// peak_rss_mb is read after this many timed ticks (or at the end of a
// shorter run). Churned-out objects keep their slots in the generator's
// trip table and the oracle's object table (both indexed by id), so under
// churn the resident set grows with every tick; read at the end, it would
// follow the tick count the host managed.
constexpr size_t kRssTicks = 256;
constexpr size_t kMaxSpansWritten = 100000;  // spans file size cap (~10 MB)

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  std::string name;
  int objects = 10000;
  Tick U = 60;             // max update interval; horizon H = 2U
  double churn = 0.0;      // per-tick churn rate (true inserts/deletes)
  size_t buffer_pages = 256;
  bool durable = false;    // FR index on a DiskPager in a fresh directory
  double varrho = 3;       // standing query: rho = varrho * N / extent^2
  double l = 30;
  Tick lookahead = 20;
  bool pa_primary = false; // standing query through PaEngine
  int fft_grid = 0;        // > 0: FFT engine + per-tick QueryBatch
  int check_every = 4;     // sampled answer checks
  Tick checkpoint_every = 0;
  int64_t scrub_pages = 0;

  Tick horizon() const { return 2 * U; }
  double Rho(double v) const {
    return v * objects / (kExtent * kExtent);
  }
};

std::optional<Spec> MakeSpec(const std::string& name, double scale) {
  const auto objects = [scale](int n) {
    return std::max(200, static_cast<int>(std::lround(n * scale)));
  };
  Spec s;
  s.name = name;
  if (name == "standing_exact") {
    s.objects = objects(10000);
    // pdr_tool's sizing (10% of the dataset bytes): 16 pages against a
    // tree of about 185 node pages, so range queries miss the pool.
    s.buffer_pages = PaperConfig().BufferPagesFor(s.objects);
    s.check_every = 16;  // one oracle sweep of the domain takes ~2 s
  } else if (name == "durable_churn") {
    s.objects = objects(20000);
    s.U = 20;
    s.churn = 0.01;
    s.buffer_pages = 4096;  // the whole tree fits (about 500 node pages)
    s.durable = true;
    // At varrho 30 the plane sweep still took 98% of the tick; at 60 the
    // filter rejects all but about 2 cells and ingest plus storage take
    // over 95% of it.
    s.varrho = 60;
    s.lookahead = 0;
    s.checkpoint_every = 8;
    s.scrub_pages = 8;
  } else if (name == "approx_dashboard") {
    s.objects = objects(10000);
    s.pa_primary = true;
    s.fft_grid = 256;
    s.check_every = 8;
  } else {
    return std::nullopt;
  }
  return s;
}

std::vector<PdrMonitor::BatchQuerySpec> DashboardSpecs(const Spec& s) {
  std::vector<PdrMonitor::BatchQuerySpec> out;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    for (double l : {30.0, 60.0}) {
      for (Tick la : {10, 20}) out.push_back({s.Rho(v), l, la});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, analysed and written out at exit.

struct SpanRec {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int32_t tick;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 20); }
  int Open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0,
                      stack_.empty() ? -1 : stack_.back(), tick_});
    stack_.push_back(id);
    return id;
  }
  int64_t Close(int id) {
    SpanRec& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    stack_.pop_back();
    return s.end_ns - s.start_ns;
  }
  void SetTick(Tick t) { tick_ = static_cast<int32_t>(t); }
  void Clear() { spans_.clear(); }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<int32_t> stack_;
  int32_t tick_ = 0;
};

// Cost of one span (open + close), for the tracing-overhead estimate.
double SpanCostNs() {
  std::vector<double> per_span;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer t;
    const int64_t a = NowNs();
    for (int i = 0; i < 20000; ++i) t.Close(t.Open("calibrate.span"));
    per_span.push_back(static_cast<double>(NowNs() - a) / 20000.0);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), id_(t->Open(name)) {}
  ~Span() {
    if (id_ >= 0) t_->Close(id_);
  }
  int64_t End() {
    const int64_t d = t_->Close(id_);
    id_ = -1;
    return d;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Small helpers

bool SameRegion(const Region& a, const Region& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Rect& x = a.rects()[i];
    const Rect& y = b.rects()[i];
    if (x.x_lo != y.x_lo || x.y_lo != y.y_lo || x.x_hi != y.x_hi ||
        x.y_hi != y.y_hi) {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least kTailBeyond samples beyond it: the
// (kTailBeyond+1)-th largest sample. Falls back to the maximum when the
// run has too few samples (stated in the output).
double Tail(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t idx = n > static_cast<size_t>(kTailBeyond)
                         ? n - 1 - kTailBeyond
                         : n - 1;
  *percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Engine time inside one OnTick, as the monitor and engine measured it:
// the FR query's own timer, or the PA query stage.
double EngineMs(const PdrMonitor::Delta& delta) {
  if (delta.explain.tier == AnswerTier::kApprox) {
    double ms = 0.0;
    for (const ExplainStage& s : delta.explain.stages) ms += s.spent_ms;
    return ms;
  }
  return delta.cost.cpu_ms;
}

// FFT rung time across one batch, from each answer's EXPLAIN stages.
double FftMs(const std::vector<TieredResult>& batch) {
  double ms = 0.0;
  for (const TieredResult& r : batch) {
    for (const ExplainStage& s : r.explain.stages) {
      if (s.name == "fft") ms += s.spent_ms;
    }
  }
  return ms;
}

// Bytes this process has passed to write(2) and friends.
int64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Runs `fn` in a forked child and returns the numbers it produced. The
// answer checks sweep the whole domain and run extra FR queries; in a
// child their allocations and buffer-pool traffic stay out of the measured
// process. Empty when the child threw or died. The process has no other
// threads (serial engines), so forking is safe.
std::optional<std::vector<double>> RunInChild(
    const std::function<std::vector<double>()>& fn) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::vector<double> out = fn();
      const char* p = reinterpret_cast<const char*>(out.data());
      size_t left = out.size() * sizeof(double);
      while (left > 0) {
        const ssize_t n = write(fds[1], p, left);
        if (n <= 0) {
          code = 3;
          break;
        }
        p += n;
        left -= static_cast<size_t>(n);
      }
    } catch (...) {
      code = 2;
    }
    _exit(code);
  }
  close(fds[1]);
  std::string bytes;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  std::vector<double> out(bytes.size() / sizeof(double));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(double));
  return out;
}

// The FR engine's checkpoint metadata layout (magic, version, index kind,
// histogram state), so the traced stack checkpoints the same bytes.
std::string FrCheckpointMeta(const DensityHistogram& hist) {
  std::string meta;
  PutPod(&meta, uint32_t{0x454d5246u});
  PutPod(&meta, uint32_t{1});
  PutPod(&meta, static_cast<uint8_t>(IndexKind::kTprTree));
  hist.Serialize(&meta);
  return meta;
}

// ---------------------------------------------------------------------------
// The public-API stack (untraced): engines + monitors as a user wires them.

// The monitor hooks capture the stack's address, so it never moves.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::string dir;
  std::unique_ptr<FrEngine> fr;
  std::unique_ptr<PaEngine> pa;
  std::unique_ptr<FftDensityEngine> fft;
  std::unique_ptr<PdrMonitor> standing;
  std::unique_ptr<PdrMonitor> ladder;  // approx_dashboard's batch path
  bool checkpointed = false;           // set by the hook during a tick
  int64_t hook_ns = 0;                 // checkpoint + scrub, this tick

  void Ingest(Tick t, const std::vector<UpdateEvent>& ups) {
    fr->AdvanceTo(t);
    for (const UpdateEvent& u : ups) fr->Apply(u);
    if (pa) {
      pa->AdvanceTo(t);
      for (const UpdateEvent& u : ups) pa->Apply(u);
    }
    if (fft) {
      fft->AdvanceTo(t);
      for (const UpdateEvent& u : ups) fft->Apply(u);
    }
  }
};

FrEngine::Options FrOptions(const Spec& s, const std::string& dir) {
  return {.extent = kExtent,
          .histogram_side = kHistogramSide,
          .horizon = s.horizon(),
          .buffer_pages = s.buffer_pages,
          .io_ms = kModeledIoMs,
          .max_update_interval = s.U,
          .exec = ExecPolicy::Serial(),
          .storage_dir = dir};
}

PaEngine::Options PaOptions(const Spec& s) {
  return {.extent = kExtent,
          .poly_side = 10,
          .degree = 5,
          .horizon = s.horizon(),
          .l = s.l,
          .eval_grid = 1000,
          .exec = ExecPolicy::Serial()};
}

std::unique_ptr<Stack> MakeStack(const Spec& s, const std::string& dir) {
  auto st = std::make_unique<Stack>();
  st->dir = dir;
  st->fr = std::make_unique<FrEngine>(FrOptions(s, dir));
  PdrMonitor::Options mo;
  mo.rho = s.Rho(s.varrho);
  mo.l = s.l;
  mo.lookahead = s.lookahead;
  if (s.pa_primary) {
    st->pa = std::make_unique<PaEngine>(PaOptions(s));
    st->standing = std::make_unique<PdrMonitor>(st->pa.get(), mo);
  } else {
    st->standing = std::make_unique<PdrMonitor>(st->fr.get(), mo);
  }
  st->standing->SetExecPolicy(ExecPolicy::Serial());
  if (s.fft_grid > 0) {
    st->fft = std::make_unique<FftDensityEngine>(FftDensityEngine::Options{
        .extent = kExtent, .grid = s.fft_grid, .horizon = s.horizon()});
    PdrMonitor::Options lo = mo;
    lo.resilience.enable_exact = false;  // the FFT rung answers
    st->ladder = std::make_unique<PdrMonitor>(st->fr.get(), lo);
    st->ladder->SetFftRung(st->fft.get());
  }
  if (s.durable) {
    Stack* raw = st.get();
    st->standing->SetCheckpointHook(
        [raw] {
          const int64_t a = NowNs();
          raw->fr->Checkpoint();
          raw->checkpointed = true;
          raw->hook_ns += NowNs() - a;
        },
        s.checkpoint_every);
    const int64_t budget = s.scrub_pages;
    st->standing->SetScrubHook([raw, budget] {
      const int64_t a = NowNs();
      raw->fr->index().disk()->Scrub(budget);
      raw->hook_ns += NowNs() - a;
    });
  }
  return st;
}

// ---------------------------------------------------------------------------
// The traced stack: the same work, assembled from the layer objects.

struct LayerCounts {
  int64_t updates = 0;
  int64_t queries = 0;  // standing FR queries
  int64_t candidate_cells = 0;
  int64_t yielding_cells = 0;
  int64_t range_calls = 0;
  int64_t objects_fetched = 0;
  int64_t live_in_domain = 0;  // summed over standing FR queries
  int64_t logical_reads = 0;
  int64_t physical_reads = 0;
  SweepStats sweep;
  int64_t pa_queries = 0;
  BnbStats bnb;
  int64_t fft_queries = 0;
  int64_t fields_built = 0;
  double field_ms = 0.0;
  double classify_ms = 0.0;
  std::vector<double> checkpoint_ms;
};

struct StandingAnswer {
  Region current, appeared, vanished;
};

class TracedStack {
 public:
  TracedStack(const Spec& s, const std::string& dir, Tracer* tr)
      : spec_(s), tr_(tr) {
    hist_ = std::make_unique<DensityHistogram>(DensityHistogram::Options{
        kExtent, kHistogramSide, s.horizon()});
    tree_ = std::make_unique<TprTree>(TprTree::Options{
        .buffer_pages = s.buffer_pages,
        .horizon = s.horizon(),
        .storage_dir = dir});
    if (s.pa_primary) pa_ = std::make_unique<PaEngine>(PaOptions(s));
    if (s.fft_grid > 0) {
      fft_ = std::make_unique<FftDensityEngine>(FftDensityEngine::Options{
          .extent = kExtent, .grid = s.fft_grid, .horizon = s.horizon()});
    }
  }

  LayerCounts counts;
  TprTree& tree() { return *tree_; }

  void Ingest(Tick t, const std::vector<UpdateEvent>& ups) {
    {
      Span a(tr_, "histogram.advance");
      hist_->AdvanceTo(t);
    }
    {
      Span a(tr_, "tpr.advance");
      tree_->AdvanceTo(t);
    }
    for (const UpdateEvent& u : ups) {
      {
        Span a(tr_, "histogram.apply");
        hist_->Apply(u);
      }
      Span b(tr_, "tpr.apply");
      tree_->Apply(u);
    }
    if (pa_) {
      {
        Span a(tr_, "cheb.advance");
        pa_->AdvanceTo(t);
      }
      for (const UpdateEvent& u : ups) {
        Span a(tr_, "cheb.apply");
        pa_->Apply(u);
      }
    }
    if (fft_) {
      {
        Span a(tr_, "fft.advance");
        fft_->AdvanceTo(t);
      }
      for (const UpdateEvent& u : ups) {
        Span a(tr_, "fft.apply");
        fft_->Apply(u);
      }
    }
    counts.updates += static_cast<int64_t>(ups.size());
  }

  // Mirrors PdrMonitor::OnTick: query, delta against the previous answer,
  // then the checkpoint and scrub hooks.
  StandingAnswer Standing(Tick t, int64_t live_in_domain) {
    StandingAnswer out;
    const Tick q_t = t + spec_.lookahead;
    const double rho = spec_.Rho(spec_.varrho);
    if (pa_) {
      Span q(tr_, "cheb.query");
      PaEngine::QueryResult r = pa_->Query(q_t, rho);
      out.current = std::move(r.region);
      counts.pa_queries++;
      counts.bnb += r.bnb;
    } else {
      out.current = FrQuery(q_t, rho, spec_.l);
      counts.live_in_domain += live_in_domain;
    }
    {
      Span d(tr_, "region.delta");
      if (has_previous_) {
        out.appeared = RegionDifference(out.current, previous_);
        out.vanished = RegionDifference(previous_, out.current);
      } else {
        out.appeared = out.current.Coalesced();
      }
    }
    previous_ = out.current;
    has_previous_ = true;
    if (spec_.durable) {
      if (++since_checkpoint_ >= spec_.checkpoint_every) {
        since_checkpoint_ = 0;
        Span c(tr_, "storage.checkpoint");
        tree_->Checkpoint(FrCheckpointMeta(*hist_));
        counts.checkpoint_ms.push_back(NsToMs(c.End()));
      }
      Span s(tr_, "storage.scrub");
      tree_->disk()->Scrub(spec_.scrub_pages);
    }
    return out;
  }

  // Mirrors PdrMonitor::QueryBatch over a ladder whose FFT rung answers:
  // specs grouped by q_t, each answered by one FFT query.
  std::vector<FftDensityEngine::QueryResult> Batch(
      Tick t, const std::vector<PdrMonitor::BatchQuerySpec>& specs) {
    std::vector<FftDensityEngine::QueryResult> out(specs.size());
    std::map<Tick, std::vector<size_t>> by_qt;
    for (size_t i = 0; i < specs.size(); ++i) {
      by_qt[t + specs[i].lookahead].push_back(i);
    }
    for (const auto& [q_t, indices] : by_qt) {
      for (size_t i : indices) {
        Span q(tr_, "fft.query");
        out[i] = fft_->Query(q_t, specs[i].rho, specs[i].l);
        counts.fft_queries++;
        if (!out[i].field_cached) counts.fields_built++;
        counts.field_ms += out[i].field_ms;
        counts.classify_ms += out[i].classify_ms;
      }
    }
    return out;
  }

 private:
  // FrQueryCore's serial path, one span per layer call.
  Region FrQuery(Tick q_t, double rho, double l) {
    Span q(tr_, "core.query");
    const Grid& grid = hist_->grid();
    const int64_t n_min = MinObjectsForDensity(rho, l);
    FilterResult filter;
    {
      Span f(tr_, "histogram.filter");
      filter = FilterCellsOverSlice(grid, hist_->Slice(q_t), rho, l);
    }
    counts.queries++;
    counts.candidate_cells += filter.candidates;
    const int m = grid.cells_per_side();
    std::vector<std::vector<Rect>> outs;
    outs.reserve(static_cast<size_t>(filter.candidates));
    for (int row = 0; row < m; ++row) {
      for (int col = 0; col < m; ++col) {
        if (filter.At(col, row) != CellClass::kCandidate) continue;
        const Rect cell = grid.CellRect(col, row);
        const IoStats before = tree_->io_stats();
        std::vector<std::pair<ObjectId, MotionState>> objects;
        {
          Span r(tr_, "tpr.range");
          objects = tree_->RangeQuery(cell.Expanded(l / 2), q_t);
        }
        const IoStats io = tree_->io_stats() - before;
        counts.logical_reads += io.logical_reads;
        counts.physical_reads += io.physical_reads;
        counts.range_calls++;
        counts.objects_fetched += static_cast<int64_t>(objects.size());
        std::vector<Vec2> positions;
        positions.reserve(objects.size());
        for (const auto& [id, state] : objects) {
          (void)id;
          const Vec2 p = state.PositionAt(q_t);
          if (grid.InDomain(p)) positions.push_back(p);
        }
        SweepStats stats;
        {
          Span s(tr_, "sweep.cell");
          outs.push_back(SweepCell(cell, positions, l, n_min, &stats));
        }
        counts.sweep += stats;
        if (!outs.back().empty()) counts.yielding_cells++;
      }
    }
    Span g(tr_, "region.merge");
    Region region;
    size_t next = 0;
    for (int row = 0; row < m; ++row) {
      for (int col = 0; col < m; ++col) {
        const CellClass cls = filter.At(col, row);
        if (cls == CellClass::kAccept) {
          region.Add(grid.CellRect(col, row));
        } else if (cls == CellClass::kCandidate) {
          for (const Rect& r : outs[next++]) region.Add(r);
        }
      }
    }
    return region.Coalesced();
  }

  const Spec& spec_;
  Tracer* tr_;
  std::unique_ptr<DensityHistogram> hist_;
  std::unique_ptr<TprTree> tree_;
  std::unique_ptr<PaEngine> pa_;
  std::unique_ptr<FftDensityEngine> fft_;
  Region previous_;
  bool has_previous_ = false;
  Tick since_checkpoint_ = 0;
};

// ---------------------------------------------------------------------------
// Run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string src_digest = "unknown";
};

struct StoreCounters {
  int64_t checkpoints = 0;
  int64_t pages_logged = 0;
  int64_t wal_bytes = 0;
  int64_t wal_fsyncs = 0;

  static StoreCounters Of(const DiskPager& d) {
    return {d.checkpoint_stats().checkpoints, d.checkpoint_stats().pages_logged,
            d.wal_stats().bytes_appended, d.wal_stats().fsyncs};
  }
  StoreCounters operator-(const StoreCounters& o) const {
    return {checkpoints - o.checkpoints, pages_logged - o.pages_logged,
            wal_bytes - o.wal_bytes, wal_fsyncs - o.wal_fsyncs};
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void Fail(const std::string& why) {
    failed++;
    if (failures.size() < 8) failures.push_back(why);
  }
};

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

class Runner {
 public:
  Runner(const Args& a, const Spec& s) : args_(a), spec_(s) {}

  int Run();

 private:
  struct SetupResult {
    double seconds = 0.0;
    double generate_s = 0.0;
  };

  std::string FreshDir(const std::string& tag) {
    if (!spec_.durable) return "";
    const fs::path p = fs::path(args_.out_dir) / "stores" /
                       (spec_.name + "-" + std::to_string(args_.seed) + "-" +
                        std::to_string(getpid()) + "-" + tag);
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
  }

  SetupResult Setup(int rep, bool keep);
  void TimedPhase();
  void TracedTick(Tick t, const std::vector<UpdateEvent>& ups,
                  const PdrMonitor::Delta& delta,
                  const std::vector<TieredResult>& batch);
  void CheckTick(Tick t, const PdrMonitor::Delta& delta,
                 const std::vector<TieredResult>& batch);
  void CheckRecovery();
  std::vector<Metric> EndToEnd();
  std::vector<Metric> PerLayer();
  void PrintReconciliation(const std::map<std::string, double>& self_ms,
                           double span_overhead_ms);
  void WriteRows(const std::vector<Metric>& metrics, const char* kind);
  void WriteSpans();
  std::string Provenance() const;

  const Args args_;
  const Spec spec_;
  Outcome outcome_;

  std::unique_ptr<TripSimulator> sim_;
  std::unique_ptr<Oracle> oracle_;  // live object table for checks
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<TracedStack> traced_;
  std::vector<PdrMonitor::BatchQuerySpec> batch_specs_;
  Tick now_ = 0;
  Tick first_timed_ = 0;
  bool last_checkpointed_ = false;

  std::vector<double> setup_s_, generate_s_;
  std::vector<double> tick_ms_, batch_ms_;
  double measured_s_ = 0.0;
  int64_t updates_ = 0;
  int64_t bytes_written_ = 0;
  double peak_rss_mb_ = 0.0;  // at kRssTicks timed ticks; 0 until then
  double recover_s_ = 0.0;
  RecoveryStats recovery_stats_;
  StoreCounters store_;  // durable store activity during the timed phase

  // Approximation checks (pooled areas over sampled ticks).
  double pa_truth_area_ = 0, pa_fn_area_ = 0, pa_fp_area_ = 0;
  double fft_exact_area_ = 0, fft_uncertain_area_ = 0;
  int64_t checks_ = 0;

  // Untraced OnTick minus engine and hook time; batch minus FFT rung.
  std::vector<double> overhead_ms_, ladder_ms_;
  // Traced-run reconciliation.
  std::vector<double> traced_tick_ms_, traced_batch_ms_;
};

Runner::SetupResult Runner::Setup(int rep, bool keep) {
  WorkloadConfig wc;
  wc.WithExtent(kExtent);
  wc.num_objects = spec_.objects;
  wc.max_update_interval = spec_.U;
  wc.churn_rate = spec_.churn;
  wc.seed = args_.seed;

  // Setup time counts generation and engine work only; feeding the check
  // oracle and the traced stack is benchmark machinery.
  int64_t gen_ns = 0;
  int64_t eng_ns = 0;
  int64_t t0 = NowNs();
  auto sim = std::make_unique<TripSimulator>(wc);
  std::vector<UpdateEvent> ups = sim->Bootstrap();
  gen_ns += NowNs() - t0;

  const std::string dir = FreshDir(keep ? "live" : "rep" + std::to_string(rep));
  t0 = NowNs();
  std::unique_ptr<Stack> stack = MakeStack(spec_, dir);
  stack->Ingest(0, ups);
  eng_ns += NowNs() - t0;

  if (keep) {
    oracle_ = std::make_unique<Oracle>(kExtent);
    for (const UpdateEvent& u : ups) oracle_->Apply(u);
    if (args_.trace) {
      tracer_ = std::make_unique<Tracer>();
      traced_ = std::make_unique<TracedStack>(spec_, FreshDir("traced"),
                                              tracer_.get());
      traced_->Ingest(0, ups);
    }
  }

  // U + 10 warm-up ticks, so every object has re-reported. The last one
  // also evaluates the standing query (and batch) to warm the buffer pool
  // and give the monitor a previous answer.
  const Tick warm = spec_.U + 10;
  for (Tick t = 1; t <= warm; ++t) {
    t0 = NowNs();
    ups = sim->Advance(t);
    gen_ns += NowNs() - t0;
    t0 = NowNs();
    stack->Ingest(t, ups);
    if (t == warm) {
      stack->standing->OnTick(t);
      if (stack->ladder) stack->ladder->QueryBatch(t, batch_specs_);
    }
    eng_ns += NowNs() - t0;
    if (!keep) continue;
    oracle_->AdvanceTo(t);
    for (const UpdateEvent& u : ups) oracle_->Apply(u);
    if (traced_) {
      traced_->Ingest(t, ups);
      if (t == warm) {
        traced_->Standing(t, 0);
        if (stack->ladder) traced_->Batch(t, batch_specs_);
      }
    }
  }

  SetupResult r{static_cast<double>(gen_ns + eng_ns) * 1e-9,
                static_cast<double>(gen_ns) * 1e-9};
  if (keep) {
    sim_ = std::move(sim);
    stack_ = std::move(stack);
    now_ = warm;
    if (traced_) {
      traced_->counts = LayerCounts{};
      tracer_->Clear();
    }
  } else {
    stack.reset();
    if (!dir.empty()) fs::remove_all(dir);
  }
  return r;
}

void Runner::TimedPhase() {
  const int64_t start_wall = NowNs();
  first_timed_ = now_ + 1;
  if (spec_.durable) {
    const DiskPager* d = stack_->fr->index().disk();
    store_ = StoreCounters::Of(*d);
  }
  while (measured_s_ < args_.seconds &&
         static_cast<double>(NowNs() - start_wall) * 1e-9 < kMaxRunWallS) {
    const Tick t = ++now_;
    const std::vector<UpdateEvent> ups = sim_->Advance(t);
    oracle_->AdvanceTo(t);
    for (const UpdateEvent& u : ups) oracle_->Apply(u);

    PdrMonitor::Delta delta;
    std::vector<TieredResult> batch;
    stack_->checkpointed = false;
    stack_->hook_ns = 0;
    const int64_t written_before = spec_.durable ? WrittenBytes() : 0;
    outcome_.attempted++;
    try {
      const int64_t a = NowNs();
      stack_->Ingest(t, ups);
      const int64_t b = NowNs();
      delta = stack_->standing->OnTick(t);
      const int64_t c = NowNs();
      int64_t d = c;
      if (stack_->ladder) {
        batch = stack_->ladder->QueryBatch(t, batch_specs_);
        d = NowNs();
        batch_ms_.push_back(NsToMs(d - c));
      }
      tick_ms_.push_back(NsToMs(c - a));
      overhead_ms_.push_back(NsToMs(c - b - stack_->hook_ns) -
                             EngineMs(delta));
      if (stack_->ladder) ladder_ms_.push_back(batch_ms_.back() - FftMs(batch));
      measured_s_ += static_cast<double>(d - a) * 1e-9;
    } catch (const std::exception& e) {
      outcome_.Fail("tick " + std::to_string(t) + " threw: " + e.what());
      break;
    }
    if (spec_.durable) bytes_written_ += WrittenBytes() - written_before;
    if (tick_ms_.size() == kRssTicks) peak_rss_mb_ = PeakRssMb();
    updates_ += static_cast<int64_t>(ups.size());
    last_checkpointed_ = stack_->checkpointed;
    outcome_.attempted += static_cast<int64_t>(batch.size());
    if (traced_) TracedTick(t, ups, delta, batch);
    CheckTick(t, delta, batch);
  }
  if (spec_.durable) {
    const DiskPager* d = stack_->fr->index().disk();
    store_ = StoreCounters::Of(*d) - store_;
  }
}

void Runner::TracedTick(Tick t, const std::vector<UpdateEvent>& ups,
                        const PdrMonitor::Delta& delta,
                        const std::vector<TieredResult>& batch) {
  tracer_->SetTick(t);
  const int64_t live =
      spec_.pa_primary
          ? 0
          : static_cast<int64_t>(
                oracle_->InDomainPositions(t + spec_.lookahead).size());
  StandingAnswer ans;
  {
    Span root(tracer_.get(), "tick");
    traced_->Ingest(t, ups);
    ans = traced_->Standing(t, live);
    traced_tick_ms_.push_back(NsToMs(root.End()));
  }
  if (!SameRegion(ans.current, delta.current) ||
      !SameRegion(ans.appeared, delta.appeared) ||
      !SameRegion(ans.vanished, delta.vanished)) {
    outcome_.Fail("tick " + std::to_string(t) +
                  ": traced standing answer differs from the untraced one");
  }
  if (batch.empty()) return;
  std::vector<FftDensityEngine::QueryResult> res;
  {
    Span root(tracer_.get(), "batch");
    res = traced_->Batch(t, batch_specs_);
    traced_batch_ms_.push_back(NsToMs(root.End()));
  }
  for (size_t i = 0; i < res.size(); ++i) {
    if (!SameRegion(res[i].region, batch[i].region) ||
        !SameRegion(res[i].maybe_region, batch[i].maybe_region)) {
      outcome_.Fail("tick " + std::to_string(t) + " batch spec " +
                    std::to_string(i) +
                    ": traced answer differs from the untraced one");
    }
  }
}

// Untimed answer checks on sampled ticks.
void Runner::CheckTick(Tick t, const PdrMonitor::Delta& delta,
                       const std::vector<TieredResult>& batch) {
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].tier != AnswerTier::kFft) {
      outcome_.Fail("tick " + std::to_string(t) + " batch spec " +
                    std::to_string(i) + " answered at tier " +
                    AnswerTierName(batch[i].tier));
    }
  }
  if ((t - first_timed_) % spec_.check_every != 0) return;
  if (spec_.durable) return;  // checked once, against the reopened store
  checks_++;
  const double rho = spec_.Rho(spec_.varrho);
  if (!spec_.pa_primary) {
    const auto r = RunInChild([&] {
      const Region truth = oracle_->DenseRegions(delta.q_t, rho, spec_.l);
      return std::vector<double>{SymmetricDifferenceArea(truth, delta.current)};
    });
    if (!r || r->size() != 1 || (*r)[0] > kAreaTol) {
      outcome_.Fail("tick " + std::to_string(t) +
                    ": FR standing answer differs from the oracle");
    }
    return;
  }
  // The PA standing answer against exact FR (the paper's r_fn and r_fp,
  // areas pooled over sampled ticks), and one batch spec per sampled tick,
  // rotating through all 16, against the FFT sandwich
  // region <= exact <= maybe_region.
  const size_t i = static_cast<size_t>(checks_ - 1) % batch_specs_.size();
  const PdrMonitor::BatchQuerySpec& bs = batch_specs_[i];
  const auto r = RunInChild([&] {
    const Region exact = stack_->fr->Query(delta.q_t, rho, spec_.l).region;
    const Region ex =
        stack_->fr->Query(t + bs.lookahead, bs.rho, bs.l).region;
    return std::vector<double>{
        exact.Area(),
        DifferenceArea(exact, delta.current),
        DifferenceArea(delta.current, exact),
        ex.Area(),
        DifferenceArea(batch[i].maybe_region, batch[i].region),
        RegionDifference(batch[i].region, ex).Area(),
        RegionDifference(ex, batch[i].maybe_region).Area()};
  });
  if (!r || r->size() != 7) {
    outcome_.Fail("tick " + std::to_string(t) + ": answer check crashed");
    return;
  }
  const std::vector<double>& v = *r;
  pa_truth_area_ += v[0];
  pa_fn_area_ += v[1];
  pa_fp_area_ += v[2];
  fft_exact_area_ += v[3];
  fft_uncertain_area_ += v[4];
  if (v[5] > kAreaTol || v[6] > kAreaTol) {
    outcome_.Fail("tick " + std::to_string(t) + " batch spec " +
                  std::to_string(i) + ": FFT sandwich broken");
  }
}

// The reopened store must answer exactly as the live engine did at the
// last checkpoint. The timed phase ends on any tick, so an untimed final
// checkpoint makes the live state the checkpointed one.
void Runner::CheckRecovery() {
  if (!last_checkpointed_) stack_->fr->Checkpoint();
  const Tick now = stack_->fr->now();
  const std::vector<std::pair<double, double>> probes = {
      {spec_.Rho(spec_.varrho), spec_.l}, {spec_.Rho(3), spec_.l}};
  std::vector<Region> live;
  for (const auto& [rho, l] : probes) {
    live.push_back(stack_->fr->Query(now, rho, l).region);
  }
  const std::string dir = stack_->dir;
  stack_.reset();  // closes the live store
  outcome_.attempted++;
  try {
    const int64_t a = NowNs();
    FrEngine reopened(FrOptions(spec_, dir));
    recover_s_ = static_cast<double>(NowNs() - a) * 1e-9;
    recovery_stats_ = reopened.index().disk()->recovery_stats();
    bool same = reopened.recovered() && reopened.now() == now;
    for (size_t i = 0; same && i < probes.size(); ++i) {
      same = SameRegion(
          reopened.Query(now, probes[i].first, probes[i].second).region,
          live[i]);
    }
    if (!same) {
      outcome_.Fail("reopened store answers differently from the live "
                    "engine at the last checkpoint");
    }
  } catch (const std::exception& e) {
    outcome_.Fail(std::string("reopening the store threw: ") + e.what());
  }
}

std::vector<Metric> Runner::EndToEnd() {
  double pct = 0.0;
  const double tail = Tail(tick_ms_, &pct);
  return {
      {"setup_s", Median(setup_s_), "s"},
      {"tick_p50_ms", Median(tick_ms_), "ms"},
      {"tick_tail_ms", tail, "ms"},
      {"updates_per_s", Ratio(static_cast<double>(updates_), measured_s_),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb_ > 0.0 ? peak_rss_mb_ : PeakRssMb(), "MB"},
  };
}

std::vector<Metric> Runner::PerLayer() {
  // Per span name: total duration and count; per layer: self time.
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;  // by layer (name before '.')
  const std::vector<SpanRec>& spans = tracer_->spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const std::string name = s.name;
    const size_t dot = name.find('.');
    if (dot == std::string::npos) continue;  // roots: tick, batch
    total_ms[name] += NsToMs(s.end_ns - s.start_ns);
    self_ms[name.substr(0, dot)] += NsToMs(s.end_ns - s.start_ns - child_ns[i]);
  }
  const LayerCounts& c = traced_->counts;
  const double ticks = static_cast<double>(tick_ms_.size());
  const double batches = static_cast<double>(batch_ms_.size());
  const double ups = static_cast<double>(c.updates);
  const double q = static_cast<double>(c.queries);
  const double pq = static_cast<double>(c.pa_queries);
  const double ckpts = static_cast<double>(store_.checkpoints);
  double untraced_ms = 0.0;
  for (double v : tick_ms_) untraced_ms += v;
  for (double v : batch_ms_) untraced_ms += v;
  double layers_ms = 0.0;
  for (const auto& [layer, ms] : self_ms) layers_ms += ms;
  double batch_pct = 0.0;
  const double batch_tail = Tail(batch_ms_, &batch_pct);
  const double span_overhead_ms =
      static_cast<double>(spans.size()) * SpanCostNs() * 1e-6;

  PrintReconciliation(self_ms, span_overhead_ms);
  return {
      {"histogram.apply_us",
       Ratio(total_ms["histogram.apply"] + total_ms["histogram.advance"], ups) *
           1e3,
       "us"},
      {"histogram.filter_ms", Ratio(total_ms["histogram.filter"], q), "ms"},
      {"histogram.candidate_cells",
       Ratio(static_cast<double>(c.candidate_cells), q), "count"},
      {"histogram.candidate_yield",
       Ratio(static_cast<double>(c.yielding_cells),
             static_cast<double>(c.candidate_cells)),
       "ratio"},
      {"tpr.apply_us",
       Ratio(total_ms["tpr.apply"] + total_ms["tpr.advance"], ups) * 1e3, "us"},
      {"tpr.range_ms", Ratio(total_ms["tpr.range"], ticks), "ms"},
      {"tpr.range_calls", Ratio(static_cast<double>(c.range_calls), ticks),
       "count"},
      {"tpr.objects_fetched",
       Ratio(static_cast<double>(c.objects_fetched), ticks), "count"},
      {"tpr.fetch_redundancy",
       Ratio(static_cast<double>(c.objects_fetched),
             static_cast<double>(c.live_in_domain)),
       "ratio"},
      {"tpr.node_pages", static_cast<double>(traced_->tree().node_count()),
       "count"},
      {"storage.logical_reads",
       Ratio(static_cast<double>(c.logical_reads), ticks), "count"},
      {"storage.physical_reads",
       Ratio(static_cast<double>(c.physical_reads), ticks), "count"},
      {"storage.hit_ratio",
       c.logical_reads > 0
           ? 1.0 - Ratio(static_cast<double>(c.physical_reads),
                         static_cast<double>(c.logical_reads))
           : 0.0,
       "ratio"},
      {"storage.modeled_io_ms",
       Ratio(static_cast<double>(c.physical_reads), ticks) * kModeledIoMs,
       "ms"},
      {"storage.checkpoint_ms", Median(c.checkpoint_ms), "ms"},
      {"storage.pages_logged",
       Ratio(static_cast<double>(store_.pages_logged), ckpts), "count"},
      {"storage.wal_bytes", Ratio(static_cast<double>(store_.wal_bytes), ckpts),
       "bytes"},
      // WAL fsyncs (the durable point and the reset) as counted by the WAL,
      // plus the three the checkpoint protocol performs outside it: data.pdr,
      // checkpoint.pdr and its directory.
      {"storage.fsyncs",
       ckpts > 0 ? Ratio(static_cast<double>(store_.wal_fsyncs), ckpts) + 3
                 : 0.0,
       "count"},
      {"storage.scrub_us", Ratio(total_ms["storage.scrub"], ticks) * 1e3, "us"},
      {"storage.recovery_ms", recovery_stats_.recovery_ms, "ms"},
      {"storage.redo_records", static_cast<double>(recovery_stats_.redo_records),
       "count"},
      {"sweep.ms", Ratio(total_ms["sweep.cell"], ticks), "ms"},
      {"sweep.x_strips", Ratio(static_cast<double>(c.sweep.x_strips), ticks),
       "count"},
      {"sweep.y_sweeps", Ratio(static_cast<double>(c.sweep.y_sweeps), ticks),
       "count"},
      {"sweep.y_strips", Ratio(static_cast<double>(c.sweep.y_strips), ticks),
       "count"},
      {"sweep.dense_rects",
       Ratio(static_cast<double>(c.sweep.dense_rects), ticks), "count"},
      {"region.merge_ms", Ratio(total_ms["region.merge"], ticks), "ms"},
      {"region.delta_ms", Ratio(total_ms["region.delta"], ticks), "ms"},
      {"cheb.apply_us",
       Ratio(total_ms["cheb.apply"] + total_ms["cheb.advance"], ups) * 1e3,
       "us"},
      {"cheb.query_ms", Ratio(total_ms["cheb.query"], pq), "ms"},
      {"cheb.bnb_nodes", Ratio(static_cast<double>(c.bnb.nodes_visited), pq),
       "count"},
      {"cheb.bnb_pruned_share",
       Ratio(static_cast<double>(c.bnb.pruned_boxes),
             static_cast<double>(c.bnb.nodes_visited)),
       "ratio"},
      {"cheb.point_evals", Ratio(static_cast<double>(c.bnb.point_evals), pq),
       "count"},
      {"fft.field_ms", Ratio(c.field_ms, batches), "ms"},
      {"fft.fields_built", Ratio(static_cast<double>(c.fields_built), batches),
       "count"},
      {"fft.classify_ms", Ratio(c.classify_ms, batches), "ms"},
      {"fft.field_cached_share",
       c.fft_queries > 0
           ? 1.0 - Ratio(static_cast<double>(c.fields_built),
                         static_cast<double>(c.fft_queries))
           : 0.0,
       "ratio"},
      {"resilience.ladder_ms", Median(ladder_ms_), "ms"},
      {"monitor.overhead_ms", Median(overhead_ms_), "ms"},
      {"mobility.generate_s", Median(generate_s_), "s"},
      {"unattributed_share", Ratio(untraced_ms - layers_ms, untraced_ms),
       "ratio"},
      {"trace.overhead_share", Ratio(span_overhead_ms, untraced_ms), "ratio"},
      {"batch_p50_ms", Median(batch_ms_), "ms"},
      {"batch_tail_ms", batch_tail, "ms"},
      {"approx_fn_ratio", Ratio(pa_fn_area_, pa_truth_area_), "ratio"},
      {"approx_fp_ratio", Ratio(pa_fp_area_, pa_truth_area_), "ratio"},
      {"fft_uncertain_ratio", Ratio(fft_uncertain_area_, fft_exact_area_),
       "ratio"},
      {"disk_bytes_per_update",
       Ratio(static_cast<double>(bytes_written_), static_cast<double>(updates_)),
       "bytes"},
      {"recover_s", recover_s_, "s"},
      {"failed_ratio",
       Ratio(static_cast<double>(outcome_.failed),
             static_cast<double>(outcome_.attempted)),
       "ratio"},
  };
}

// Self time of each layer per tick (traced run), then what the layers do
// not explain of the untraced tick, then what tracing adds (span count
// times the calibrated cost of one span). Modeled I/O is its own column
// and is never summed into a time.
void Runner::PrintReconciliation(const std::map<std::string, double>& self_ms,
                                 double span_overhead_ms) {
  const double n = static_cast<double>(tick_ms_.size());
  double untraced = 0.0, traced = 0.0, layers = 0.0;
  for (double v : tick_ms_) untraced += v;
  for (double v : batch_ms_) untraced += v;
  for (double v : traced_tick_ms_) traced += v;
  for (double v : traced_batch_ms_) traced += v;
  const double modeled = static_cast<double>(traced_->counts.physical_reads) *
                         kModeledIoMs;
  std::printf("\nreconciliation (%s, seed %llu, %.0f ticks; ms per tick, "
              "tick = ingest + standing query%s)\n",
              spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              n, batch_ms_.empty() ? "" : " + batch");
  std::printf("  %-14s %12s %8s %16s\n", "layer", "self_ms", "share",
              "modeled_io_ms");
  std::vector<Metric> rows;
  for (const auto& [layer, ms] : self_ms) {
    layers += ms;
    const bool io_row = layer == "storage";
    std::printf("  %-14s %12.4f %7.2f%% %16s\n", layer.c_str(), ms / n,
                100.0 * Ratio(ms, untraced),
                io_row ? JsonNum(modeled / n).c_str() : "-");
    rows.push_back({"self_ms." + layer, ms / n, "ms"});
  }
  if (self_ms.count("storage") == 0 && modeled > 0) {
    std::printf("  %-14s %12s %8s %16.4f\n", "storage", "-", "-", modeled / n);
  }
  std::printf("  %-14s %12.4f %7.2f%%   (untraced tick %.4f ms)\n",
              "unattributed", (untraced - layers) / n,
              100.0 * Ratio(untraced - layers, untraced), untraced / n);
  std::printf("  %-14s %12.4f %7.2f%%   (traced stack tick %.4f ms)\n",
              "trace_overhead", span_overhead_ms / n,
              100.0 * Ratio(span_overhead_ms, untraced), traced / n);
  rows.push_back({"self_ms.unattributed", (untraced - layers) / n, "ms"});
  rows.push_back({"self_ms.trace_overhead", span_overhead_ms / n, "ms"});
  rows.push_back({"modeled_io_ms", modeled / n, "ms"});
  WriteRows(rows, "reconciliation");
}

std::string Runner::Provenance() const {
  char params[512];
  std::snprintf(
      params, sizeof(params),
      "{\"objects\":%d,\"U\":%d,\"horizon\":%d,\"churn_rate\":%s,"
      "\"buffer_pages\":%zu,\"durable\":%s,\"varrho\":%s,\"l\":%s,"
      "\"lookahead\":%d,\"pa_primary\":%s,\"fft_grid\":%d,"
      "\"checkpoint_every\":%d,\"scrub_pages\":%lld,\"scale\":%s,"
      "\"seconds\":%s,\"exec\":\"serial\"}",
      spec_.objects, spec_.U, spec_.horizon(), JsonNum(spec_.churn).c_str(),
      spec_.buffer_pages, spec_.durable ? "true" : "false",
      JsonNum(spec_.varrho).c_str(), JsonNum(spec_.l).c_str(),
      spec_.lookahead, spec_.pa_primary ? "true" : "false", spec_.fft_grid,
      spec_.checkpoint_every, static_cast<long long>(spec_.scrub_pages),
      JsonNum(args_.scale).c_str(), JsonNum(args_.seconds).c_str());
  return "\"git_sha\":" + JsonStr(args_.git_sha) +
         ",\"git_dirty\":" + JsonStr(args_.git_dirty) +
         ",\"src_digest\":" + JsonStr(args_.src_digest) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":" + JsonStr(std::string("gcc ") + __VERSION__) +
         ",\"build_type\":" + JsonStr(PDR_BENCH_BUILD_TYPE) +
         ",\"utc\":" + JsonStr(UtcNow()) +
         ",\"workload\":" + JsonStr(spec_.name) +
         ",\"seed\":" + std::to_string(args_.seed) +
         ",\"trace\":" + (args_.trace ? "1" : "0") + ",\"params\":" + params;
}

// One JSONL row per metric, each stamped with full provenance.
void Runner::WriteRows(const std::vector<Metric>& metrics, const char* kind) {
  std::ofstream out(fs::path(args_.out_dir) / "results.jsonl", std::ios::app);
  const std::string prov = Provenance();
  for (const Metric& m : metrics) {
    out << "{\"kind\":" << JsonStr(kind) << ",\"metric\":" << JsonStr(m.name)
        << ",\"value\":" << JsonNum(m.value) << ",\"unit\":" << JsonStr(m.unit)
        << "," << prov << "}\n";
  }
}

void Runner::WriteSpans() {
  const fs::path p = fs::path(args_.out_dir) /
                     ("spans-" + spec_.name + "-seed" +
                      std::to_string(args_.seed) + ".jsonl");
  std::FILE* f = std::fopen(p.c_str(), "w");
  if (f == nullptr) return;
  // Every span feeds the per-layer metrics; the file keeps whole ticks up
  // to kMaxSpansWritten spans, so a fast workload does not write
  // hundreds of megabytes.
  const std::vector<SpanRec>& spans = tracer_->spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  size_t written = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (written >= kMaxSpansWritten && s.tick != spans[i - 1].tick) break;
    ++written;
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"tick\":%d}\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent, s.tick);
  }
  std::fprintf(f, "{\"spans_total\":%zu,\"spans_written\":%zu}\n",
               spans.size(), written);
  std::fclose(f);
}

int Runner::Run() {
  fs::create_directories(args_.out_dir);
  if (spec_.fft_grid > 0) batch_specs_ = DashboardSpecs(spec_);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const SetupResult r = Setup(rep, rep == kSetupReps - 1);
    setup_s_.push_back(r.seconds);
    generate_s_.push_back(r.generate_s);
  }
  TimedPhase();

  std::vector<Metric> metrics = EndToEnd();
  if (spec_.durable) {
    CheckRecovery();
    fs::remove_all(fs::path(args_.out_dir) / "stores");
  }
  double pct = 0.0;
  Tail(tick_ms_, &pct);
  std::printf("workload %s seed %llu: %zu timed ticks, %lld updates, "
              "%.3f s measured; tick_tail_ms is p%.1f (the %d-th largest of "
              "%zu ticks)\n",
              spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              tick_ms_.size(), static_cast<long long>(updates_), measured_s_,
              pct, kTailBeyond + 1, tick_ms_.size());
  std::printf("provenance {%s}\n", Provenance().c_str());
  WriteRows(metrics, "end_to_end");
  if (traced_) {
    const std::vector<Metric> layer = PerLayer();
    WriteRows(layer, "per_layer");
    std::printf("\n");
    for (const Metric& m : metrics) {
      std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    metrics = layer;
    WriteSpans();
  }
  for (const Metric& m : metrics) {
    std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : outcome_.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": " +
                     std::string(outcome_.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome_.attempted) +
                     ", \"failed\": " + std::to_string(outcome_.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonStr(metrics[i].name) + ": {\"value\": " +
            JsonNum(metrics[i].value) + ", \"unit\": " +
            JsonStr(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scale") a.scale = std::stod(v);
    else if (k == "--out") a.out_dir = v;
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--git-dirty") a.git_dirty = v;
    else if (k == "--src-digest") a.src_digest = v;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0 || a.scale <= 0) {
    return std::nullopt;
  }
  return a;
}

}  // namespace
}  // namespace pdr_bench

int main(int argc, char** argv) {
  using namespace pdr_bench;
  std::optional<Args> args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception&) {
    args.reset();
  }
  if (!args) {
    std::fprintf(stderr,
                 "usage: pdr_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--out DIR]\n");
    return 2;
  }
  const std::optional<Spec> spec = MakeSpec(args->workload, args->scale);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
    return 2;
  }
  try {
    Runner runner(*args, *spec);
    return runner.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
