// pdr_tool — command-line workbench over the full library API.
//
//   pdr_tool gen  --out city.pdrd [--objects N] [--extent E]
//                 [--duration T] [--seed S] [--interval U]
//   pdr_tool info --in city.pdrd
//   pdr_tool query --in city.pdrd --varrho R --l L [--qt T]
//                  [--engine fr|pa|both] [--index tpr|bx] [--threads N]
//                  [--trace FILE] [--deadline-ms D] [--degrade 0|1]
//   pdr_tool monitor --in city.pdrd --varrho R --l L [--lookahead W]
//                    [--every K] [--threads N] [--trace FILE]
//                    [--audit-rate R] [--report FILE] [--interval S]
//                    [--degree K] [--fail-on-drift] [--deadline-ms D]
//                    [--max-inflight M] [--degrade 0|1]
//   pdr_tool explain --in city.pdrd --varrho R --l L [--qt T]
//                    [--deadline-ms D] [--degrade 0|1] [--threads N]
//                    [--format text|json] [--flight-dir DIR]
//   pdr_tool stats --in city.pdrd --varrho R --l L [--qt T]
//                  [--engine fr|pa|both] [--index tpr|bx] [--queries N]
//                  [--json FILE] [--format text|prometheus]
//   pdr_tool save --in city.pdrd --wal-dir DIR [--index tpr|bx]
//                 [--checkpoint-every K]
//   pdr_tool recover --in city.pdrd --wal-dir DIR [--index tpr|bx]
//                    [--varrho R] [--l L] [--qt T]
//   pdr_tool fsck --wal-dir DIR [--repair] [--json]
//   pdr_tool record --in city.pdrd --log run.wlog --varrho R --l L
//                   [--lookahead W] [--every K] [--threads N]
//                   [--deadline-ms D] [--max-inflight M] [--degrade 0|1]
//                   [--degree K] [--bundle-dir DIR] [--flight-dir DIR]
//   pdr_tool replay (--log run.wlog | --bundle DIR) [--verify | --bench]
//                   [--threads N] [--digests] [--jsonl FILE]
//
// `gen` synthesizes and saves a dataset; `query` replays it and answers a
// snapshot PDR query with the chosen engine(s); `monitor` replays while a
// standing query reports appeared/vanished dense regions; `stats` runs a
// small query workload and dumps the metrics registry (human-readable to
// stdout, JSONL with --json).
//
// `monitor --audit-rate=R` switches the standing query to the fast PA
// engine and shadow-audits a fraction R of the answers against exact FR
// on the same snapshot (plus cost-model calibration of every replay).
// `--report FILE` streams one audit_window JSONL line per `--interval S`
// ticks ("-" for stdout; per-tick human output then moves to stderr) and
// prints a human-readable end-of-run report with percentile tables.
// `--fail-on-drift` exits 3 when the EWMA drift detector flagged any
// signal (PA recall/precision, predicted-vs-actual I/O ratio).
//
// `--threads N` (query, monitor) fans the parallel query stages out over
// N threads (0 = hardware concurrency); answers are bit-identical to the
// default serial execution, only wall-clock changes.
//
// `--trace FILE` (query, monitor) turns the flight recorder on and, after
// each query and each evaluated tick, appends the events recorded since
// the previous drain to FILE in the recorder's JSONL dump format ("-" for
// stdout), then a final metrics snapshot. `query` drops the dataset
// replay's events before each query runs; a `monitor` tick's block keeps
// its ingest. See EXPERIMENTS.md for a walkthrough of reading a trace.
//
// `--deadline-ms D` (query, monitor) bounds each query's wall time: on
// overrun the degradation ladder (DESIGN.md §11) downgrades exact FR to PA
// approximate, then to the histogram-only conservative answer; every
// result is stamped with the achieved tier. `--degrade 0` fails the query
// instead of degrading. `--max-inflight M` (monitor) sheds ticks when more
// than M evaluations are already in flight. Unknown flags and commands are
// errors (exit 2), not silently ignored.
//
// `explain` runs one query through the degradation ladder and prints its
// per-query provenance record: which tier answered and why, what every
// stage spent against the budget, candidate/accepted/rejected histogram
// cells, objects fetched, pages touched. `--format=json` emits the same
// record as one JSON line for scripting.
//
// `--flight-dir DIR` (query, explain, monitor) arms the flight recorder:
// per-thread rings record compact micro-events (cell visits, filter
// verdicts, page faults, WAL appends, tier transitions...) at ~ns cost,
// and any deadline miss / drift alert / crash / SLO alert snapshots them
// into DIR as JSONL plus a Chrome trace-event file (load it in Perfetto
// or chrome://tracing). `--slo-ms D` (monitor) tracks multi-window burn
// rates of the D-ms latency SLO — plus tier mix, shed rate, and audit
// quality — and on sustained burn raises an alert, dumps the recorder,
// and halves the admission bound until the long window recovers.
//
// `stats --format=prometheus` renders the same registry snapshot in the
// Prometheus text exposition format (names sanitized, labels preserved,
// histograms as quantile summaries) for scrape-style ingestion.
//
// `record` replays a dataset through the standing monitor while a
// checksummed workload log captures every update batch and per-tick
// result digest (DESIGN.md §13). `--bundle-dir DIR` additionally turns
// every flight-recorder incident dump into a self-contained repro bundle
// under DIR. `replay` re-drives a recorded log: the default `--verify`
// mode recomputes every digest and exits 3 on any divergence (at any
// `--threads` width — captures are thread-invariant); `--bench` re-drives
// as fast as possible and reports p50/p95/p99 per-tick latency plus the
// answer-tier mix (`--jsonl FILE` emits the same numbers as one JSONL
// series row for scripts/check_replay.sh). `--bundle DIR` replays the
// workload log inside a repro bundle instead of a bare log file.
//
// `save` replays a dataset into a *durable* FR engine (WAL + checkpoints
// in --wal-dir; see DESIGN.md §10), checkpointing every K ticks and once
// at the end. `recover` reopens that directory — recovering from the WAL
// if the last run died mid-checkpoint — and answers a query from the
// recovered state alone, without replaying the dataset (--in supplies
// only the workload configuration, which must match the save run).
//
// `fsck` verifies a durable store offline against the per-page integrity
// trailers (DESIGN.md §16) without constructing a pager: every damaged
// slot is reported (page, offset, expected/actual checksum, whether a
// committed WAL image covers it) instead of stopping at the first.
// `--repair` rewrites WAL-covered slots in place; `--json` emits the
// report as one JSON object. Exit 0 = clean or fully repairable/repaired,
// 3 = unrepairable damage (or untrusted store metadata). `monitor
// --wal-dir DIR` runs the standing query durably over DIR and, with
// `--scrub-budget P`, verifies P pages of the store per evaluated tick
// from the monitor's scrub hook, healing silent damage online.

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pdr/mobility/dataset_io.h"
#include "pdr/pdr.h"

namespace {

using namespace pdr;

// Scoped `--trace FILE` plumbing: Drain() appends the flight-recorder
// events recorded since the previous drain as one dump-format block,
// Discard() drops them (the dataset replay in front of a query); the
// destructor appends a metrics snapshot and reports. The recorder itself
// is armed by ArmFlightRecorder.
class TraceOutput {
 public:
  explicit TraceOutput(const std::string& path) : path_(path) {
    if (path.empty()) return;
    file_ = path == "-" ? stdout : std::fopen(path.c_str(), "a");
    if (file_ == nullptr) {
      std::fprintf(stderr, "error: cannot open trace file %s\n",
                   path.c_str());
      return;
    }
    PdrObs::SetEnabled(true);
  }

  void Drain() {
    if (file_ == nullptr) return;
    const FlightRecorder::DrainResult drained =
        FlightRecorder::Global().Drain();
    FlightRecorder::WriteJsonl(file_, drained.events, "trace", 0);
    lines_ += 1 + static_cast<int64_t>(drained.events.size());
    overwritten_ += drained.overwritten;
  }

  void Discard() {
    if (file_ != nullptr) FlightRecorder::Global().Drain();
  }

  ~TraceOutput() {
    if (file_ == nullptr) return;
    if (file_ != stdout) std::fclose(file_);
    JsonlWriter metrics(path_);
    WriteMetricsJsonl(&metrics, MetricsRegistry::Global().TakeSnapshot());
    std::fprintf(stderr,
                 "trace: wrote %lld JSONL lines to %s (%lld events "
                 "overwritten)\n",
                 static_cast<long long>(lines_ + metrics.lines_written()),
                 path_.c_str(), static_cast<long long>(overwritten_));
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  int64_t lines_ = 0;
  int64_t overwritten_ = 0;
};

// Per-command flag vocabulary: anything else is a typo the tool must
// refuse (a silently ignored --deadline-ms would run unbounded).
const std::map<std::string, std::set<std::string>>& CommandFlags() {
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"gen", {"out", "objects", "extent", "duration", "seed", "interval"}},
      {"info", {"in"}},
      {"query",
       {"in", "varrho", "l", "qt", "engine", "index", "threads", "trace",
        "deadline-ms", "degrade", "flight-dir", "fft-grid"}},
      {"explain",
       {"in", "varrho", "l", "qt", "deadline-ms", "degrade", "threads",
        "format", "flight-dir"}},
      {"monitor",
       {"in", "varrho", "l", "lookahead", "every", "threads", "trace",
        "audit-rate", "report", "interval", "degree", "fail-on-drift",
        "deadline-ms", "max-inflight", "degrade", "flight-dir", "slo-ms",
        "concurrent", "wal-dir", "scrub-budget", "checkpoint-every"}},
      {"stats",
       {"in", "varrho", "l", "qt", "engine", "index", "queries", "json",
        "format"}},
      {"save", {"in", "wal-dir", "index", "checkpoint-every"}},
      {"recover", {"in", "wal-dir", "index", "varrho", "l", "qt"}},
      {"fsck", {"wal-dir", "repair", "json"}},
      {"record",
       {"in", "log", "varrho", "l", "lookahead", "every", "threads",
        "deadline-ms", "max-inflight", "degrade", "degree", "bundle-dir",
        "flight-dir", "concurrent", "fft-grid"}},
      {"replay", {"log", "bundle", "verify", "bench", "threads", "digests",
                  "jsonl"}},
  };
  return kFlags;
}

// Strict flag parsing: unknown flags and stray positional arguments are
// errors (returns false), so misspellings fail loudly instead of running
// with defaults.
bool ParseFlags(int argc, char** argv, const std::set<std::string>& allowed,
                std::map<std::string, std::string>* flags) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string key =
        eq == std::string::npos ? body : body.substr(0, eq);
    if (allowed.count(key) == 0) {
      std::fprintf(stderr, "error: unknown flag --%s for '%s'\n", key.c_str(),
                   argv[1]);
      return false;
    }
    if (eq != std::string::npos) {
      (*flags)[key] = body.substr(eq + 1);
    } else if (i + 1 < argc &&
               (argv[i + 1][0] != '-' || argv[i + 1][1] == '\0')) {
      // A lone "-" is a value (stdout), not a flag.
      (*flags)[key] = argv[++i];
    } else {
      (*flags)[key] = "1";
    }
  }
  return true;
}

// File-argument flags have no sensible default; a missing one is a usage
// error, reported before any work starts.
bool HasRequired(const std::map<std::string, std::string>& flags,
                 const char* command,
                 std::initializer_list<const char*> required) {
  for (const char* name : required) {
    if (flags.count(name) == 0 || flags.at(name).empty()) {
      std::fprintf(stderr, "error: '%s' requires --%s\n", command, name);
      return false;
    }
  }
  return true;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// --threads=N -> ExecPolicy (1/absent = serial, 0 = hardware concurrency).
ExecPolicy ExecFromFlags(const std::map<std::string, std::string>& flags) {
  const int threads = std::stoi(FlagOr(flags, "threads", "1"));
  return threads == 1 ? ExecPolicy::Serial() : ExecPolicy::Parallel(threads);
}

// The one serving configuration every command builds its FR engine from:
// a 100x100 histogram, H = 2U, the paper's buffer pool, 10 ms per modeled
// read, and --index / --threads (defaults where a command takes neither).
// Callers add storage_dir or snapshots themselves.
FrEngine::Options FrOptionsFor(
    const Dataset& ds, const std::map<std::string, std::string>& flags) {
  return {.extent = ds.config.extent,
          .histogram_side = 100,
          .horizon = 2 * ds.config.max_update_interval,
          .buffer_pages = PaperConfig().BufferPagesFor(ds.config.num_objects),
          .io_ms = 10.0,
          .index = FlagOr(flags, "index", "tpr") == "bx" ? IndexKind::kBxTree
                                                         : IndexKind::kTprTree,
          .max_update_interval = ds.config.max_update_interval,
          .exec = ExecFromFlags(flags)};
}

// Its PA twin at the query's l: g = 10 macro-cells per side, --degree
// (default 5), and m_d = 1000.
PaEngine::Options PaOptionsFor(
    const Dataset& ds, double l,
    const std::map<std::string, std::string>& flags) {
  return {.extent = ds.config.extent,
          .poly_side = 10,
          .degree = std::stoi(FlagOr(flags, "degree", "5")),
          .horizon = 2 * ds.config.max_update_interval,
          .l = l,
          .eval_grid = 1000,
          .exec = ExecFromFlags(flags)};
}

// --flight-dir=DIR arms the flight recorder with every dump trigger
// pointing at DIR; --trace=FILE arms it with rings deep enough that one
// query's (or tick's) events all survive until the drain after it.
// Returns false (after reporting) when the directory cannot be created.
bool ArmFlightRecorder(const std::map<std::string, std::string>& flags) {
  const std::string dir = FlagOr(flags, "flight-dir", "");
  const bool trace = !FlagOr(flags, "trace", "").empty();
  if (dir.empty() && !trace) return true;
  if (!dir.empty() && mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", dir.c_str(),
                 std::strerror(errno));
    return false;
  }
  FlightRecorder::Options options;
  if (trace) options.ring_capacity = 1 << 16;
  if (!dir.empty()) {
    options.dump_dir = dir;
    options.triggers = FlightRecorder::kAllTriggers;
  }
  FlightRecorder::Global().Configure(options);
  FlightRecorder::SetEnabled(true);
  return true;
}

// End-of-run recorder summary (stderr, like the trace summary).
void ReportFlightDumps(const std::map<std::string, std::string>& flags) {
  if (FlagOr(flags, "flight-dir", "").empty()) return;
  std::fprintf(stderr, "flight recorder: %lld dump(s) in %s\n",
               static_cast<long long>(
                   FlightRecorder::Global().dumps_written()),
               FlagOr(flags, "flight-dir", "").c_str());
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: pdr_tool <gen|info|query|explain|monitor|stats|save|recover> "
      "[--flag value]...\n"
      "  gen:     --out FILE [--objects N] [--extent E] "
      "[--duration T] [--seed S] [--interval U]\n"
      "  info:    --in FILE\n"
      "  query:   --in FILE --varrho R --l L [--qt T] "
      "[--engine fr|pa|fft|both] [--index tpr|bx] [--threads N] "
      "[--trace FILE]\n"
      "           [--deadline-ms D] [--degrade 0|1] [--flight-dir DIR] "
      "[--fft-grid M]\n"
      "  explain: --in FILE --varrho R --l L [--qt T] [--deadline-ms D] "
      "[--degrade 0|1] [--threads N]\n"
      "           [--format text|json] [--flight-dir DIR]\n"
      "  monitor: --in FILE --varrho R --l L [--lookahead W] "
      "[--every K] [--threads N] [--trace FILE]\n"
      "           [--audit-rate R] [--report FILE] [--interval S] "
      "[--degree K] [--fail-on-drift]\n"
      "           [--deadline-ms D] [--max-inflight M] [--degrade 0|1] "
      "[--flight-dir DIR] [--slo-ms D]\n"
      "           [--concurrent N]  (MVCC mode: N snapshot-reader "
      "threads run against the update stream; takes only --lookahead "
      "and --threads)\n"
      "           [--wal-dir DIR] [--checkpoint-every K] "
      "[--scrub-budget P]  (durable standing query; scrub P pages per "
      "evaluated tick)\n"
      "  stats:   --in FILE --varrho R --l L [--qt T] "
      "[--engine fr|pa|both] [--index tpr|bx] [--queries N] [--json FILE]\n"
      "           [--format text|prometheus]\n"
      "  save:    --in FILE --wal-dir DIR [--index tpr|bx] "
      "[--checkpoint-every K]\n"
      "  recover: --in FILE --wal-dir DIR [--index tpr|bx] "
      "[--varrho R] [--l L] [--qt T]\n"
      "  fsck:    --wal-dir DIR [--repair] [--json]  (offline store "
      "verify/repair; exit 3 when unrepairable)\n"
      "  record:  --in FILE --log FILE --varrho R --l L [--lookahead W] "
      "[--every K] [--threads N]\n"
      "           [--deadline-ms D] [--max-inflight M] [--degrade 0|1] "
      "[--degree K] [--bundle-dir DIR]\n"
      "           [--flight-dir DIR] [--concurrent Q]  (capture an MVCC "
      "schedule, Q snapshot queries per evaluated tick)\n"
      "           [--fft-grid M]  (attach the FFT whole-plane rung at "
      "raster resolution M)\n"
      "  replay:  (--log FILE | --bundle DIR) [--verify | --bench] "
      "[--threads N] [--digests]\n"
      "           [--jsonl FILE]\n");
  return 2;
}

int RunGen(const std::map<std::string, std::string>& flags) {
  WorkloadConfig config;
  config.WithExtent(std::stod(FlagOr(flags, "extent", "1000")));
  config.num_objects = std::stoi(FlagOr(flags, "objects", "10000"));
  config.max_update_interval =
      std::stoi(FlagOr(flags, "interval", "60"));
  config.seed = std::stoull(FlagOr(flags, "seed", "42"));
  const Tick duration = std::stoi(FlagOr(flags, "duration", "70"));
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) return Usage();

  std::printf("generating %d objects over %d ticks (U=%d, extent=%g)...\n",
              config.num_objects, duration, config.max_update_interval,
              config.extent);
  const Dataset ds = GenerateDataset(config, duration);
  SaveDataset(ds, out);
  std::printf("wrote %s: %zu updates\n", out.c_str(), ds.TotalUpdates());
  return 0;
}

int RunInfo(const std::map<std::string, std::string>& flags) {
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  std::printf("objects   : %d\n", ds.config.num_objects);
  std::printf("extent    : %g x %g miles\n", ds.config.extent,
              ds.config.extent);
  std::printf("U         : %d ticks\n", ds.config.max_update_interval);
  std::printf("duration  : %d ticks\n", ds.duration());
  std::printf("updates   : %zu total (%.1f%% of objects per tick)\n",
              ds.TotalUpdates(),
              ds.duration() > 0
                  ? 100.0 *
                        (static_cast<double>(ds.TotalUpdates()) -
                         ds.config.num_objects) /
                        ds.duration() / ds.config.num_objects
                  : 0.0);
  std::printf("seed      : %llu\n",
              static_cast<unsigned long long>(ds.config.seed));
  return 0;
}

int RunQuery(const std::map<std::string, std::string>& flags) {
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const double varrho = std::stod(FlagOr(flags, "varrho", "1"));
  const double l = std::stod(FlagOr(flags, "l", "30"));
  const double extent = ds.config.extent;
  const double rho =
      varrho * ds.config.num_objects / (extent * extent);
  const Tick now = ds.duration();
  const Tick q_t = std::stoi(FlagOr(
      flags, "qt",
      std::to_string(now + ds.config.max_update_interval / 2)));
  const std::string engine = FlagOr(flags, "engine", "both");
  const std::string index_name = FlagOr(flags, "index", "tpr");
  TraceOutput trace(FlagOr(flags, "trace", ""));
  if (!ArmFlightRecorder(flags)) return 1;

  std::printf("query: rho=%.4g (varrho=%g), l=%g, q_t=%d (now=%d)\n", rho,
              varrho, l, q_t, now);

  const double deadline_ms = std::stod(FlagOr(flags, "deadline-ms", "0"));
  if (deadline_ms > 0.0) {
    // Deadline-bounded query: exact FR first; on overrun the degradation
    // ladder falls back to PA approximate, then to the histogram floor
    // (--degrade=0 fails the query instead of degrading).
    FrEngine fr(FrOptionsFor(ds, flags));
    PaEngine pa(PaOptionsFor(ds, l, flags));
    ReplayInto(ds, -1, &fr);
    ReplayInto(ds, -1, &pa);
    trace.Discard();
    ResilienceOptions opts;
    opts.deadline_ms = deadline_ms;
    opts.degrade = FlagOr(flags, "degrade", "1") != "0";
    ResilientExecutor exec(&fr, &pa, opts);
    const TieredResult result = exec.Query(q_t, rho, l);
    trace.Drain();
    std::printf(
        "tier=%s%s: %zu rects, %.1f sq-miles | %.1f of %.1f ms budget\n",
        AnswerTierName(result.tier), result.timed_out ? " (timed out)" : "",
        result.region.size(), result.region.Area(), result.elapsed_ms,
        result.budget_ms);
    if (result.tier == AnswerTier::kHistogram) {
      std::printf("  certainly dense %.1f sq-miles, possibly dense %.1f\n",
                  result.region.Area(), result.maybe_region.Area());
    }
    for (size_t i = 0; i < result.region.size() && i < 10; ++i) {
      std::printf("  %s\n", result.region.rects()[i].ToString().c_str());
    }
    ReportFlightDumps(flags);
    return 0;
  }

  if (engine == "fft") {
    // FFT whole-plane rung: one summed-area table over the raster answers
    // the query with a conservative subset + optimistic superset sandwich
    // around exact. Pinned via the ladder (enable_exact=false) so the
    // answer carries the same TieredResult provenance a degraded server
    // would emit.
    FrEngine fr(FrOptionsFor(ds, flags));
    FftDensityEngine fft(
        {.extent = extent,
         .grid = std::stoi(FlagOr(flags, "fft-grid", "128")),
         .horizon = fr.options().horizon});
    ReplayInto(ds, -1, &fr);
    ReplayInto(ds, -1, &fft);
    trace.Discard();
    ResilienceOptions opts;
    opts.enable_exact = false;
    ResilientExecutor exec(&fr, nullptr, opts, &fft);
    const TieredResult result = exec.Query(q_t, rho, l);
    trace.Drain();
    std::printf(
        "tier=%s (grid %dx%d): %zu rects, %.1f sq-miles certainly dense, "
        "%.1f possibly | %.1f ms\n",
        AnswerTierName(result.tier), fft.options().grid, fft.options().grid,
        result.region.size(), result.region.Area(),
        result.maybe_region.Area(), result.elapsed_ms);
    for (size_t i = 0; i < result.region.size() && i < 10; ++i) {
      std::printf("  %s\n", result.region.rects()[i].ToString().c_str());
    }
    ReportFlightDumps(flags);
    return 0;
  }

  if (engine == "fr" || engine == "both") {
    FrEngine fr(FrOptionsFor(ds, flags));
    ReplayInto(ds, -1, &fr);
    trace.Discard();
    const auto result = fr.Query(q_t, rho, l, /*cold_cache=*/true);
    trace.Drain();
    std::printf(
        "FR (%s): %zu rects, %.1f sq-miles | %.1f ms CPU + %.0f ms I/O "
        "(%lld reads) | cells a/c/r = %lld/%lld/%lld\n",
        index_name.c_str(), result.region.size(), result.region.Area(),
        result.cost.cpu_ms, result.cost.io_ms,
        static_cast<long long>(result.cost.io_reads()),
        static_cast<long long>(result.accepted_cells),
        static_cast<long long>(result.candidate_cells),
        static_cast<long long>(result.rejected_cells));
    for (size_t i = 0; i < result.region.size() && i < 10; ++i) {
      std::printf("  %s\n", result.region.rects()[i].ToString().c_str());
    }
  }
  if (engine == "pa" || engine == "both") {
    PaEngine pa(PaOptionsFor(ds, l, flags));
    ReplayInto(ds, -1, &pa);
    trace.Discard();
    const auto result = pa.Query(q_t, rho);
    trace.Drain();
    std::printf("PA: %zu rects, %.1f sq-miles | %.1f ms CPU, no I/O\n",
                result.region.size(), result.region.Area(),
                result.cost.cpu_ms);
  }
  ReportFlightDumps(flags);
  return 0;
}

int RunExplain(const std::map<std::string, std::string>& flags) {
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const double varrho = std::stod(FlagOr(flags, "varrho", "1"));
  const double l = std::stod(FlagOr(flags, "l", "30"));
  const double extent = ds.config.extent;
  const double rho = varrho * ds.config.num_objects / (extent * extent);
  const Tick now = ds.duration();
  const Tick q_t = std::stoi(FlagOr(
      flags, "qt",
      std::to_string(now + ds.config.max_update_interval / 2)));
  const std::string format = FlagOr(flags, "format", "text");
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "error: --format must be text or json\n");
    return 2;
  }
  if (!ArmFlightRecorder(flags)) return 1;

  FrEngine fr(FrOptionsFor(ds, flags));
  PaEngine pa(PaOptionsFor(ds, l, flags));
  ReplayInto(ds, -1, &fr);
  ReplayInto(ds, -1, &pa);

  ResilienceOptions opts;
  opts.deadline_ms = std::stod(FlagOr(flags, "deadline-ms", "0"));
  opts.degrade = FlagOr(flags, "degrade", "1") != "0";
  ResilientExecutor exec(&fr, &pa, opts);
  const TieredResult result = exec.Query(q_t, rho, l);
  if (format == "json") {
    std::printf("%s\n", result.explain.ToJson().c_str());
  } else {
    std::printf("%s", result.explain.ToText().c_str());
    std::printf("answer: %zu rects, %.1f sq-miles\n", result.region.size(),
                result.region.Area());
  }
  ReportFlightDumps(flags);
  return 0;
}

// `monitor --concurrent N`: the MVCC demonstration. One writer thread
// (this one) commits the update stream epoch by epoch at full rate while
// N reader threads hammer RunSnapshotQuery; no reader ever blocks the
// writer. Readers cross-check each other: all answers pinned to the same
// epoch must carry the same transcript digest. The first error on any
// thread stops the run and is rethrown once every thread has joined.
int RunMonitorConcurrent(const std::map<std::string, std::string>& flags) {
  // The concurrent path implements only these; refusing the rest keeps
  // the tool's contract that no flag is silently ignored.
  static const std::set<std::string> kConcurrentFlags = {
      "in", "varrho", "l", "lookahead", "threads", "concurrent"};
  for (const auto& [flag, value] : flags) {
    if (kConcurrentFlags.count(flag) == 0) {
      std::fprintf(stderr,
                   "error: --%s is not supported by 'monitor --concurrent'\n",
                   flag.c_str());
      return 2;
    }
  }
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const double varrho = std::stod(FlagOr(flags, "varrho", "1"));
  const double l = std::stod(FlagOr(flags, "l", "30"));
  const Tick lookahead = std::stoi(FlagOr(flags, "lookahead", "10"));
  const int readers =
      std::max(1, std::stoi(FlagOr(flags, "concurrent", "1")));
  const double extent = ds.config.extent;
  const double rho = varrho * ds.config.num_objects / (extent * extent);

  mvcc::SnapshotManager snapshots;
  FrEngine::Options fr_options = FrOptionsFor(ds, flags);
  fr_options.snapshots = &snapshots;
  FrEngine fr(fr_options);
  PdrMonitor monitor(&fr, {.rho = rho, .l = l, .lookahead = lookahead});
  monitor.StartConcurrent();

  std::atomic<bool> done{false};
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> inconsistent{0};
  std::mutex check_mu;  // guards epoch_digest and failure
  std::map<uint64_t, uint64_t> epoch_digest;
  std::exception_ptr failure;
  const auto fail = [&] {  // call from a catch handler
    std::lock_guard<std::mutex> lock(check_mu);
    if (failure == nullptr) failure = std::current_exception();
    done.store(true, std::memory_order_release);
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      try {
        // Every reader answers at least once, even when the writer has
        // already committed the whole stream.
        do {
          const PdrMonitor::Delta delta = monitor.RunSnapshotQuery();
          const uint64_t digest = TickDigest(delta);
          {
            std::lock_guard<std::mutex> lock(check_mu);
            auto [it, inserted] = epoch_digest.emplace(delta.epoch, digest);
            if (!inserted && it->second != digest) {
              inconsistent.fetch_add(1, std::memory_order_relaxed);
            }
          }
          queries.fetch_add(1, std::memory_order_relaxed);
        } while (!done.load(std::memory_order_acquire));
      } catch (...) {
        fail();
      }
    });
  }

  Timer timer;
  int64_t updates = 0;
  uint64_t last_epoch = 0;
  try {
    for (Tick now = 0;
         now <= ds.duration() && !done.load(std::memory_order_acquire);
         ++now) {
      last_epoch = monitor.ApplyUpdates(now, ds.ticks[now]);
      updates += static_cast<int64_t>(ds.ticks[now].size());
    }
  } catch (...) {
    fail();
  }
  const double writer_ms = timer.ElapsedMillis();
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  const double total_ms = timer.ElapsedMillis();
  if (failure != nullptr) std::rethrow_exception(failure);

  const int64_t q = queries.load();
  std::printf("concurrent monitor: %llu epochs committed, %lld updates in "
              "%.1f ms (%.0f commits/s)\n",
              static_cast<unsigned long long>(last_epoch),
              static_cast<long long>(updates), writer_ms,
              1000.0 * static_cast<double>(last_epoch) /
                  std::max(writer_ms, 1e-9));
  std::printf("readers  : %d thread(s), %lld snapshot queries over %zu "
              "distinct epochs (%.0f queries/s)\n",
              readers, static_cast<long long>(q), epoch_digest.size(),
              1000.0 * static_cast<double>(q) / std::max(total_ms, 1e-9));
  std::printf("mvcc     : %lld live / %lld retired versions, floor epoch "
              "%llu\n",
              static_cast<long long>(snapshots.live_versions()),
              static_cast<long long>(snapshots.retired_versions()),
              static_cast<unsigned long long>(snapshots.reclaim_floor()));
  const int64_t bad = inconsistent.load();
  std::printf("identity : cross-reader per-epoch digests %s\n",
              bad == 0 ? "consistent" : "INCONSISTENT");
  return bad == 0 ? 0 : 3;
}

int RunMonitor(const std::map<std::string, std::string>& flags) {
  if (flags.count("concurrent") > 0) return RunMonitorConcurrent(flags);
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const double varrho = std::stod(FlagOr(flags, "varrho", "1"));
  const double l = std::stod(FlagOr(flags, "l", "30"));
  const Tick lookahead = std::stoi(FlagOr(flags, "lookahead", "10"));
  const Tick every = std::max(1, std::stoi(FlagOr(flags, "every", "5")));
  const double audit_rate = std::stod(FlagOr(flags, "audit-rate", "0"));
  const std::string report_path = FlagOr(flags, "report", "");
  const Tick interval = std::max(1, std::stoi(FlagOr(flags, "interval", "10")));
  const bool fail_on_drift = flags.count("fail-on-drift") > 0;
  const bool audit = audit_rate > 0.0;
  const double deadline_ms = std::stod(FlagOr(flags, "deadline-ms", "0"));
  const int max_inflight = std::stoi(FlagOr(flags, "max-inflight", "0"));
  const bool degrade = FlagOr(flags, "degrade", "1") != "0";
  if (deadline_ms > 0.0 && audit) {
    std::fprintf(stderr,
                 "error: --deadline-ms needs the FR-primary monitor "
                 "(the ladder degrades exact FR answers); drop "
                 "--audit-rate\n");
    return 2;
  }
  const double slo_ms = std::stod(FlagOr(flags, "slo-ms", "0"));
  // --wal-dir: the standing query runs durably (WAL + checkpoints in the
  // directory); --scrub-budget then verifies that many store pages per
  // evaluated tick from the monitor's scrub hook (DESIGN.md §16).
  const std::string wal_dir = FlagOr(flags, "wal-dir", "");
  const long long scrub_budget =
      std::stoll(FlagOr(flags, "scrub-budget", "0"));
  const Tick ckpt_every = std::stoi(FlagOr(flags, "checkpoint-every", "1"));
  if (!wal_dir.empty()) {
    if (mkdir(wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "error: cannot create %s: %s\n", wal_dir.c_str(),
                   std::strerror(errno));
      return 1;
    }
    struct stat st;
    if (stat((wal_dir + "/checkpoint.pdr").c_str(), &st) == 0 ||
        stat((wal_dir + "/data.pdr").c_str(), &st) == 0) {
      std::fprintf(stderr,
                   "error: %s already holds a store; delete it first\n",
                   wal_dir.c_str());
      return 1;
    }
  } else if (scrub_budget > 0) {
    std::fprintf(stderr, "error: --scrub-budget needs --wal-dir\n");
    return 2;
  }
  TraceOutput trace(FlagOr(flags, "trace", ""));
  if (!ArmFlightRecorder(flags)) return 1;
  const double extent = ds.config.extent;
  const double rho =
      varrho * ds.config.num_objects / (extent * extent);

  // Per-tick human lines move to stderr when the JSONL report claims
  // stdout.
  std::FILE* human = report_path == "-" ? stderr : stdout;

  std::unique_ptr<JsonlWriter> report;
  if (!report_path.empty()) {
    report = std::make_unique<JsonlWriter>(report_path);
    if (!report->ok()) {
      std::fprintf(stderr, "error: cannot open report file %s\n",
                   report_path.c_str());
      return 1;
    }
  }

  // The report mode and the auditor both read the metrics registry, so a
  // monitoring run always observes (and starts from a clean registry).
  if (audit || report != nullptr) {
    PdrObs::SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }

  FrEngine::Options fr_options = FrOptionsFor(ds, flags);
  fr_options.storage_dir = wal_dir;
  FrEngine fr(fr_options);
  CostCalibrator calibrator(&fr);

  // Audit mode runs the standing query on PA and shadow-audits against
  // FR; both engines (and the probe oracle) consume the update stream.
  std::unique_ptr<PaEngine> pa;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<ShadowAuditor> auditor;
  std::unique_ptr<PdrMonitor> monitor;
  if (audit) {
    pa = std::make_unique<PaEngine>(PaOptionsFor(ds, l, flags));
    oracle = std::make_unique<Oracle>(extent);
    ShadowAuditor::Options audit_options;
    audit_options.sample_rate = audit_rate;
    audit_options.l = l;
    auditor = std::make_unique<ShadowAuditor>(&fr, oracle.get(),
                                              audit_options);
    auditor->SetCalibrator(&calibrator);
    auditor->SetApproxDensityProbe(
        [&pa](Tick t, Vec2 p) { return pa->Density(t, p); });
    PdrMonitor::Options mopts{.rho = rho, .l = l, .lookahead = lookahead};
    mopts.resilience.max_inflight = max_inflight;
    monitor = std::make_unique<PdrMonitor>(pa.get(), mopts);
    monitor->SetAuditor(auditor.get());
    monitor->SetExecPolicy(ExecFromFlags(flags));
  } else {
    PdrMonitor::Options mopts{.rho = rho, .l = l, .lookahead = lookahead};
    mopts.resilience.deadline_ms = deadline_ms;
    mopts.resilience.max_inflight = max_inflight;
    mopts.resilience.degrade = degrade;
    monitor = std::make_unique<PdrMonitor>(&fr, mopts);
    monitor->SetCalibrator(&calibrator);
    if (deadline_ms > 0.0) {
      // The ladder's approximate rung: a PA model fed the same stream.
      pa = std::make_unique<PaEngine>(PaOptionsFor(ds, l, flags));
      monitor->SetFallback(pa.get());
    }
  }
  DiskPager* disk = fr.index().disk();
  if (disk != nullptr) {
    // Durable standing query: checkpoint on a tick cadence so recovery
    // distance stays bounded, and (optionally) scrub a page budget per
    // evaluated tick so at-rest damage is found while the system serves.
    monitor->SetCheckpointHook([&fr] { fr.Checkpoint(); },
                               std::max<Tick>(1, ckpt_every));
    if (scrub_budget > 0) {
      monitor->SetScrubHook(
          [disk, scrub_budget] { disk->Scrub(scrub_budget); });
    }
  }

  // --slo-ms: burn-rate alerting over the tick stream. The admission
  // controller is created here (instead of the monitor's lazy private one)
  // so the SLO monitor can tighten its bound while alerting.
  std::unique_ptr<AdmissionController> admission;
  std::unique_ptr<SloMonitor> slo;
  if (slo_ms > 0.0) {
    SloMonitor::Options slo_options;
    slo_options.latency_slo_ms = slo_ms;
    // Both windows must fill before a signal can alert; scale them to the
    // replay length so short runs can still demonstrate an alert.
    const int samples =
        static_cast<int>(ds.duration() / every) + 1;
    slo_options.short_window =
        std::max(4, std::min(slo_options.short_window, samples / 8));
    slo_options.long_window = std::max(
        slo_options.short_window, std::min(slo_options.long_window,
                                           samples / 2));
    slo = std::make_unique<SloMonitor>(slo_options);
    if (max_inflight > 0) {
      admission = std::make_unique<AdmissionController>(
          AdmissionController::Options{max_inflight});
      monitor->SetAdmissionController(admission.get());
      slo->SetAdmission(admission.get());
    }
    slo->SetAlertHook([human](const SloMonitor::Alert& alert) {
      std::fprintf(human,
                   "SLO ALERT: %s burning %.1fx budget (short) / %.1fx "
                   "(long) at sample %lld\n",
                   alert.signal.c_str(), alert.burn_short, alert.burn_long,
                   static_cast<long long>(alert.sample));
    });
    monitor->SetSloMonitor(slo.get());
  }

  MonitorReporter::Options report_options;
  report_options.interval = interval;
  MonitorReporter reporter(report.get(), report_options);
  Tick last_window = 0;

  for (Tick now = 0; now <= ds.duration(); ++now) {
    fr.AdvanceTo(now);
    if (pa != nullptr) pa->AdvanceTo(now);
    if (oracle != nullptr) oracle->AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) {
      fr.Apply(e);
      if (pa != nullptr) pa->Apply(e);
      if (oracle != nullptr) oracle->Apply(e);
    }
    if (now % every == 0) {
      const auto delta = monitor->OnTick(now);
      trace.Drain();
      std::fprintf(human,
                   "t=%-4d dense %8.1f sq-mi | +%8.1f appeared, -%8.1f "
                   "vanished | %.0f ms",
                   now, delta.current.Area(), delta.appeared.Area(),
                   delta.vanished.Area(), delta.cost.TotalMs());
      if (delta.audit) {
        std::fprintf(human, " | audit P=%.3f R=%.3f io=%lld",
                     delta.audit->precision, delta.audit->recall,
                     static_cast<long long>(delta.audit->fr_io_reads));
      }
      if (delta.tier != AnswerTier::kExact) {
        std::fprintf(human, " | tier=%s", AnswerTierName(delta.tier));
      }
      std::fprintf(human, "\n");
    }
    if ((audit || report != nullptr) && now > 0 && now % interval == 0) {
      reporter.EmitWindow(now);
      last_window = now;
    }
  }

  if (audit || report != nullptr) {
    if (ds.duration() > last_window) reporter.EmitWindow(ds.duration());
    if (report != nullptr) {
      WriteMetricsJsonl(report.get(),
                        MetricsRegistry::Global().TakeSnapshot());
    }
    reporter.WriteFinalReport(human);
    if (fail_on_drift && reporter.drift_seen()) {
      std::fprintf(stderr, "drift detected: failing (--fail-on-drift)\n");
      return 3;
    }
  }
  if (slo != nullptr) {
    std::fprintf(human, "slo: %zu alert(s) over %lld samples%s\n",
                 slo->alerts().size(),
                 static_cast<long long>(slo->samples()),
                 slo->alerting() ? " (still alerting)" : "");
  }
  if (disk != nullptr) {
    fr.Checkpoint();  // final durable point: the full replayed stream
    std::fprintf(human, "durable : epoch %llu in %s\n",
                 static_cast<unsigned long long>(disk->epoch()),
                 wal_dir.c_str());
    if (scrub_budget > 0) {
      const ScrubStats& ss = disk->scrub_stats();
      std::fprintf(human,
                   "scrub   : %lld pages verified, %lld repaired, "
                   "%lld unrepairable (budget %lld/tick)\n",
                   static_cast<long long>(ss.pages_scanned),
                   static_cast<long long>(ss.pages_repaired),
                   static_cast<long long>(ss.pages_unrepairable),
                   scrub_budget);
    }
  }
  ReportFlightDumps(flags);
  return 0;
}

int RunStats(const std::map<std::string, std::string>& flags) {
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const double varrho = std::stod(FlagOr(flags, "varrho", "1"));
  const double l = std::stod(FlagOr(flags, "l", "30"));
  const double extent = ds.config.extent;
  const double rho = varrho * ds.config.num_objects / (extent * extent);
  const Tick now = ds.duration();
  const int queries = std::max(1, std::stoi(FlagOr(flags, "queries", "5")));
  const std::string engine = FlagOr(flags, "engine", "both");

  PdrObs::SetEnabled(true);
  MetricsRegistry::Global().ResetAll();

  // Query ticks spread over the prediction window [now, now + U/2].
  std::vector<Tick> ticks;
  for (int i = 0; i < queries; ++i) {
    ticks.push_back(now + ds.config.max_update_interval * i /
                              (2 * std::max(1, queries - 1) ));
  }

  if (engine == "fr" || engine == "both") {
    FrEngine fr(FrOptionsFor(ds, flags));
    ReplayInto(ds, -1, &fr);
    for (const Tick q_t : ticks) {
      fr.Query(q_t, rho, l, /*cold_cache=*/true);
    }
  }
  if (engine == "pa" || engine == "both") {
    PaEngine pa(PaOptionsFor(ds, l, flags));
    ReplayInto(ds, -1, &pa);
    for (const Tick q_t : ticks) pa.Query(q_t, rho);
  }

  const MetricsRegistry::Snapshot snap =
      MetricsRegistry::Global().TakeSnapshot();
  const std::string format = FlagOr(flags, "format", "text");
  if (format == "prometheus") {
    // Scrape-style output only: no banner, so the stream is ingestible
    // as-is by promtool / a Prometheus textfile collector.
    WriteMetricsPrometheus(stdout, snap);
  } else if (format == "text") {
    std::printf("metrics after %d %s quer%s (rho=%.4g, l=%g):\n", queries,
                engine.c_str(), queries == 1 ? "y" : "ies", rho, l);
    DumpMetrics(stdout, snap);
  } else {
    std::fprintf(stderr, "error: --format must be text or prometheus\n");
    return 2;
  }

  const std::string json_path = FlagOr(flags, "json", "");
  if (!json_path.empty()) {
    JsonlWriter writer(json_path);
    if (!writer.ok()) {
      std::fprintf(stderr, "error: cannot open %s\n", json_path.c_str());
      return 1;
    }
    WriteMetricsJsonl(&writer, snap);
    std::printf("wrote %lld metric lines to %s\n",
                static_cast<long long>(writer.lines_written()),
                json_path.c_str());
  }
  return 0;
}

// Shared FR options for the durable subcommands: save and recover must
// construct the engine identically (extent, histogram, horizon, index) or
// the recovered metadata will refuse to attach.
FrEngine::Options DurableOptions(
    const Dataset& ds, const std::map<std::string, std::string>& flags) {
  FrEngine::Options options = FrOptionsFor(ds, flags);
  options.storage_dir = FlagOr(flags, "wal-dir", "");
  return options;
}

int RunSave(const std::map<std::string, std::string>& flags) {
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const std::string dir = FlagOr(flags, "wal-dir", "");
  if (dir.empty()) return Usage();
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  struct stat st;
  if (stat((dir + "/checkpoint.pdr").c_str(), &st) == 0 ||
      stat((dir + "/data.pdr").c_str(), &st) == 0) {
    std::fprintf(stderr,
                 "error: %s already holds a store; delete it first\n",
                 dir.c_str());
    return 1;
  }
  const std::string index_name = FlagOr(flags, "index", "tpr");
  const Tick every = std::stoi(FlagOr(flags, "checkpoint-every", "0"));

  FrEngine fr(DurableOptions(ds, flags));
  Timer timer;
  Tick since_checkpoint = 0;
  for (Tick now = 0; now <= ds.duration(); ++now) {
    fr.AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) fr.Apply(e);
    if (every > 0 && ++since_checkpoint >= every) {
      since_checkpoint = 0;
      fr.Checkpoint();
    }
  }
  fr.Checkpoint();
  const double total_ms = timer.ElapsedMillis();

  const DiskPager* disk = fr.index().disk();
  const CheckpointStats& cs = disk->checkpoint_stats();
  const WalStats& ws = disk->wal_stats();
  std::printf("saved %s store to %s (%zu objects, %d ticks, %.0f ms)\n",
              index_name.c_str(), dir.c_str(), fr.index().size(),
              ds.duration(), total_ms);
  std::printf("checkpoints : %lld (%lld page images, last %.2f ms)\n",
              static_cast<long long>(cs.checkpoints),
              static_cast<long long>(cs.pages_logged), cs.last_ms);
  std::printf("wal         : %lld records, %lld commits, %lld bytes, "
              "%lld fsyncs\n",
              static_cast<long long>(ws.records),
              static_cast<long long>(ws.commits),
              static_cast<long long>(ws.bytes_appended),
              static_cast<long long>(ws.fsyncs));
  std::printf("pages       : %zu allocated, %zu live\n",
              disk->allocated_pages(), disk->live_pages());
  return 0;
}

int RunRecover(const std::map<std::string, std::string>& flags) {
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const std::string dir = FlagOr(flags, "wal-dir", "");
  if (dir.empty()) return Usage();

  FrEngine fr(DurableOptions(ds, flags));
  if (!fr.recovered()) {
    std::fprintf(stderr, "error: no durable store in %s\n", dir.c_str());
    return 1;
  }
  const DiskPager* disk = fr.index().disk();
  const RecoveryStats& rs = disk->recovery_stats();
  std::printf("recovered store in %s: %zu objects at tick %d "
              "(epoch %llu, %.2f ms)\n",
              dir.c_str(), fr.index().size(), fr.now(),
              static_cast<unsigned long long>(disk->epoch()),
              rs.recovery_ms);
  std::printf("wal redo    : %lld committed batches, %lld page images "
              "applied, %lld record%s discarded%s%s\n",
              static_cast<long long>(rs.batches_applied),
              static_cast<long long>(rs.redo_records),
              static_cast<long long>(rs.discarded_records),
              rs.discarded_records == 1 ? "" : "s",
              rs.torn_tail ? " (torn tail)" : "",
              rs.interior_corruption ? " (WAL INTERIOR CORRUPTION)" : "");
  if (rs.pages_repaired > 0) {
    std::printf("repair      : %lld damaged page slot%s healed by redo\n",
                static_cast<long long>(rs.pages_repaired),
                rs.pages_repaired == 1 ? "" : "s");
  }

  if (flags.count("varrho") > 0) {
    const double varrho = std::stod(FlagOr(flags, "varrho", "1"));
    const double l = std::stod(FlagOr(flags, "l", "30"));
    const double extent = ds.config.extent;
    const double rho = varrho * ds.config.num_objects / (extent * extent);
    const Tick q_t = std::stoi(FlagOr(
        flags, "qt",
        std::to_string(fr.now() + ds.config.max_update_interval / 2)));
    const auto result = fr.Query(q_t, rho, l, /*cold_cache=*/true);
    std::printf("FR: %zu rects, %.1f sq-miles | %.1f ms CPU + %.0f ms I/O "
                "(%lld reads)\n",
                result.region.size(), result.region.Area(),
                result.cost.cpu_ms, result.cost.io_ms,
                static_cast<long long>(result.cost.io_reads()));
    for (size_t i = 0; i < result.region.size() && i < 10; ++i) {
      std::printf("  %s\n", result.region.rects()[i].ToString().c_str());
    }
  }
  return 0;
}

int RunFsckCmd(const std::map<std::string, std::string>& flags) {
  FsckOptions options;
  options.repair = flags.count("repair") > 0;
  const FsckReport report = RunFsck(FlagOr(flags, "wal-dir", ""), options);
  if (flags.count("json") > 0) {
    std::printf("%s\n", report.ToJson().c_str());
    return report.exit_code();
  }
  if (!report.error.empty()) {
    std::fprintf(stderr, "fsck: %s\n", report.error.c_str());
    return report.exit_code();
  }
  std::printf("fsck %s: epoch %llu, checkpoint %s, data header %s\n",
              report.dir.c_str(),
              static_cast<unsigned long long>(report.epoch),
              report.checkpoint_ok ? "ok" : "superseded by WAL",
              report.data_header_ok ? "ok" : "BAD");
  std::printf("wal   : %lld committed batch(es), %lld record(s) "
              "discarded%s%s\n",
              static_cast<long long>(report.wal_batches),
              static_cast<long long>(report.wal_records_discarded),
              report.wal_torn_tail ? ", torn tail" : "",
              report.wal_interior_corruption ? ", INTERIOR CORRUPTION"
                                             : "");
  std::printf("pages : %lld total, %lld free, %lld ok, %lld repairable, "
              "%lld repaired, %lld unrepairable\n",
              static_cast<long long>(report.pages_total),
              static_cast<long long>(report.pages_free),
              static_cast<long long>(report.pages_ok),
              static_cast<long long>(report.pages_repairable),
              static_cast<long long>(report.pages_repaired),
              static_cast<long long>(report.pages_unrepairable));
  for (const FsckDamagedPage& d : report.damaged) {
    std::printf("  page %u at offset %llu: expected %016llx actual %016llx "
                "(%s)\n",
                d.id, static_cast<unsigned long long>(d.offset),
                static_cast<unsigned long long>(d.expected),
                static_cast<unsigned long long>(d.actual),
                d.repaired ? "repaired"
                           : d.redo_covered ? "repairable from WAL"
                                            : "UNREPAIRABLE");
  }
  return report.exit_code();
}

int RunRecord(const std::map<std::string, std::string>& flags) {
  const Dataset ds = LoadDataset(FlagOr(flags, "in", ""));
  const std::string log_path = FlagOr(flags, "log", "");
  const double varrho = std::stod(FlagOr(flags, "varrho", "1"));
  const double l = std::stod(FlagOr(flags, "l", "30"));
  const double extent = ds.config.extent;
  const double rho = varrho * ds.config.num_objects / (extent * extent);
  const double deadline_ms = std::stod(FlagOr(flags, "deadline-ms", "0"));
  if (!ArmFlightRecorder(flags)) return 1;

  // The header's engine geometry comes from the same option helpers every
  // other command builds its engines from.
  const FrEngine::Options fr = FrOptionsFor(ds, flags);
  const PaEngine::Options pa = PaOptionsFor(ds, l, flags);
  WorkloadLogHeader header;
  header.rho = rho;
  header.l = l;
  header.lookahead = std::stoi(FlagOr(flags, "lookahead", "10"));
  header.every = std::max(1, std::stoi(FlagOr(flags, "every", "5")));
  header.deadline_ms = deadline_ms;
  header.max_inflight = std::stoi(FlagOr(flags, "max-inflight", "0"));
  header.degrade = FlagOr(flags, "degrade", "1") != "0" ? 1 : 0;
  header.has_fallback = deadline_ms > 0.0 ? 1 : 0;
  header.threads = fr.exec.threads;
  header.histogram_side = fr.histogram_side;
  header.horizon = fr.horizon;
  header.buffer_pages = fr.buffer_pages;
  header.io_ms = fr.io_ms;
  header.index = static_cast<uint8_t>(fr.index);
  header.poly_side = pa.poly_side;
  header.degree = pa.degree;
  header.eval_grid = pa.eval_grid;
  const std::string fft_grid = FlagOr(flags, "fft-grid", "");
  if (!fft_grid.empty()) {
    header.has_fft = 1;
    header.fft_grid = std::stoi(fft_grid);
    // Pin the FFT rung so the capture's tier stamps are deterministic
    // (deadline-free ladders would otherwise answer exact every tick).
    header.enable_exact = 0;
  }

  const bool concurrent = flags.count("concurrent") > 0;
  const WorkloadRecorder::Stats stats =
      concurrent
          ? RecordConcurrentDataset(
                ds, log_path, header,
                std::max(1, std::stoi(FlagOr(flags, "concurrent", "1"))))
          : RecordDataset(ds, log_path, header,
                          FlagOr(flags, "bundle-dir", ""));
  std::printf("recorded %s%s: %lld ticks, %lld updates in %lld batches, "
              "%lld bytes\n",
              log_path.c_str(), concurrent ? " (concurrent)" : "",
              static_cast<long long>(stats.ticks),
              static_cast<long long>(stats.updates),
              static_cast<long long>(stats.update_batches),
              static_cast<long long>(stats.bytes));
  if (stats.bundles > 0) {
    std::printf("bundles  : %lld repro bundle(s) in %s\n",
                static_cast<long long>(stats.bundles),
                FlagOr(flags, "bundle-dir", "").c_str());
  }
  ReportFlightDumps(flags);
  return 0;
}

int RunReplay(const std::map<std::string, std::string>& flags) {
  const std::string log_path = FlagOr(flags, "log", "");
  const std::string bundle = FlagOr(flags, "bundle", "");
  if (flags.count("verify") > 0 && flags.count("bench") > 0) {
    std::fprintf(stderr, "error: --verify and --bench are exclusive\n");
    return 2;
  }
  const Replayer replayer = bundle.empty() ? Replayer::FromFile(log_path)
                                           : Replayer::FromBundle(bundle);
  ReplayOptions options;
  options.mode = flags.count("bench") > 0 ? ReplayOptions::Mode::kBench
                                          : ReplayOptions::Mode::kVerify;
  options.threads = std::stoi(FlagOr(flags, "threads", "-1"));
  const ReplayResult result = replayer.Run(options);

  std::printf("replayed %s: %lld ticks, %lld updates (threads=%d%s)\n",
              bundle.empty() ? log_path.c_str() : bundle.c_str(),
              static_cast<long long>(result.ticks),
              static_cast<long long>(result.updates), result.threads,
              replayer.log().torn_tail ? ", torn tail" : "");
  std::printf("tiers    : exact=%lld fft=%lld approx=%lld histogram=%lld "
              "shed=%lld\n",
              static_cast<long long>(result.tier_counts[0]),
              static_cast<long long>(result.tier_counts[4]),
              static_cast<long long>(result.tier_counts[1]),
              static_cast<long long>(result.tier_counts[2]),
              static_cast<long long>(result.tier_counts[3]));
  std::printf("latency  : p50=%.3f ms p95=%.3f ms p99=%.3f ms "
              "(%.1f ms total)\n",
              result.p50_ms, result.p95_ms, result.p99_ms, result.total_ms);
  std::printf("cpu      : p50=%.3f ms p95=%.3f ms p99=%.3f ms "
              "(%.1f ms total)\n",
              result.p50_cpu_ms, result.p95_cpu_ms, result.p99_cpu_ms,
              result.total_cpu_ms);

  if (flags.count("digests") > 0) {
    for (const WorkloadTickRecord& rec : result.replayed) {
      std::printf("digest t=%-4d tier=%u %016llx sig=%016llx\n", rec.now,
                  static_cast<unsigned>(rec.tier),
                  static_cast<unsigned long long>(rec.digest),
                  static_cast<unsigned long long>(rec.sig_hash));
    }
  }

  const std::string jsonl_path = FlagOr(flags, "jsonl", "");
  if (!jsonl_path.empty()) {
    std::FILE* out = jsonl_path == "-" ? stdout
                                       : std::fopen(jsonl_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", jsonl_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\"type\":\"series\",\"series\":\"replay_bench\",\"values\":{"
        "\"ticks\":%lld,\"updates\":%lld,\"threads\":%d,"
        "\"p50_ms\":%.6f,\"p95_ms\":%.6f,\"p99_ms\":%.6f,"
        "\"total_ms\":%.3f,"
        "\"p50_cpu_ms\":%.6f,\"p95_cpu_ms\":%.6f,\"p99_cpu_ms\":%.6f,"
        "\"total_cpu_ms\":%.3f,\"exact\":%lld,\"fft\":%lld,\"approx\":%lld,"
        "\"histogram\":%lld,\"shed\":%lld,\"mismatches\":%lld}}\n",
        static_cast<long long>(result.ticks),
        static_cast<long long>(result.updates), result.threads, result.p50_ms,
        result.p95_ms, result.p99_ms, result.total_ms, result.p50_cpu_ms,
        result.p95_cpu_ms, result.p99_cpu_ms, result.total_cpu_ms,
        static_cast<long long>(result.tier_counts[0]),
        static_cast<long long>(result.tier_counts[4]),
        static_cast<long long>(result.tier_counts[1]),
        static_cast<long long>(result.tier_counts[2]),
        static_cast<long long>(result.tier_counts[3]),
        static_cast<long long>(result.mismatch_count));
    if (out != stdout) std::fclose(out);
  }

  if (options.mode == ReplayOptions::Mode::kVerify) {
    if (!result.ok()) {
      std::fprintf(stderr, "verify: %lld of %lld ticks DIVERGED\n",
                   static_cast<long long>(result.mismatch_count),
                   static_cast<long long>(result.ticks));
      for (const ReplayMismatch& m : result.mismatches) {
        std::fprintf(stderr,
                     "  t=%-4d want digest=%016llx sig=%016llx tier=%u | "
                     "got digest=%016llx sig=%016llx tier=%u\n",
                     m.now, static_cast<unsigned long long>(m.want_digest),
                     static_cast<unsigned long long>(m.want_sig),
                     static_cast<unsigned>(m.want_tier),
                     static_cast<unsigned long long>(m.got_digest),
                     static_cast<unsigned long long>(m.got_sig),
                     static_cast<unsigned>(m.got_tier));
      }
      return 3;
    }
    std::printf("verify   : OK — %lld/%lld ticks bit-identical\n",
                static_cast<long long>(result.ticks),
                static_cast<long long>(result.ticks));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto it = CommandFlags().find(command);
  if (it == CommandFlags().end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    return Usage();
  }
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, it->second, &flags)) return Usage();
  if (command == "gen") {
    if (!HasRequired(flags, "gen", {"out"})) return Usage();
  } else if (command == "replay") {
    // Replay rebuilds everything from the log/bundle; exactly one source.
    const bool has_log = flags.count("log") > 0 && !flags.at("log").empty();
    const bool has_bundle =
        flags.count("bundle") > 0 && !flags.at("bundle").empty();
    if (has_log == has_bundle) {
      std::fprintf(stderr,
                   "error: 'replay' requires exactly one of --log/--bundle\n");
      return Usage();
    }
  } else if (command != "fsck") {
    if (!HasRequired(flags, command.c_str(), {"in"})) return Usage();
  }
  if (command == "save" || command == "recover" || command == "fsck") {
    if (!HasRequired(flags, command.c_str(), {"wal-dir"})) return Usage();
  }
  if (command == "record" &&
      !HasRequired(flags, "record", {"log"})) {
    return Usage();
  }
  try {
    if (command == "gen") return RunGen(flags);
    if (command == "info") return RunInfo(flags);
    if (command == "query") return RunQuery(flags);
    if (command == "explain") return RunExplain(flags);
    if (command == "monitor") return RunMonitor(flags);
    if (command == "stats") return RunStats(flags);
    if (command == "save") return RunSave(flags);
    if (command == "recover") return RunRecover(flags);
    if (command == "fsck") return RunFsckCmd(flags);
    if (command == "record") return RunRecord(flags);
    if (command == "replay") return RunReplay(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
