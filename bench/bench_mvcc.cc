// Extension bench: MVCC snapshot reads (DESIGN.md §14). Prices the
// claim "writers never block readers" in both directions on a steady
// workload:
//
//   mvcc_throughput   sustained commit rate (updates/sec) and the
//                     snapshot-query latency percentiles as the reader
//                     count grows. Row readers=-1 is the serialized
//                     baseline — the same queries run inline on the
//                     writer thread between commits, so its commit rate
//                     shows what reader load costs a writer that must
//                     serialize; rows 0..N pay only CPU sharing.
//   mvcc_memory       live/retired version counts and the reclaim floor
//                     at the end of each run — what holding snapshots
//                     costs in memory.
//
// Expected shapes: commit rate for readers>=1 stays near the readers=0
// row (on a single core the drop is CPU contention, not blocking — no
// row should fall toward the serialized baseline's); snapshot p99 stays
// in the same decade as the serialized inline latency.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

using namespace pdr;

struct RunResult {
  int64_t commits = 0;
  int64_t updates = 0;
  double wall_s = 0.0;
  int64_t queries = 0;
  double q_p50_ms = 0.0;
  double q_p99_ms = 0.0;
  int64_t live_versions = 0;
  int64_t retired_versions = 0;

  double CommitsPerSec() const { return commits / wall_s; }
  double UpdatesPerSec() const { return updates / wall_s; }
};

double PercentileOf(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  return (*v)[static_cast<size_t>(p * (v->size() - 1))];
}

// Drives the full dataset through one writer; `readers` threads run
// snapshot queries flat-out meanwhile. readers == -1: serialized
// baseline, one inline query per tick on the writer thread.
RunResult RunMvcc(const Dataset& ds, const bench::BenchEnv& env,
                  double rho, double l, int readers) {
  mvcc::SnapshotManager snapshots;
  FrEngine fr(bench::FrOptionsFor(env, ds.config.num_objects));
  // Rebuild with snapshots attached (FrOptionsFor has no MVCC knob).
  FrEngine::Options opts = fr.options();
  opts.snapshots = &snapshots;
  FrEngine engine(opts);

  const Tick lookahead = env.paper.prediction_window / 2;
  std::atomic<bool> done{false};
  std::atomic<int64_t> queries{0};
  std::mutex lat_mu;
  std::vector<double> latencies;

  auto reader_loop = [&] {
    std::vector<double> local;
    while (!done.load(std::memory_order_acquire)) {
      mvcc::Snapshot snap;
      try {
        snap = snapshots.Pin();
      } catch (const std::logic_error&) {
        continue;
      }
      const Tick q_t = mvcc::SnapshotFrNow(snap) + lookahead;
      const auto t0 = std::chrono::steady_clock::now();
      (void)mvcc::SnapshotFrQuery(engine, snap, q_t, rho, l);
      const auto t1 = std::chrono::steady_clock::now();
      snap.Release();
      local.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      queries.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(lat_mu);
    latencies.insert(latencies.end(), local.begin(), local.end());
  };

  RunResult out;
  std::vector<std::thread> pool;
  const auto start = std::chrono::steady_clock::now();
  for (Tick now = 0; now <= ds.duration(); ++now) {
    engine.AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) engine.Apply(e);
    engine.Commit();
    out.commits += 1;
    out.updates += static_cast<int64_t>(ds.ticks[now].size());
    if (readers < 0) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)engine.Query(now + lookahead, rho, l);
      const auto t1 = std::chrono::steady_clock::now();
      latencies.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      queries.fetch_add(1, std::memory_order_relaxed);
    } else if (now == 0) {
      for (int r = 0; r < readers; ++r) pool.emplace_back(reader_loop);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  out.queries = queries.load();
  out.q_p50_ms = PercentileOf(&latencies, 0.50);
  out.q_p99_ms = PercentileOf(&latencies, 0.99);
  out.live_versions = snapshots.live_versions();
  out.retired_versions = snapshots.retired_versions();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdr;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::Banner(env, "bench_mvcc",
                "MVCC snapshot reads: commit rate vs reader load (§14)");

  const int objects = env.ScaledObjects(100000);
  const double l = 30.0;
  const double rho = env.Rho(objects, 2);
  const Tick duration =
      static_cast<Tick>(env.paper.max_update_interval) + 20;
  WorkloadConfig config;
  config.WithExtent(env.paper.extent);
  config.num_objects = objects;
  config.max_update_interval = env.paper.max_update_interval;
  config.seed = env.seed;
  const Dataset ds = GenerateDataset(config, duration);
  std::printf("dataset: %d objects, %lld ticks, rho=%.3g, l=%g\n", objects,
              static_cast<long long>(duration), rho, l);

  bench::SeriesPrinter table(
      "mvcc_throughput",
      {"readers", "commits_per_s", "updates_per_s", "queries", "q_p50_ms",
       "q_p99_ms", "live_versions", "retired_versions"});
  for (const int readers : {-1, 0, 1, 2, 4}) {
    const RunResult r = RunMvcc(ds, env, rho, l, readers);
    table.Row({static_cast<double>(readers), r.CommitsPerSec(),
               r.UpdatesPerSec(), static_cast<double>(r.queries),
               r.q_p50_ms, r.q_p99_ms,
               static_cast<double>(r.live_versions),
               static_cast<double>(r.retired_versions)});
  }
  table.Flush();
  std::printf(
      "\nExpected: readers>=1 rows commit near the readers=0 rate (CPU "
      "sharing only, never blocking); the readers=-1 serialized baseline "
      "pays every query on the commit path.\n");
  return 0;
}
