#include "pdr/replay/replayer.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <map>
#include <memory>
#include <utility>

#include "pdr/common/stats.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/monitor.h"
#include "pdr/core/pa_engine.h"
#include "pdr/fft/fft_engine.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/parallel/exec_policy.h"

namespace pdr {
namespace {

ExecPolicy ExecForThreads(int threads) {
  return threads == 1 ? ExecPolicy::Serial() : ExecPolicy::Parallel(threads);
}

FrEngine::Options FrOptionsFromHeader(const WorkloadLogHeader& h,
                                      const ExecPolicy& exec) {
  return {.extent = h.extent,
          .histogram_side = h.histogram_side,
          .horizon = h.horizon,
          .buffer_pages = static_cast<size_t>(h.buffer_pages),
          .io_ms = h.io_ms,
          .index = static_cast<IndexKind>(h.index),
          .max_update_interval = h.max_update_interval,
          .exec = exec};
}

PaEngine::Options PaOptionsFromHeader(const WorkloadLogHeader& h,
                                      const ExecPolicy& exec) {
  return {.extent = h.extent,
          .poly_side = h.poly_side,
          .degree = h.degree,
          .horizon = h.horizon,
          .l = h.l,
          .eval_grid = h.eval_grid,
          .exec = exec};
}

FftDensityEngine::Options FftOptionsFromHeader(const WorkloadLogHeader& h) {
  return {.extent = h.extent, .grid = h.fft_grid, .horizon = h.horizon};
}

PdrMonitor::Options MonitorOptionsFromHeader(const WorkloadLogHeader& h) {
  PdrMonitor::Options opts{.rho = h.rho, .l = h.l, .lookahead = h.lookahead};
  opts.resilience.deadline_ms = h.deadline_ms;
  opts.resilience.max_inflight = h.max_inflight;
  opts.resilience.degrade = h.degrade != 0;
  opts.resilience.enable_exact = h.enable_exact != 0;
  return opts;
}

// The serving stack a header describes: FR primary, the PA fallback and
// the FFT rung when the header attached them, and the monitor wired over
// all three. Capture and replay both build through here.
struct ServingStack {
  ServingStack(const WorkloadLogHeader& h, const ExecPolicy& exec)
      : fr(FrOptionsFromHeader(h, exec)),
        monitor(&fr, MonitorOptionsFromHeader(h)) {
    if (h.has_fallback != 0 && h.enable_approx != 0) {
      pa = std::make_unique<PaEngine>(PaOptionsFromHeader(h, exec));
      monitor.SetFallback(pa.get());
    }
    if (h.has_fft != 0) {
      fft = std::make_unique<FftDensityEngine>(FftOptionsFromHeader(h));
      monitor.SetFftRung(fft.get());
    }
    monitor.SetExecPolicy(exec);
  }

  // Advances every engine to `now` and applies the batch to each.
  void Ingest(Tick now, const std::vector<UpdateEvent>& updates) {
    fr.AdvanceTo(now);
    if (pa != nullptr) pa->AdvanceTo(now);
    if (fft != nullptr) fft->AdvanceTo(now);
    for (const UpdateEvent& e : updates) {
      fr.Apply(e);
      if (pa != nullptr) pa->Apply(e);
      if (fft != nullptr) fft->Apply(e);
    }
  }

  FrEngine fr;
  std::unique_ptr<PaEngine> pa;
  std::unique_ptr<FftDensityEngine> fft;
  PdrMonitor monitor;
};

// Process CPU time in milliseconds (std::clock is CPU time on POSIX).
// Aggregates all pool threads, so a parallel replay's per-tick CPU cost
// reads as total work, not elapsed time — exactly what a throttling-proof
// regression gate wants.
double CpuNowMs() {
  return 1000.0 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// Nearest-rank percentile over an already sorted sample vector.
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Wall and CPU time over one replay: per evaluated tick, and in total.
struct ReplayTimings {
  Timer total;
  double cpu_start = CpuNowMs();
  std::vector<double> wall;
  std::vector<double> cpu;

  template <typename Fn>
  auto Time(Fn&& evaluate) {
    Timer tick_timer;
    const double tick_cpu = CpuNowMs();
    auto out = evaluate();
    cpu.push_back(CpuNowMs() - tick_cpu);
    wall.push_back(tick_timer.ElapsedMillis());
    return out;
  }

  // Totals plus nearest-rank p50/p95/p99 of both clocks.
  void Finish(ReplayResult* result) {
    result->total_ms = total.ElapsedMillis();
    result->total_cpu_ms = CpuNowMs() - cpu_start;
    std::sort(wall.begin(), wall.end());
    std::sort(cpu.begin(), cpu.end());
    result->p50_ms = Percentile(wall, 50.0);
    result->p95_ms = Percentile(wall, 95.0);
    result->p99_ms = Percentile(wall, 99.0);
    result->p50_cpu_ms = Percentile(cpu, 50.0);
    result->p95_cpu_ms = Percentile(cpu, 95.0);
    result->p99_cpu_ms = Percentile(cpu, 99.0);
  }
};

// Tallies one re-derived tick and, in verify mode, compares it with the
// recorded one.
void Report(const WorkloadTickRecord& want, const WorkloadTickRecord& got,
            const ReplayOptions& options, ReplayResult* result) {
  result->tier_counts[std::min<uint8_t>(got.tier, 4)] += 1;
  result->replayed.push_back(got);
  ++result->ticks;
  if (options.mode == ReplayOptions::Mode::kVerify &&
      (got.digest != want.digest || got.sig_hash != want.sig_hash ||
       got.tier != want.tier)) {
    ++result->mismatch_count;
    if (static_cast<int>(result->mismatches.size()) <
        options.max_reported_mismatches) {
      result->mismatches.push_back({want.now, want.digest, got.digest,
                                    want.sig_hash, got.sig_hash, want.tier,
                                    got.tier});
    }
  }
}

// Concurrent-capture verify/bench: re-drive the update stream serialized
// in commit-epoch (= file) order; after each epoch's batch, one serialized
// evaluation of the standing query is the reference answer for every
// recorded snapshot pinned to that epoch.
ReplayResult RunConcurrent(const WorkloadLog& log,
                           const ReplayOptions& options) {
  const WorkloadLogHeader& h = log.header;
  const int threads = options.threads < 0 ? h.threads : options.threads;
  FrEngine fr(FrOptionsFromHeader(h, ExecForThreads(threads)));

  // Recorded snapshot answers, grouped by pinned epoch. Readers record in
  // scheduling order, so tick records interleave arbitrarily with updates
  // records; the grouping restores per-epoch order.
  std::map<uint64_t, std::vector<const WorkloadTickRecord*>> by_epoch;
  for (const WorkloadLogRecord& rec : log.records) {
    if (rec.kind == WorkloadLogRecord::Kind::kTick) {
      by_epoch[rec.query.epoch].push_back(&rec.query);
    }
  }

  ReplayResult result;
  result.threads = threads;
  ReplayTimings timings;
  for (const WorkloadLogRecord& rec : log.records) {
    if (rec.kind != WorkloadLogRecord::Kind::kUpdates) continue;
    fr.AdvanceTo(rec.tick);
    for (const UpdateEvent& e : rec.updates) fr.Apply(e);
    result.updates += static_cast<int64_t>(rec.updates.size());

    auto group = by_epoch.find(rec.epoch);
    if (group == by_epoch.end()) continue;  // epoch nobody queried

    const Tick q_t = rec.tick + h.lookahead;
    const FrEngine::QueryResult qr =
        timings.Time([&] { return fr.Query(q_t, h.rho, h.l); });
    const WorkloadTickRecord got = TickRecordOf(PdrMonitor::MakeSnapshotDelta(
        rec.tick, q_t, h.rho, h.l, rec.epoch, qr, 0.0));
    for (const WorkloadTickRecord* want : group->second) {
      Report(*want, got, options, &result);
    }
    by_epoch.erase(group);
  }

  // Answers pinned to an epoch with no updates record cannot be
  // re-derived; an incomplete capture fails verification rather than
  // passing vacuously.
  for (const auto& [epoch, group] : by_epoch) {
    for (const WorkloadTickRecord* want : group) {
      WorkloadTickRecord got;  // zero digests: nothing re-derivable
      got.now = want->now;
      got.q_t = want->q_t;
      got.epoch = epoch;
      Report(*want, got, options, &result);
    }
  }
  timings.Finish(&result);
  return result;
}

}  // namespace

Replayer Replayer::FromFile(const std::string& path) {
  return Replayer(WorkloadLog::Load(path));
}

Replayer Replayer::FromBundle(const std::string& bundle_dir) {
  return FromFile(BundleWorkloadLog(bundle_dir));
}

bool Replayer::concurrent() const {
  for (const WorkloadLogRecord& rec : log_.records) {
    if (rec.kind == WorkloadLogRecord::Kind::kUpdates && rec.epoch > 0) {
      return true;
    }
  }
  return false;
}

ReplayResult Replayer::Run(const ReplayOptions& options) const {
  if (concurrent()) return RunConcurrent(log_, options);
  const WorkloadLogHeader& h = log_.header;
  const int threads = options.threads < 0 ? h.threads : options.threads;
  ServingStack stack(h, ExecForThreads(threads));

  ReplayResult result;
  result.threads = threads;
  ReplayTimings timings;
  for (const WorkloadLogRecord& rec : log_.records) {
    stack.Ingest(rec.tick, rec.updates);  // tick records carry no updates
    if (rec.kind == WorkloadLogRecord::Kind::kUpdates) {
      result.updates += static_cast<int64_t>(rec.updates.size());
      continue;
    }
    const PdrMonitor::Delta delta =
        timings.Time([&] { return stack.monitor.OnTick(rec.query.now); });
    Report(rec.query, TickRecordOf(delta), options, &result);
  }
  timings.Finish(&result);
  return result;
}

WorkloadRecorder::Stats RecordDataset(const Dataset& dataset,
                                      const std::string& log_path,
                                      WorkloadLogHeader header,
                                      const std::string& bundle_dir) {
  header.extent = dataset.config.extent;
  header.num_objects = dataset.config.num_objects;
  header.max_update_interval = dataset.config.max_update_interval;
  header.seed = dataset.config.seed;
  header.duration = dataset.duration();

  ServingStack stack(header, ExecForThreads(header.threads));
  WorkloadRecorder recorder(log_path, header);
  stack.monitor.SetRecorder(&recorder);
  if (!bundle_dir.empty()) recorder.ArmBundles(bundle_dir);

  const Tick every = std::max<Tick>(1, header.every);
  for (Tick now = 0; now <= dataset.duration(); ++now) {
    stack.Ingest(now, dataset.ticks[now]);
    recorder.OnUpdates(now, dataset.ticks[now]);
    if (now % every == 0) stack.monitor.OnTick(now);
  }
  recorder.Flush();
  return recorder.stats();
}

WorkloadRecorder::Stats RecordConcurrentDataset(const Dataset& dataset,
                                                const std::string& log_path,
                                                WorkloadLogHeader header,
                                                int queries_per_tick) {
  header.extent = dataset.config.extent;
  header.num_objects = dataset.config.num_objects;
  header.max_update_interval = dataset.config.max_update_interval;
  header.seed = dataset.config.seed;
  header.duration = dataset.duration();
  header.has_fallback = 0;  // the concurrent path is FR-only
  header.has_fft = 0;

  const ExecPolicy exec = ExecForThreads(header.threads);
  mvcc::SnapshotManager snapshots;
  FrEngine::Options fr_opts = FrOptionsFromHeader(header, exec);
  fr_opts.snapshots = &snapshots;
  FrEngine fr(fr_opts);
  PdrMonitor monitor(&fr, MonitorOptionsFromHeader(header));
  monitor.SetExecPolicy(exec);

  WorkloadRecorder recorder(log_path, header);
  monitor.SetRecorder(&recorder);
  monitor.StartConcurrent();

  const Tick every = std::max<Tick>(1, header.every);
  for (Tick now = 0; now <= dataset.duration(); ++now) {
    monitor.ApplyUpdates(now, dataset.ticks[now]);
    if (now % every == 0) {
      for (int q = 0; q < queries_per_tick; ++q) monitor.RunSnapshotQuery();
    }
  }
  recorder.Flush();
  return recorder.stats();
}

}  // namespace pdr
