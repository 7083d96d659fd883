// Deterministic replay of captured workload logs.
//
// A workload log (pdr/obs/workload_log.h) holds everything a serving run
// consumed — configuration header, per-tick update batches — plus what it
// produced: per-tick result digests. The Replayer rebuilds the engines
// from the header alone and re-drives PdrMonitor through the recorded
// stream, in one of two modes:
//
//   kVerify  recompute every tick's digests and compare against the
//            recorded ones. A clean pass proves the replay is bit-identical
//            to the capture, at *any* thread count (the row-major merge
//            guarantee makes the logical answer thread-invariant) — any
//            captured run becomes a differential test. Caveat: captures
//            taken under a wall-clock deadline (header.deadline_ms > 0)
//            verify best-effort only, since which rung answered depended
//            on machine speed; unbounded captures (the exact rung on or
//            off) verify exactly.
//   kBench   re-drive as fast as possible and report per-tick latency
//            percentiles (p50/p95/p99, nearest-rank) and the achieved
//            answer-tier mix — the replay-based perf-regression probe CI
//            compares against BENCH_baseline.json.
//
// The engines are rebuilt in memory (no durable storage): the digests
// exclude I/O counts precisely so a capture taken against a DiskPager
// store replays identically against the in-memory engine.

#ifndef PDR_REPLAY_REPLAYER_H_
#define PDR_REPLAY_REPLAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdr/mobility/generator.h"
#include "pdr/obs/workload_log.h"

namespace pdr {

struct ReplayOptions {
  enum class Mode { kVerify, kBench };
  Mode mode = Mode::kVerify;
  /// Thread count for the replayed engines: -1 replays at the capture's
  /// recorded width, 1 forces serial, 0 hardware concurrency, N fixed.
  int threads = -1;
  /// Verify mode: mismatches beyond this many are counted but not stored.
  int max_reported_mismatches = 8;
};

/// One verify-mode divergence: the recorded tick vs what the replay got.
struct ReplayMismatch {
  Tick now = 0;
  uint64_t want_digest = 0;
  uint64_t got_digest = 0;
  uint64_t want_sig = 0;
  uint64_t got_sig = 0;
  uint8_t want_tier = 0;
  uint8_t got_tier = 0;
};

struct ReplayResult {
  int64_t ticks = 0;    ///< monitor evaluations replayed
  int64_t updates = 0;  ///< update events re-applied
  int threads = 1;      ///< width the replay ran at

  /// Verify mode: total divergent ticks (0 = bit-identical) and the first
  /// max_reported_mismatches of them in stream order.
  int64_t mismatch_count = 0;
  std::vector<ReplayMismatch> mismatches;

  /// Bench mode (also filled in verify mode; timings are informational
  /// there): wall time over the whole replay and nearest-rank percentiles
  /// of the per-tick OnTick latency. The *_cpu_ms twins measure process
  /// CPU time per tick — on shared machines wall time swings severalfold
  /// with cgroup throttling while CPU time stays put, so regression gates
  /// compare the CPU percentiles (scripts/check_replay.sh) and humans
  /// read the wall ones.
  double total_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double total_cpu_ms = 0.0;
  double p50_cpu_ms = 0.0;
  double p95_cpu_ms = 0.0;
  double p99_cpu_ms = 0.0;

  /// Achieved answer-tier mix, indexed by AnswerTier (kExact, kApprox,
  /// kHistogram, kShed, kFft).
  int64_t tier_counts[5] = {0, 0, 0, 0, 0};

  /// The re-derived per-tick records, parallel to the log's tick records.
  std::vector<WorkloadTickRecord> replayed;

  bool ok() const { return mismatch_count == 0; }
};

class Replayer {
 public:
  explicit Replayer(WorkloadLog log) : log_(std::move(log)) {}

  /// Loads a workload log file (WorkloadLog::Load error contract).
  static Replayer FromFile(const std::string& path);

  /// Loads the workload log inside a repro bundle directory written by
  /// WorkloadRecorder::WriteBundle.
  static Replayer FromBundle(const std::string& bundle_dir);

  const WorkloadLog& log() const { return log_; }

  /// True when the log was captured by a concurrent (MVCC) run: some
  /// updates record carries a commit epoch.
  bool concurrent() const;

  /// Rebuilds the engines from the log header and re-drives the monitor
  /// through every record.
  ///
  /// Concurrent captures (see concurrent()) replay differently: the
  /// update stream is re-driven serialized, in commit-epoch order, and
  /// after each epoch's batch the standing query is evaluated once —
  /// that serialized answer is the reference every recorded snapshot
  /// answer pinned to the epoch must match bit-exactly. A clean pass
  /// proves the concurrent run's every answer equals serialized
  /// execution at its pinned epoch, which is the MVCC correctness
  /// claim. Recorded answers whose epoch has no updates record count as
  /// mismatches (the capture is incomplete).
  ReplayResult Run(const ReplayOptions& options = {}) const;

 private:
  WorkloadLog log_;
};

/// Capture helper shared by `pdr_tool record`, the CI fixture generator,
/// and tests: drives `dataset` through freshly built engines (FR primary,
/// plus a PA fallback when header.has_fallback and header.enable_approx,
/// and an FFT whole-plane rung when header.has_fft) — the same stack Run
/// rebuilds from the header — with a WorkloadRecorder attached to the
/// monitor. Dataset-shape header fields (extent,
/// num_objects, max_update_interval, seed, duration) are overwritten from
/// `dataset`; all other knobs (query, resilience, engine geometry,
/// threads) are taken from `header` as passed. A non-empty `bundle_dir`
/// arms incident repro bundles for the duration of the run.
WorkloadRecorder::Stats RecordDataset(const Dataset& dataset,
                                      const std::string& log_path,
                                      WorkloadLogHeader header,
                                      const std::string& bundle_dir = "");

/// Concurrent-capture twin of RecordDataset: drives `dataset` through an
/// MVCC-enabled FR engine via the monitor's concurrent API — per tick one
/// ApplyUpdates commit, then `queries_per_tick` RunSnapshotQuery calls on
/// monitor cadence (header.every) — all on the calling thread, so the
/// schedule (and the log bytes) are machine-independent: the canned
/// concurrent fixture and its goldens are generated through here. The
/// same log format verifies captures from genuinely multi-threaded runs;
/// only the record order differs.
WorkloadRecorder::Stats RecordConcurrentDataset(const Dataset& dataset,
                                                const std::string& log_path,
                                                WorkloadLogHeader header,
                                                int queries_per_tick = 1);

}  // namespace pdr

#endif  // PDR_REPLAY_REPLAYER_H_
