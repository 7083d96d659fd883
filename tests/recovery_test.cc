// Crash-fault sweep over the durable FR engine.
//
// The invariant under test (the durability contract): after a crash at
// ANY injected fault point — every write/fsync boundary in the WAL, the
// data file, and the checkpoint publication, in each of the three crash
// modes — the recovered store answers a seeded FR query suite
// bit-identically (hexfloat transcripts, transcript_util.h) to a
// never-crashed run at the last durable checkpoint:
//
//   crash at or before checkpoint 1's commit flush -> empty-store answers
//   crash at or before checkpoint 2's commit flush -> checkpoint-1 answers
//   crash after it                                 -> checkpoint-2 answers
//
// A fault-free rehearsal run counts the kill points and records the two
// baseline transcripts; the sweep then replays the identical run once per
// (kill point, mode), recovers, and byte-compares. By default torn-write
// and truncated-tail run on every third point (every point gets kClean);
// PDR_CRASH_SWEEP=full — the CI crash-matrix lane — sweeps the full
// matrix.
//
// Boundary semantics: an injected crash loses the failing operation (and
// everything after it) but nothing a previous syscall already wrote — so
// the state flips at the commit batch's *flush write*, one op before its
// fsync. Crashing at the fsync itself leaves the batch on disk and
// recovery correctly surfaces the newer state; a real power cut that
// additionally lost the un-fsynced write is the same on-disk picture as
// crashing at the write op, which the sweep also covers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pdr/core/fr_engine.h"
#include "pdr/core/monitor.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/obs/workload_log.h"
#include "pdr/replay/replayer.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/page_format.h"
#include "transcript_util.h"

namespace pdr {
namespace {

using test_util::FrSuiteTranscript;

constexpr double kExtent = 400.0;
constexpr int kObjects = 150;
constexpr Tick kU = 8;
constexpr Tick kDuration = 12;
constexpr Tick kPhaseSplit = 6;  // checkpoint 1 after this tick
constexpr double kL = 30.0;

double BaseRho() { return static_cast<double>(kObjects) / (kExtent * kExtent); }

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pdr_recovery_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

Dataset MakeWorkload() {
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = kObjects;
  config.max_update_interval = kU;
  config.seed = 99;
  return GenerateDataset(config, kDuration);
}

FrEngine::Options Opts(IndexKind kind, const std::string& dir,
                       FaultInjector* injector) {
  return {.extent = kExtent,
          .histogram_side = 20,
          .horizon = 2 * kU,
          .buffer_pages = 32,
          .io_ms = 10.0,
          .index = kind,
          .max_update_interval = kU,
          .storage_dir = dir,
          .fault_injector = injector};
}

void Replay(const Dataset& ds, Tick from, Tick to, FrEngine* fr) {
  for (Tick now = from; now <= to; ++now) {
    fr->AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) fr->Apply(e);
  }
}

// The full to-be-crashed run: build phase 1, checkpoint, build phase 2,
// checkpoint. Every sweep iteration executes exactly this sequence.
void RunBothPhases(const Dataset& ds, FrEngine* fr) {
  Replay(ds, 0, kPhaseSplit, fr);
  fr->Checkpoint();
  Replay(ds, kPhaseSplit + 1, ds.duration(), fr);
  fr->Checkpoint();
}

struct SweepBaseline {
  std::string empty_t;  // answers of a store that never reached checkpoint 1
  std::string a_t;      // answers at checkpoint 1
  std::string b_t;      // answers at checkpoint 2
  int64_t total_ops = 0;
  // Last op whose failure still loses checkpoint N: the flush write of
  // checkpoint N's commit batch. One op later is that batch's fsync, by
  // which point the batch bytes are already in the file.
  int64_t last_old1 = 0;
  int64_t last_old2 = 0;
};

SweepBaseline Rehearse(const Dataset& ds, IndexKind kind) {
  SweepBaseline base;
  {
    FrEngine mem(Opts(kind, "", nullptr));
    base.empty_t = FrSuiteTranscript(&mem, BaseRho(), kL);
  }
  TempDir dir;
  FaultInjector counter;  // never armed: counts the kill points
  FrEngine fr(Opts(kind, dir.path(), &counter));
  Replay(ds, 0, kPhaseSplit, &fr);
  fr.Checkpoint();
  const int64_t ops_before_a = counter.ops_seen();
  base.a_t = FrSuiteTranscript(&fr, BaseRho(), kL);
  // Queries must never touch the files: a transcript consumes no fault
  // points, so the sweep's op numbering matches this rehearsal even
  // though the sweep skips the queries.
  EXPECT_EQ(counter.ops_seen(), ops_before_a);
  Replay(ds, kPhaseSplit + 1, ds.duration(), &fr);
  fr.Checkpoint();
  base.b_t = FrSuiteTranscript(&fr, BaseRho(), kL);
  base.total_ops = counter.ops_seen();

  // Locate the boundaries. The protocol emits exactly two wal.sync ops
  // per checkpoint — the commit-batch fsync and the post-publication
  // WAL-reset fsync — and none while creating the store, so across two
  // checkpoints the commit fsyncs are the 1st and 3rd wal.sync (see
  // disk_pager.h; these assertions pin that shape). The state boundary is
  // the single flush write immediately before each commit fsync: once it
  // completes, the committed batch is in the file and recovery surfaces
  // the new checkpoint whether or not the fsync ever ran.
  std::vector<int64_t> syncs;
  for (int64_t i = 0; i < base.total_ops; ++i) {
    if (counter.op_log()[i] == "wal.sync") syncs.push_back(i);
  }
  EXPECT_EQ(syncs.size(), 4u) << "checkpoint protocol shape changed";
  base.last_old1 = syncs[0] - 1;
  base.last_old2 = syncs[2] - 1;
  EXPECT_EQ(counter.op_log()[base.last_old1], "wal.write");
  EXPECT_EQ(counter.op_log()[base.last_old2], "wal.write");
  return base;
}

class RecoverySweepTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(RecoverySweepTest, EveryKillPointRecoversBitIdentically) {
  const IndexKind kind = GetParam();
  const Dataset ds = MakeWorkload();
  const SweepBaseline base = Rehearse(ds, kind);
  ASSERT_GT(base.total_ops, 0);
  ASSERT_LT(base.last_old1, base.last_old2);

  const char* sweep_env = std::getenv("PDR_CRASH_SWEEP");
  const bool full = sweep_env != nullptr && std::string(sweep_env) == "full";

  int64_t cases = 0;
  for (int64_t k = 0; k < base.total_ops; ++k) {
    std::vector<CrashMode> modes = {CrashMode::kClean};
    if (full || k % 3 == 0) {
      modes.push_back(CrashMode::kTornWrite);
      modes.push_back(CrashMode::kTruncatedTail);
    }
    for (const CrashMode mode : modes) {
      ++cases;
      TempDir dir;
      FaultInjector inject(/*seed=*/1234 + static_cast<uint64_t>(k));
      inject.Arm(k, mode);
      bool crashed = false;
      try {
        FrEngine fr(Opts(kind, dir.path(), &inject));
        RunBothPhases(ds, &fr);
      } catch (const CrashError&) {
        crashed = true;
      }
      ASSERT_TRUE(crashed) << "kill point " << k << " never fired";

      FrEngine recovered(Opts(kind, dir.path(), nullptr));
      const std::string got = FrSuiteTranscript(&recovered, BaseRho(), kL);
      const std::string& want = k <= base.last_old1   ? base.empty_t
                                : k <= base.last_old2 ? base.a_t
                                                      : base.b_t;
      EXPECT_EQ(got, want)
          << "kill point " << k << " (" << inject.op_log()[k] << "), mode "
          << static_cast<int>(mode) << ": recovered store diverges from the "
          << (k <= base.last_old1  ? "empty store"
              : k <= base.last_old2 ? "first checkpoint"
                                    : "second checkpoint");
    }
  }
  // 3 ops to create the store + 13 per checkpoint at this workload; the
  // exact count may drift with the protocol but a collapsed sweep (e.g.
  // injection accidentally disabled) must fail loudly.
  EXPECT_GE(cases, base.total_ops);
}

TEST_P(RecoverySweepTest, RecoveredEngineContinuesToIdenticalFuture) {
  // Crash between the checkpoints, recover at checkpoint 1, then replay
  // phase 2 on the *recovered* engine: it must reach checkpoint-2 answers
  // bit-identically — recovery restores operational state, not just a
  // readable snapshot.
  const IndexKind kind = GetParam();
  const Dataset ds = MakeWorkload();
  const SweepBaseline base = Rehearse(ds, kind);

  TempDir dir;
  FaultInjector inject;
  // Kill checkpoint 2's commit flush: its batch never reaches the file.
  inject.Arm(base.last_old2, CrashMode::kClean);
  try {
    FrEngine fr(Opts(kind, dir.path(), &inject));
    RunBothPhases(ds, &fr);
    FAIL() << "armed crash did not fire";
  } catch (const CrashError&) {
  }

  FrEngine fr(Opts(kind, dir.path(), nullptr));
  ASSERT_TRUE(fr.recovered());
  ASSERT_EQ(FrSuiteTranscript(&fr, BaseRho(), kL), base.a_t);
  Replay(ds, kPhaseSplit + 1, ds.duration(), &fr);
  fr.Checkpoint();
  EXPECT_EQ(FrSuiteTranscript(&fr, BaseRho(), kL), base.b_t);
}

TEST_P(RecoverySweepTest, StaleCheckpointWithDamagedDataHealsFromWalRedo) {
  // The compound failure the trailer layer exists for: a crash after
  // checkpoint 2's durable point (the WAL batch is committed) but before
  // any slot write leaves checkpoint.pdr valid-but-STALE — and then cold
  // bit-rot lands on a data slot while the machine is down. Recovery must
  // detect the damaged slot, heal it from the committed WAL after-image,
  // count it in recovery_stats().pages_repaired, and converge to the
  // checkpoint-2 answers bit-identically.
  const IndexKind kind = GetParam();
  const Dataset ds = MakeWorkload();
  const SweepBaseline base = Rehearse(ds, kind);

  TempDir dir;
  FaultInjector inject;
  // last_old2 is checkpoint 2's commit flush write; +1 is its fsync (the
  // durable point), +2 the first slot write of the converge.
  inject.Arm(base.last_old2 + 2, CrashMode::kClean);
  try {
    FrEngine fr(Opts(kind, dir.path(), &inject));
    RunBothPhases(ds, &fr);
    FAIL() << "armed crash did not fire";
  } catch (const CrashError&) {
  }
  ASSERT_EQ(inject.op_log()[base.last_old2 + 2], "data.write")
      << "checkpoint protocol shape changed";

  // At-rest damage on a slot the committed batch covers (scanning the WAL
  // tells us which pages those are, exactly as recovery will).
  Wal wal(dir.path() + "/wal.log", nullptr);
  const Wal::ScanResult scan = wal.Scan();
  ASSERT_FALSE(scan.batches.empty());
  const PageId covered = scan.batches.back().pages.front().id;
  ASSERT_TRUE(FlipBitInFile(dir.path() + "/data.pdr",
                            SlotOffset(covered) + 123, 5));

  FrEngine fr(Opts(kind, dir.path(), nullptr));
  ASSERT_TRUE(fr.recovered());
  const DiskPager* disk = fr.index().disk();
  ASSERT_NE(disk, nullptr);
  EXPECT_GE(disk->recovery_stats().pages_repaired, 1);
  EXPECT_EQ(FrSuiteTranscript(&fr, BaseRho(), kL), base.b_t);
}

TEST_P(RecoverySweepTest, CrashStormDuringRecoveryStillConverges) {
  // Crash mid-checkpoint-2 *after* the durable point, so recovery has
  // redo work (it re-applies the WAL batch and re-publishes the files).
  // Then crash the recovery itself, at increasing depth, until one
  // completes: every intermediate crash state must still recover to
  // checkpoint-2 answers. Recovery must be idempotent under its own
  // failures.
  const IndexKind kind = GetParam();
  const Dataset ds = MakeWorkload();
  const SweepBaseline base = Rehearse(ds, kind);

  TempDir dir;
  FaultInjector inject;
  inject.Arm(base.last_old2 + 2, CrashMode::kTornWrite);
  try {
    FrEngine fr(Opts(kind, dir.path(), &inject));
    RunBothPhases(ds, &fr);
    FAIL() << "armed crash did not fire";
  } catch (const CrashError&) {
  }

  bool completed = false;
  for (int64_t depth = 0; depth < 200 && !completed; ++depth) {
    FaultInjector again(/*seed=*/77 + static_cast<uint64_t>(depth));
    again.Arm(depth, depth % 2 == 0 ? CrashMode::kClean
                                    : CrashMode::kTornWrite);
    try {
      FrEngine fr(Opts(kind, dir.path(), &again));
      // Construction finished: recovery ran past fault point `depth`.
      completed = true;
      EXPECT_EQ(FrSuiteTranscript(&fr, BaseRho(), kL), base.b_t);
    } catch (const CrashError&) {
      // Crashed inside recovery; next attempt digs one op deeper into
      // the (possibly further mutated) crash state.
    }
  }
  EXPECT_TRUE(completed) << "recovery never ran fault-free within 200 ops";
}

INSTANTIATE_TEST_SUITE_P(Indexes, RecoverySweepTest,
                         ::testing::Values(IndexKind::kTprTree,
                                           IndexKind::kBxTree),
                         [](const auto& info) {
                           return info.param == IndexKind::kTprTree ? "Tpr"
                                                                    : "Bx";
                         });

// --------------------------------------------------------------------------
// Transient-fault sweep: the same kill points as the crash sweep, but the
// op *fails then succeeds* (FaultInjector::ArmTransient) instead of
// killing the process. The bounded-retry layer in StorageFile must absorb
// the fault invisibly: the run completes without CrashError, the final
// answers are bit-identical to the fault-free rehearsal, and a reopen
// takes the clean-checkpoint path — no WAL redo, no torn tail. Retries
// must never masquerade as crashes (or vice versa).

class TransientSweepTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(TransientSweepTest, FailThenSucceedAtEveryOpIsInvisible) {
  const IndexKind kind = GetParam();
  const Dataset ds = MakeWorkload();
  const SweepBaseline base = Rehearse(ds, kind);
  ASSERT_GT(base.total_ops, 0);

  const char* sweep_env = std::getenv("PDR_CRASH_SWEEP");
  const bool full = sweep_env != nullptr && std::string(sweep_env) == "full";

  for (int64_t k = 0; k < base.total_ops; k += full ? 1 : 3) {
    TempDir dir;
    FaultInjector inject(/*seed=*/4321 + static_cast<uint64_t>(k));
    // Two consecutive failures: the first retry of op k lands back inside
    // the armed window, so the op must survive repeated faults too.
    inject.ArmTransient(k, /*failures=*/2);
    {
      FrEngine fr(Opts(kind, dir.path(), &inject));
      RunBothPhases(ds, &fr);
      EXPECT_EQ(inject.transient_fired(), 2) << "kill point " << k;
      EXPECT_FALSE(inject.fired()) << "transient fault escalated to a crash";
      EXPECT_EQ(FrSuiteTranscript(&fr, BaseRho(), kL), base.b_t)
          << "kill point " << k << " (" << inject.op_log()[k]
          << "): retried run diverges from the fault-free baseline";
    }
    // Reopen with no injector: the durable state must look like any
    // cleanly checkpointed store. Crash recovery finding redo work here
    // would mean the retries corrupted the commit protocol.
    FrEngine reopened(Opts(kind, dir.path(), nullptr));
    const RecoveryStats& rs = reopened.index().disk()->recovery_stats();
    EXPECT_EQ(rs.batches_applied, 0) << "kill point " << k;
    EXPECT_FALSE(rs.torn_tail) << "kill point " << k;
    EXPECT_EQ(FrSuiteTranscript(&reopened, BaseRho(), kL), base.b_t)
        << "kill point " << k << ": reopened store diverges";
  }
}

INSTANTIATE_TEST_SUITE_P(Indexes, TransientSweepTest,
                         ::testing::Values(IndexKind::kTprTree,
                                           IndexKind::kBxTree),
                         [](const auto& info) {
                           return info.param == IndexKind::kTprTree ? "Tpr"
                                                                    : "Bx";
                         });

TEST(MonitorDurabilityTest, CheckpointHookDrivesCadence) {
  const Dataset ds = MakeWorkload();
  TempDir dir;
  FrEngine fr(Opts(IndexKind::kTprTree, dir.path(), nullptr));
  PdrMonitor monitor(&fr, {.rho = BaseRho(), .l = kL, .lookahead = 2});
  monitor.SetCheckpointHook([&fr] { fr.Checkpoint(); }, /*every_ticks=*/4);

  for (Tick now = 0; now <= ds.duration(); ++now) {
    fr.AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) fr.Apply(e);
    monitor.OnTick(now);
  }
  // 13 evaluated ticks at a cadence of 4 -> checkpoints after ticks 3, 7,
  // and 11.
  const DiskPager* disk = fr.index().disk();
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->checkpoint_stats().checkpoints, 3);
  EXPECT_EQ(disk->epoch(), 3u);
}

// An injected crash must leave a post-mortem behind: with the recorder
// enabled, kOnCrash armed, and a dump directory configured, constructing
// the CrashError itself snapshots the rings into a JSONL + Chrome-trace
// pair — before any catch handler unwinds — so the events leading up to
// the fatal write are on disk even though the process (here: the test)
// survives to recover.
TEST(CrashDumpTest, InjectedCrashWritesFlightRecorderDump) {
  if (!PdrObs::CompiledIn()) GTEST_SKIP() << "observability compiled out";
  const Dataset ds = MakeWorkload();
  TempDir store;
  TempDir dumps;

  FlightRecorder& rec = FlightRecorder::Global();
  rec.Reset();
  rec.Configure({.ring_capacity = 1 << 10,
                 .dump_dir = dumps.path(),
                 .triggers = FlightRecorder::kOnCrash,
                 .max_dumps = 2});
  FlightRecorder::SetEnabled(true);

  FaultInjector inject;
  {
    FrEngine fr(Opts(IndexKind::kTprTree, store.path(), &inject));
    Replay(ds, 0, kPhaseSplit, &fr);
    inject.Arm(inject.ops_seen() + 1, CrashMode::kClean);
    EXPECT_THROW(fr.Checkpoint(), CrashError);
  }
  EXPECT_EQ(rec.dumps_written(), 1);

  // Both halves of the dump pair exist, are named for the crash reason,
  // and the JSONL half recorded WAL traffic from the doomed run.
  const std::string base = dumps.path() + "/fr_000_crash";
  std::FILE* jsonl = std::fopen((base + ".jsonl").c_str(), "rb");
  ASSERT_NE(jsonl, nullptr) << base + ".jsonl";
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), jsonl)) > 0) text.append(buf, n);
  std::fclose(jsonl);
  EXPECT_NE(text.find("wal_append"), std::string::npos);
  std::FILE* trace = std::fopen((base + ".trace.json").c_str(), "rb");
  ASSERT_NE(trace, nullptr) << base + ".trace.json";
  std::fclose(trace);

  // Recovery still works after the dump: the reopened store answers.
  FrEngine recovered(Opts(IndexKind::kTprTree, store.path(), nullptr));
  EXPECT_GE(recovered.Query(kPhaseSplit, BaseRho(), kL).region.size(), 0u);

  FlightRecorder::SetEnabled(false);
  rec.Reset();
  rec.Configure({});
}

// The incident-repro contract end to end: a monitored durable run with
// the workload recorder armed crashes mid-checkpoint; the kOnCrash dump
// hook writes a self-contained bundle; replaying *nothing but that
// bundle* — against freshly built in-memory engines — re-derives every
// recorded tick digest and EXPLAIN signature bit-identically. The digests
// exclude I/O counts precisely so a capture taken against the DiskPager
// store verifies against the in-memory replay.
TEST(CrashDumpTest, CrashBundleReplaysToSameSignatures) {
  if (!PdrObs::CompiledIn()) GTEST_SKIP() << "observability compiled out";
  const Dataset ds = MakeWorkload();
  TempDir store;
  TempDir dumps;
  TempDir bundles;

  FlightRecorder& rec = FlightRecorder::Global();
  rec.Reset();
  rec.Configure({.ring_capacity = 1 << 10,
                 .dump_dir = dumps.path(),
                 .triggers = FlightRecorder::kOnCrash,
                 .max_dumps = 2});
  FlightRecorder::SetEnabled(true);

  // The header must describe the serving config faithfully: the replayer
  // rebuilds its engines from these fields alone.
  WorkloadLogHeader header;
  header.extent = kExtent;
  header.num_objects = kObjects;
  header.max_update_interval = kU;
  header.seed = ds.config.seed;
  header.duration = kDuration;
  header.rho = BaseRho();
  header.l = kL;
  header.lookahead = 2;
  header.every = 2;
  header.histogram_side = 20;
  header.horizon = 2 * kU;
  header.buffer_pages = 32;
  header.io_ms = 10.0;

  FaultInjector inject;
  {
    FrEngine fr(Opts(IndexKind::kTprTree, store.path(), &inject));
    PdrMonitor monitor(&fr, {.rho = BaseRho(), .l = kL, .lookahead = 2});
    WorkloadRecorder recorder(store.path() + "/run.wlog", header);
    monitor.SetRecorder(&recorder);
    recorder.ArmBundles(bundles.path() + "/bundles");

    for (Tick now = 0; now <= kPhaseSplit; ++now) {
      fr.AdvanceTo(now);
      for (const UpdateEvent& e : ds.ticks[now]) fr.Apply(e);
      recorder.OnUpdates(now, ds.ticks[now]);
      if (now % 2 == 0) monitor.OnTick(now);
    }
    inject.Arm(inject.ops_seen() + 1, CrashMode::kClean);
    EXPECT_THROW(fr.Checkpoint(), CrashError);
    // The crash dump fired the hook: one bundle on disk before any catch
    // handler ran.
    EXPECT_EQ(recorder.stats().bundles, 1);
  }

  const std::string bundle = bundles.path() + "/bundles/bundle_000_crash";
  const Replayer replayer = Replayer::FromBundle(bundle);
  const ReplayResult result = replayer.Run({});
  EXPECT_TRUE(result.ok()) << result.mismatch_count << " of " << result.ticks
                           << " ticks diverged";
  EXPECT_EQ(result.ticks, 4);  // OnTick at 0, 2, 4, 6
  size_t i = 0;
  for (const WorkloadLogRecord& r : replayer.log().records) {
    if (r.kind != WorkloadLogRecord::Kind::kTick) continue;
    ASSERT_LT(i, result.replayed.size());
    EXPECT_EQ(result.replayed[i].sig_hash, r.query.sig_hash)
        << "tick " << r.tick;
    ++i;
  }

  FlightRecorder::SetEnabled(false);
  rec.Reset();
  rec.Configure({});
}

}  // namespace
}  // namespace pdr
