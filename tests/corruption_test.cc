// Silent-corruption defense battery (DESIGN.md §16).
//
// The invariant under test: a single damaged copy of any page — a flipped
// bit in the in-memory mirror (RAM rot), in the on-disk slot (media rot),
// or injected into a write in flight (firmware bug) — is DETECTED on the
// next verified read, HEALED from the surviving redundant copy, and the
// healed store answers the seeded FR query suite bit-identically
// (hexfloat transcripts) to an undamaged run. Damage past all redundancy
// is never served: the page is quarantined and reads throw a typed
// CorruptionError, which the resilience ladder converts into a tier
// downgrade (DowngradeReason::kCorruption) instead of a wrong answer.
//
// The sweep test at the bottom walks every live page of a real engine
// store across flip-position classes, hot (mirror) and cold (slot). By
// default each page gets one hot and one cold flip; PDR_CORRUPT_SWEEP=full
// — the CI corruption lane — runs the full position matrix.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "pdr/core/fr_engine.h"
#include "pdr/core/monitor.h"
#include "pdr/core/pa_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/versioned_pager.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/resilience/deadline.h"
#include "pdr/resilience/executor.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/fsck.h"
#include "pdr/storage/page_format.h"
#include "pdr/storage/storage_file.h"
#include "transcript_util.h"

namespace pdr {
namespace {

using test_util::FrSuiteTranscript;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pdr_corruption_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

Page PatternPage(uint64_t seed) {
  Page p;
  for (size_t i = 0; i < kPageSize; ++i) {
    p.bytes[i] = static_cast<std::byte>((seed * 2654435761u + i * 97u) & 0xFF);
  }
  return p;
}

// A small durable store: `n` pages with deterministic content, converged
// by one checkpoint so every slot is stamped and every page is clean.
std::vector<PageId> BuildStore(DiskPager* pager, int n, uint64_t seed = 1) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    const PageId id = pager->Allocate();
    pager->WritePage(id, PatternPage(seed + i));
    ids.push_back(id);
  }
  pager->Checkpoint("meta");
  return ids;
}

std::string DataPath(const std::string& dir) { return dir + "/data.pdr"; }

// ---------------------------------------------------------------------------
// Detection + self-healing at the pager level
// ---------------------------------------------------------------------------

TEST(CorruptionTest, MirrorBitFlipHealsFromSlot) {
  TempDir dir;
  DiskPager pager(dir.path());
  const auto ids = BuildStore(&pager, 3);

  Page want;
  pager.ReadPage(ids[1], &want);
  EXPECT_EQ(pager.repair_stats().mirror_repairs, 0);

  pager.CorruptMirrorPageForTest(ids[1], /*bit_index=*/777);
  Page got;
  pager.ReadPage(ids[1], &got);  // verified read heals from the slot
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(pager.repair_stats().mirror_repairs, 1);
  EXPECT_TRUE(pager.quarantined().empty());

  // Healed for good: the next read verifies without another repair.
  pager.ReadPage(ids[1], &got);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(pager.repair_stats().mirror_repairs, 1);
}

TEST(CorruptionTest, ColdSlotRotHealedByScrubBeforeAnyReadTripsOnIt) {
  TempDir dir;
  Page want;
  {
    DiskPager pager(dir.path());
    const auto ids = BuildStore(&pager, 4);
    pager.ReadPage(ids[2], &want);

    // At-rest damage in the slot's page bytes. The mirror still verifies,
    // so reads stay fine — only the scrubber (or a crash-restart) would
    // ever touch the rotten slot.
    ASSERT_TRUE(
        FlipBitInFile(DataPath(dir.path()), SlotOffset(ids[2]) + 100, 2));
    Page got;
    pager.ReadPage(ids[2], &got);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(pager.repair_stats().slot_repairs, 0);

    const ScrubStats round = pager.Scrub(/*budget_pages=*/16);
    EXPECT_EQ(round.pages_repaired, 1);
    EXPECT_EQ(round.pages_unrepairable, 0);
    EXPECT_EQ(pager.repair_stats().slot_repairs, 1);
  }
  // The repair reached the disk: a fresh process opens the store (a store
  // with an invalid slot and no WAL coverage would refuse) and serves the
  // original bytes.
  DiskPager reopened(dir.path());
  EXPECT_TRUE(reopened.recovered());
  Page got;
  reopened.ReadPage(2, &got);
  EXPECT_EQ(got.bytes, want.bytes);
}

TEST(CorruptionTest, TrailerDamageIsDetectedSameAsPayloadDamage) {
  TempDir dir;
  DiskPager pager(dir.path());
  const auto ids = BuildStore(&pager, 3);

  // Flip a bit inside the stored checksum itself — the slot is damaged
  // even though the page bytes are pristine.
  ASSERT_TRUE(FlipBitInFile(DataPath(dir.path()),
                            SlotOffset(ids[0]) + kPageSize + 16, 0));
  const ScrubStats round = pager.Scrub(16);
  EXPECT_EQ(round.pages_repaired, 1);
  EXPECT_EQ(pager.repair_stats().slot_repairs, 1);
  EXPECT_EQ(pager.RepairPage(ids[0]), PageHealth::kHealthy);
}

TEST(CorruptionTest, BothCopiesDamagedQuarantinesUntilRewritten) {
  TempDir dir;
  DiskPager pager(dir.path());
  const auto ids = BuildStore(&pager, 3);
  const PageId victim = ids[1];

  pager.CorruptMirrorPageForTest(victim, 123);
  ASSERT_TRUE(FlipBitInFile(DataPath(dir.path()), SlotOffset(victim) + 50, 4));

  Page out;
  try {
    pager.ReadPage(victim, &out);
    FAIL() << "read of a doubly-damaged page must throw";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.page_id(), victim);
    EXPECT_NE(std::string(e.what()).find(dir.path()), std::string::npos);
    EXPECT_NE(e.expected(), e.actual());
  }
  EXPECT_EQ(pager.repair_stats().unrepairable, 1);
  EXPECT_EQ(pager.quarantined().count(victim), 1u);

  // Quarantine is sticky: every further read throws, no wrong answer is
  // ever served.
  EXPECT_THROW(pager.ReadPage(victim, &out), CorruptionError);

  // New content supersedes the lost version and lifts the quarantine.
  const Page fresh = PatternPage(99);
  pager.WritePage(victim, fresh);
  EXPECT_TRUE(pager.quarantined().empty());
  pager.ReadPage(victim, &out);
  EXPECT_EQ(out.bytes, fresh.bytes);

  // The checkpoint restamps the rewritten slot; a fresh process agrees.
  pager.Checkpoint("meta2");
  DiskPager reopened(dir.path());
  reopened.ReadPage(victim, &out);
  EXPECT_EQ(out.bytes, fresh.bytes);
}

TEST(CorruptionTest, AtRestDamageWithNoRedundancyRefusesToOpen) {
  TempDir dir;
  {
    DiskPager pager(dir.path());
    BuildStore(&pager, 3);
  }  // clean shutdown: WAL reset, the slots are the only copy
  ASSERT_TRUE(FlipBitInFile(DataPath(dir.path()), SlotOffset(1) + 10, 1));
  try {
    DiskPager pager(dir.path());
    FAIL() << "recovery over an unrepairable slot must refuse to open";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.page_id(), 1u);
  }
  // fsck agrees — and reports rather than throws.
  const FsckReport report = RunFsck(dir.path());
  EXPECT_EQ(report.exit_code(), 3);
  EXPECT_EQ(report.pages_unrepairable, 1);
  ASSERT_EQ(report.damaged.size(), 1u);
  EXPECT_EQ(report.damaged[0].id, 1u);
  EXPECT_FALSE(report.damaged[0].redo_covered);
}

TEST(CorruptionTest, CrashTornSlotPlusColdRotHealedByWalRedo) {
  // A crash mid-converge leaves torn slots whose after-images are durable
  // in the WAL; extra at-rest damage on another committed slot is healed
  // by the same redo. recovery_stats().pages_repaired counts both.
  TempDir rehearsal_dir;
  FaultInjector counter;
  int64_t first_data_write = -1;
  {
    DiskPager pager(rehearsal_dir.path(), &counter);
    BuildStore(&pager, 4);
    const size_t ops_before = counter.op_log().size();
    for (int i = 0; i < 4; ++i) pager.WritePage(i, PatternPage(50 + i));
    pager.Checkpoint("v2");
    for (size_t i = ops_before; i < counter.op_log().size(); ++i) {
      if (counter.op_log()[i] == "data.write") {
        first_data_write = static_cast<int64_t>(i);
        break;
      }
    }
  }
  ASSERT_GE(first_data_write, 0);

  TempDir dir;
  FaultInjector injector(/*seed=*/7);
  injector.Arm(first_data_write, CrashMode::kTornWrite);
  {
    DiskPager pager(dir.path(), &injector);
    BuildStore(&pager, 4);
    for (int i = 0; i < 4; ++i) pager.WritePage(i, PatternPage(50 + i));
    EXPECT_THROW(pager.Checkpoint("v2"), CrashError);
    EXPECT_TRUE(pager.poisoned());
  }
  // Cold rot on a *different* slot than the torn one (page 3's write never
  // happened — ops are ordered — so damage page 3's old slot too).
  ASSERT_TRUE(FlipBitInFile(DataPath(dir.path()), SlotOffset(3) + 20, 6));

  DiskPager recovered(dir.path());
  EXPECT_TRUE(recovered.recovered());
  EXPECT_GE(recovered.recovery_stats().pages_repaired, 2);
  EXPECT_EQ(recovered.recovered_meta(), "v2");
  for (int i = 0; i < 4; ++i) {
    Page got;
    recovered.ReadPage(i, &got);
    EXPECT_EQ(got.bytes, PatternPage(50 + i).bytes) << "page " << i;
  }
}

TEST(CorruptionTest, ScrubBudgetWrapsCursorAndHonorsCancel) {
  TempDir dir;
  DiskPager pager(dir.path());
  BuildStore(&pager, 6);

  ScrubStats round = pager.Scrub(4);
  EXPECT_EQ(round.pages_scanned, 4);
  round = pager.Scrub(4);  // wraps past page 5 back to 0–1
  EXPECT_EQ(round.pages_scanned, 4);
  EXPECT_EQ(pager.scrub_stats().pages_scanned, 8);
  EXPECT_EQ(pager.scrub_stats().pages_repaired, 0);

  CancelToken token;
  token.Cancel();
  round = pager.Scrub(100, &token);
  EXPECT_EQ(round.pages_scanned, 0);
  EXPECT_EQ(pager.scrub_stats().pages_scanned, 8);
}

TEST(CorruptionTest, QuarantineFiresFlightRecorderDump) {
  TempDir store_dir;
  TempDir dump_dir;
  FlightRecorder::Options options;
  options.dump_dir = dump_dir.path();
  options.triggers = FlightRecorder::kOnCorruption;
  FlightRecorder::SetEnabled(true);
  FlightRecorder::Global().Reset();
  FlightRecorder::Global().Configure(options);

  DiskPager pager(store_dir.path());
  const auto ids = BuildStore(&pager, 2);
  pager.CorruptMirrorPageForTest(ids[0], 9);
  ASSERT_TRUE(
      FlipBitInFile(DataPath(store_dir.path()), SlotOffset(ids[0]) + 30, 2));
  Page out;
  EXPECT_THROW(pager.ReadPage(ids[0], &out), CorruptionError);

  if (PdrObs::CompiledIn()) {
    const std::string dump = dump_dir.path() + "/fr_000_corruption.jsonl";
    EXPECT_EQ(::access(dump.c_str(), F_OK), 0) << dump;
  }
  FlightRecorder::Global().Reset();
  FlightRecorder::Global().Configure(FlightRecorder::Options{});
  FlightRecorder::SetEnabled(false);
}

// ---------------------------------------------------------------------------
// Injected in-flight corruption (FaultInjector)
// ---------------------------------------------------------------------------

// Runs a fixed store build with silent corruption armed at `point`;
// returns the injector for post-mortem checks.
FaultInjector RunCorruptBuild(const std::string& dir, int64_t point,
                              CorruptMode mode, uint64_t seed,
                              bool scrub_after) {
  FaultInjector injector(seed);
  injector.ArmCorrupt(point, mode);
  DiskPager pager(dir, &injector);
  BuildStore(&pager, 4);
  if (scrub_after) {
    const ScrubStats round = pager.Scrub(16);
    EXPECT_EQ(round.pages_repaired, 1);
    EXPECT_EQ(round.pages_unrepairable, 0);
  }
  return injector;
}

// The first slot write of the checkpoint's converge — i.e. the first
// "data.write" after the commit batch's "wal.sync". (The very first
// data.write of a run is the store-creation header write, which the
// trailer machinery deliberately does not cover; fsck checks it instead.)
int64_t FirstSlotWritePoint() {
  TempDir dir;
  FaultInjector counter;
  DiskPager pager(dir.path(), &counter);
  BuildStore(&pager, 4);
  bool synced = false;
  for (size_t i = 0; i < counter.op_log().size(); ++i) {
    if (counter.op_log()[i] == "wal.sync") synced = true;
    if (synced && counter.op_log()[i] == "data.write") {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

TEST(CorruptionTest, CorruptWriteIsSilentDeterministicAndCaughtOnReopen) {
  const int64_t point = FirstSlotWritePoint();
  ASSERT_GE(point, 0);

  // Two identical runs, same seed and armed point: the damage placement
  // must reproduce bit-for-bit (a sweep's failures are replayable).
  TempDir a;
  TempDir b;
  const FaultInjector ia =
      RunCorruptBuild(a.path(), point, CorruptMode::kBitFlip, 11, false);
  const FaultInjector ib =
      RunCorruptBuild(b.path(), point, CorruptMode::kBitFlip, 11, false);
  EXPECT_TRUE(ia.corrupt_fired());
  EXPECT_TRUE(ib.corrupt_fired());
  std::string bytes_a;
  std::string bytes_b;
  ASSERT_TRUE(ReadFileIfExists(DataPath(a.path()), &bytes_a));
  ASSERT_TRUE(ReadFileIfExists(DataPath(b.path()), &bytes_b));
  EXPECT_EQ(bytes_a, bytes_b);

  // The write reported success — but the checkpoint completed and reset
  // the WAL, so the damaged slot has no redo coverage left. The next
  // process refuses to serve from it.
  EXPECT_THROW(DiskPager reopened(a.path()), CorruptionError);
}

TEST(CorruptionTest, ScrubHealsCorruptWriteBeforeItBecomesUnrepairable) {
  const int64_t point = FirstSlotWritePoint();
  ASSERT_GE(point, 0);
  TempDir dir;
  const FaultInjector injector =
      RunCorruptBuild(dir.path(), point, CorruptMode::kBitFlip, 11, true);
  EXPECT_TRUE(injector.corrupt_fired());
  // Scrubbed while the mirror still held the good copy: clean reopen.
  DiskPager reopened(dir.path());
  EXPECT_TRUE(reopened.recovered());
}

TEST(CorruptionTest, SilentCorruptionRunModeIsCaughtToo) {
  const int64_t point = FirstSlotWritePoint();
  ASSERT_GE(point, 0);
  TempDir dir;
  const FaultInjector injector = RunCorruptBuild(
      dir.path(), point, CorruptMode::kSilentCorruption, 23, true);
  EXPECT_TRUE(injector.corrupt_fired());
  DiskPager reopened(dir.path());
  EXPECT_TRUE(reopened.recovered());
}

// ---------------------------------------------------------------------------
// Store metadata: one decoder for the pager and fsck
// ---------------------------------------------------------------------------

// One class of checkpoint.pdr damage, applied to the descriptor's bytes.
// "Resealed" classes recompute the FNV trailer, so the damage is only
// visible to the decoder's structural checks.
struct CheckpointDamage {
  const char* name;
  void (*apply)(std::string* raw);
};

void Reseal(std::string* raw) {
  raw->resize(raw->size() - sizeof(uint64_t));
  PutPod(raw, Fnv1a64(raw->data(), raw->size()));
}

// Descriptor layout: magic, version, epoch, next LSN (24 bytes), then the
// store state: page count at 24, free count at 32.
const CheckpointDamage kCheckpointDamage[] = {
    {"ShortFile", [](std::string* raw) { raw->resize(5); }},
    {"BadChecksum", [](std::string* raw) { (*raw)[12] ^= 0x10; }},
    {"WrongMagic",
     [](std::string* raw) {
       (*raw)[0] ^= 0x01;
       Reseal(raw);
     }},
    {"TruncatedBody",
     [](std::string* raw) {
       raw->resize(24 + sizeof(uint64_t) + sizeof(uint64_t));
       Reseal(raw);
     }},
    {"HugeFreeCount",
     [](std::string* raw) {
       const uint64_t frees = uint64_t{1} << 60;
       std::memcpy(raw->data() + 32, &frees, sizeof(frees));
       Reseal(raw);
     }},
};

// Names the class in test ids (instead of gtest's byte dump).
void PrintTo(const CheckpointDamage& damage, std::ostream* os) {
  *os << damage.name;
}

class CheckpointDamageTest
    : public ::testing::TestWithParam<CheckpointDamage> {};

// Whatever the damage, recovery refuses with a CorruptionError naming
// checkpoint.pdr, and fsck — with no committed WAL batch to supersede the
// descriptor — reports it untrusted and exits 3.
TEST_P(CheckpointDamageTest, PagerAndFsckAgree) {
  TempDir dir;
  {
    DiskPager pager(dir.path());
    BuildStore(&pager, 3);  // the checkpoint resets the WAL
  }
  const std::string ckpt = dir.path() + "/checkpoint.pdr";
  std::string raw;
  ASSERT_TRUE(ReadFileIfExists(ckpt, &raw));
  GetParam().apply(&raw);
  AtomicWriteFile(ckpt, raw, "test", nullptr);

  try {
    DiskPager reopened(dir.path());
    ADD_FAILURE() << "damaged descriptor was accepted";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.file(), ckpt);
  }

  const FsckReport report = RunFsck(dir.path());
  EXPECT_FALSE(report.checkpoint_ok);
  EXPECT_EQ(report.wal_batches, 0);
  EXPECT_NE(report.error.find("metadata untrusted"), std::string::npos)
      << report.error;
  EXPECT_EQ(report.exit_code(), 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, CheckpointDamageTest, ::testing::ValuesIn(kCheckpointDamage),
    [](const ::testing::TestParamInfo<CheckpointDamage>& info) {
      return std::string(info.param.name);
    });

TEST(CorruptionTest, FlipBitInFileReportsUnusableTargets) {
  EXPECT_FALSE(FlipBitInFile("/tmp/pdr_no_such_file_xyz", 0, 0));
  TempDir dir;
  {
    DiskPager pager(dir.path());
    BuildStore(&pager, 1);
  }
  EXPECT_FALSE(FlipBitInFile(DataPath(dir.path()), 1u << 30, 0));
}

// ---------------------------------------------------------------------------
// Graceful degradation: the ladder, the monitor, and snapshot reads
// ---------------------------------------------------------------------------

constexpr double kLadderExtent = 200.0;
constexpr double kLadderL = 25.0;

TEST(CorruptionTest, ExecutorDowngradesInsteadOfServingCorruptPages) {
  TempDir dir;
  FrEngine fr({.extent = kLadderExtent,
               .histogram_side = 16,
               .horizon = 20,
               .buffer_pages = 64,
               .io_ms = 10.0,
               .storage_dir = dir.path()});
  PaEngine pa({.extent = kLadderExtent,
               .poly_side = 4,
               .degree = 5,
               .horizon = 20,
               .l = kLadderL,
               .eval_grid = 64});
  const auto events = MakeClusteredInserts(200, 2, kLadderExtent, 10.0, 0.2, 7);
  for (const UpdateEvent& e : events) {
    fr.Apply(e);
    pa.Apply(e);
  }
  fr.Checkpoint();  // every page clean + stamped

  // Destroy both copies of every stamped page, then quarantine them all.
  DiskPager* disk = fr.index().disk();
  ASSERT_NE(disk, nullptr);
  int quarantined = 0;
  for (PageId id = 0; id < disk->allocated_pages(); ++id) {
    Page probe;
    try {
      disk->ReadPage(id, &probe);
    } catch (const std::invalid_argument&) {
      continue;  // free page
    }
    disk->CorruptMirrorPageForTest(id, 5);
    ASSERT_TRUE(FlipBitInFile(DataPath(dir.path()), SlotOffset(id) + 40, 3));
    if (disk->RepairPage(id) == PageHealth::kUnrepairable) ++quarantined;
  }
  ASSERT_GT(quarantined, 0);
  // The index's buffer pool may still hold clean frames; drop them so the
  // exact rung actually touches the pager.
  fr.index().DropCaches();

  const double rho = 1.5 * 200 / (kLadderExtent * kLadderExtent);

  ResilientExecutor strict(&fr, &pa, {.degrade = false});
  EXPECT_THROW(strict.Query(fr.now(), rho, kLadderL), CorruptionError);

  ResilientExecutor ladder(&fr, &pa, {.degrade = true});
  const TieredResult result = ladder.Query(fr.now(), rho, kLadderL);
  EXPECT_EQ(result.tier, AnswerTier::kApprox);
  EXPECT_EQ(result.downgrade_reason, DowngradeReason::kCorruption);
  bool exact_incomplete = false;
  for (const ExplainStage& stage : result.explain.stages) {
    if (stage.name == "exact" && !stage.completed) exact_incomplete = true;
  }
  EXPECT_TRUE(exact_incomplete);
}

TEST(CorruptionTest, MonitorScrubHookVerifiesTheStoreWhileServing) {
  TempDir dir;
  FrEngine fr({.extent = kLadderExtent,
               .histogram_side = 16,
               .horizon = 20,
               .buffer_pages = 64,
               .io_ms = 10.0,
               .storage_dir = dir.path()});
  for (const UpdateEvent& e :
       MakeClusteredInserts(150, 2, kLadderExtent, 10.0, 0.2, 7)) {
    fr.Apply(e);
  }
  DiskPager* disk = fr.index().disk();
  ASSERT_NE(disk, nullptr);

  PdrMonitor monitor(&fr, {.rho = 1.0 * 150 / (kLadderExtent * kLadderExtent),
                           .l = kLadderL});
  int scrub_calls = 0;
  monitor.SetCheckpointHook([&fr] { fr.Checkpoint(); }, /*every_ticks=*/1);
  monitor.SetScrubHook([&] {
    ++scrub_calls;
    disk->Scrub(/*budget_pages=*/8);
  });
  for (Tick now = 1; now <= 5; ++now) (void)monitor.OnTick(now);
  EXPECT_EQ(scrub_calls, 5);
  EXPECT_GT(disk->scrub_stats().pages_scanned, 0);
  EXPECT_EQ(disk->scrub_stats().pages_unrepairable, 0);
}

TEST(CorruptionTest, SnapshotReadDetectsDamagedParkedVersion) {
  mvcc::SnapshotManager manager;
  mvcc::VersionedPager pager(&manager);
  const PageId id = pager.Allocate();
  pager.WritePage(id, PatternPage(5));
  pager.PublishDirty();
  manager.Commit({});
  mvcc::Snapshot snap = manager.Pin();

  mvcc::SnapshotPager reader(&pager, snap.epoch());
  Page out;
  reader.ReadPage(id, &out);
  EXPECT_EQ(out.bytes, PatternPage(5).bytes);

  // Rot the parked version in place — long-lived snapshots keep versions
  // in RAM for arbitrarily long.
  auto version = pager.ResolvePage(id, snap.epoch());
  ASSERT_NE(version, nullptr);
  auto* mutable_version = const_cast<mvcc::VersionedPage*>(version.get());
  mutable_version->page.bytes[17] ^= std::byte{0x40};

  try {
    reader.ReadPage(id, &out);
    FAIL() << "damaged version must not be served";
  } catch (const CorruptionError& e) {
    EXPECT_EQ(e.page_id(), id);
    EXPECT_NE(std::string(e.what()).find("mvcc"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The sweep: every live page x flip-position class, hot and cold
// ---------------------------------------------------------------------------

constexpr double kSweepExtent = 400.0;
constexpr int kSweepObjects = 150;
constexpr Tick kSweepU = 8;
constexpr Tick kSweepDuration = 12;
constexpr double kSweepL = 30.0;

double SweepRho() {
  return static_cast<double>(kSweepObjects) / (kSweepExtent * kSweepExtent);
}

class CorruptionSweepTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(CorruptionSweepTest, EveryLivePageEveryFlipClassHealsBitIdentically) {
  const bool full = [] {
    const char* env = std::getenv("PDR_CORRUPT_SWEEP");
    return env != nullptr && std::string(env) == "full";
  }();

  WorkloadConfig config;
  config.WithExtent(kSweepExtent);
  config.num_objects = kSweepObjects;
  config.max_update_interval = kSweepU;
  config.seed = 99;
  const Dataset ds = GenerateDataset(config, kSweepDuration);

  TempDir dir;
  FrEngine fr({.extent = kSweepExtent,
               .histogram_side = 20,
               .horizon = 2 * kSweepU,
               .buffer_pages = 32,
               .io_ms = 10.0,
               .index = GetParam(),
               .max_update_interval = kSweepU,
               .storage_dir = dir.path()});
  for (Tick now = 0; now <= ds.duration(); ++now) {
    fr.AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) fr.Apply(e);
    if (now == kSweepDuration / 2) fr.Checkpoint();
  }
  fr.Checkpoint();

  DiskPager* disk = fr.index().disk();
  ASSERT_NE(disk, nullptr);
  const std::string baseline = FrSuiteTranscript(&fr, SweepRho(), kSweepL);

  // Baseline page images; freed ids drop out here.
  std::map<PageId, Page> pages;
  for (PageId id = 0; id < disk->allocated_pages(); ++id) {
    Page p;
    try {
      disk->ReadPage(id, &p);
    } catch (const std::invalid_argument&) {
      continue;
    }
    pages[id] = p;
  }
  ASSERT_GE(pages.size(), 3u);

  // Hot sweep: mirror rot at several bit positions; a verified read must
  // detect it and heal from the slot, returning the exact prior bytes.
  const std::vector<int> hot_bits =
      full ? std::vector<int>{0, static_cast<int>(kPageSize) * 4,
                              static_cast<int>(kPageSize) * 8 - 1}
           : std::vector<int>{static_cast<int>(kPageSize) * 4};
  int64_t expected_mirror_repairs = disk->repair_stats().mirror_repairs;
  for (const auto& [id, want] : pages) {
    for (const int bit : hot_bits) {
      disk->CorruptMirrorPageForTest(id, bit);
      Page got;
      disk->ReadPage(id, &got);
      ++expected_mirror_repairs;
      ASSERT_EQ(got.bytes, want.bytes) << "page " << id << " bit " << bit;
      ASSERT_EQ(disk->repair_stats().mirror_repairs, expected_mirror_repairs);
    }
  }

  // Cold sweep: slot rot across the payload, the trailer's structural
  // fields, and the stored checksum; RepairPage must rewrite the slot
  // from the (clean) mirror every time.
  const std::vector<uint64_t> cold_offsets =
      full ? std::vector<uint64_t>{0, kPageSize / 2, kPageSize - 1,
                                   kPageSize + 4,  // trailer version field
                                   kSlotSize - 1}  // stored checksum
           : std::vector<uint64_t>{kPageSize / 2};
  int64_t expected_slot_repairs = disk->repair_stats().slot_repairs;
  for (const auto& [id, want] : pages) {
    for (const uint64_t off : cold_offsets) {
      ASSERT_TRUE(
          FlipBitInFile(DataPath(dir.path()), SlotOffset(id) + off, 1));
      ASSERT_EQ(disk->RepairPage(id), PageHealth::kSlotRepaired)
          << "page " << id << " offset " << off;
      ++expected_slot_repairs;
      ASSERT_EQ(disk->repair_stats().slot_repairs, expected_slot_repairs);
    }
  }

  // Nothing was unrepairable, nothing is quarantined, and the engine's
  // answers are bit-identical to the undamaged baseline.
  EXPECT_EQ(disk->repair_stats().unrepairable, 0);
  EXPECT_TRUE(disk->quarantined().empty());
  EXPECT_EQ(FrSuiteTranscript(&fr, SweepRho(), kSweepL), baseline);

  // And so are a fresh process's: every slot repair reached the disk.
  FrEngine reopened({.extent = kSweepExtent,
                     .histogram_side = 20,
                     .horizon = 2 * kSweepU,
                     .buffer_pages = 32,
                     .io_ms = 10.0,
                     .index = GetParam(),
                     .max_update_interval = kSweepU,
                     .storage_dir = dir.path()});
  EXPECT_EQ(FrSuiteTranscript(&reopened, SweepRho(), kSweepL), baseline);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, CorruptionSweepTest,
                         ::testing::Values(IndexKind::kTprTree,
                                           IndexKind::kBxTree),
                         [](const auto& info) {
                           return info.param == IndexKind::kTprTree ? "Tpr"
                                                                    : "Bx";
                         });

}  // namespace
}  // namespace pdr
