// Unit tests for the durability primitives: StorageFile, FaultInjector,
// the physical-page WAL, and the DiskPager checkpoint/recovery protocol.
// The end-to-end crash sweep (every kill point x every crash mode) lives
// in recovery_test.cc; this file pins the layer-by-layer contracts those
// sweeps rest on.

#include "pdr/storage/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "pdr/common/errors.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/storage_file.h"

namespace pdr {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pdr_storage_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  const std::string& path() const { return dir_; }
  std::string File(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

Page MakePage(uint8_t fill) {
  Page p;
  p.bytes.fill(std::byte{fill});
  return p;
}

// ---------------------------------------------------------------- StorageFile

TEST(StorageFileTest, ReadPastEofZeroFills) {
  TempDir dir;
  StorageFile f;
  f.Open(dir.File("f"), "t", nullptr);
  const char data[] = "hello";
  f.WriteAt(0, data, 5);
  char buf[16];
  std::memset(buf, 0x5a, sizeof(buf));
  const size_t from_file = f.ReadAt(0, buf, sizeof(buf));
  EXPECT_EQ(from_file, 5u);
  EXPECT_EQ(std::memcmp(buf, "hello", 5), 0);
  for (size_t i = 5; i < sizeof(buf); ++i) {
    EXPECT_EQ(buf[i], 0) << "byte " << i << " not zero-filled";
  }
}

TEST(StorageFileTest, TornWriteKeepsDeterministicPrefix) {
  TempDir dir;
  FaultInjector inject(/*seed=*/7);
  std::string persisted[2];
  for (int run = 0; run < 2; ++run) {
    const std::string path = dir.File("torn" + std::to_string(run));
    FaultInjector run_inject(/*seed=*/7);
    run_inject.Arm(0, CrashMode::kTornWrite);
    StorageFile f;
    f.Open(path, "t", &run_inject);
    std::string data(1000, 'x');
    EXPECT_THROW(f.WriteAt(0, data.data(), data.size()), CrashError);
    EXPECT_TRUE(f.poisoned());
    // Poisoned: later writes are silent no-ops (the process is "dead").
    f.WriteAt(0, data.data(), data.size());
    std::ifstream in(path, std::ios::binary);
    std::string got((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_LT(got.size(), data.size());
    persisted[run] = got;
  }
  EXPECT_EQ(persisted[0], persisted[1]) << "torn prefix not deterministic";
}

TEST(StorageFileTest, AtomicWriteSurvivesOrDisappearsWhole) {
  TempDir dir;
  const std::string path = dir.File("atomic");
  AtomicWriteFile(path, "first version", "a", nullptr);
  std::string got;
  ASSERT_TRUE(ReadFileIfExists(path, &got));
  EXPECT_EQ(got, "first version");

  // Crash at every fault point of the second publication: afterwards the
  // file holds either the old or the complete new contents, never a mix.
  for (int64_t k = 0;; ++k) {
    FaultInjector inject;
    inject.Arm(k, CrashMode::kTornWrite);
    bool crashed = false;
    try {
      AtomicWriteFile(path, "second version", "a", &inject);
    } catch (const CrashError&) {
      crashed = true;
    }
    ASSERT_TRUE(ReadFileIfExists(path, &got));
    EXPECT_TRUE(got == "first version" || got == "second version")
        << "fault point " << k << " left: " << got;
    if (!crashed) break;  // ran past the last fault point: publication done
    // Re-publish the base version for the next iteration if needed.
    AtomicWriteFile(path, "first version", "a", nullptr);
  }
}

TEST(StorageFileTest, AtomicWriteEndsWithDirectoryFsync) {
  // The rename only becomes durable once the containing directory is
  // fsynced; pin that the publication protocol ends with that point.
  TempDir dir;
  FaultInjector counter;
  AtomicWriteFile(dir.File("pub"), "v", "a", &counter);
  ASSERT_FALSE(counter.op_log().empty());
  EXPECT_EQ(counter.op_log().back(), "a.dirsync");
  std::string got;
  ASSERT_TRUE(ReadFileIfExists(dir.File("pub"), &got));
  EXPECT_EQ(got, "v");
}

// -------------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, CountsOpsIdenticallyArmedOrNot) {
  TempDir dir;
  auto run = [&](FaultInjector* inject, const std::string& name) {
    StorageFile f;
    f.Open(dir.File(name), "t", inject);
    const char data[] = "abc";
    f.WriteAt(0, data, 3);
    f.Sync();
    f.WriteAt(3, data, 3);
    f.Sync();
  };
  FaultInjector rehearsal;
  run(&rehearsal, "a");
  EXPECT_EQ(rehearsal.ops_seen(), 4);
  EXPECT_EQ(rehearsal.op_log().size(), 4u);
  EXPECT_EQ(rehearsal.op_log()[0], "t.write");
  EXPECT_EQ(rehearsal.op_log()[1], "t.sync");

  FaultInjector armed;
  armed.Arm(99, CrashMode::kClean);  // never fires
  run(&armed, "b");
  EXPECT_EQ(armed.ops_seen(), rehearsal.ops_seen());
  EXPECT_FALSE(armed.fired());
}

TEST(FaultInjectorTest, FiresExactlyOnce) {
  FaultInjector inject;
  inject.Arm(1, CrashMode::kClean);
  EXPECT_EQ(inject.OnOp("x"), FaultInjector::Action::kProceed);
  EXPECT_EQ(inject.OnOp("x"), FaultInjector::Action::kCrash);
  EXPECT_TRUE(inject.fired());
  // Same index never fires again (ops_seen keeps advancing).
  EXPECT_EQ(inject.OnOp("x"), FaultInjector::Action::kProceed);
  EXPECT_EQ(inject.ops_seen(), 3);
}

// ------------------------------------------------------------------------ Wal

TEST(WalTest, AppendScanRoundTrip) {
  TempDir dir;
  Wal wal(dir.File("wal.log"), nullptr);
  const Page a = MakePage(0xaa);
  const Page b = MakePage(0xbb);
  wal.AppendPage(3, a);
  wal.AppendPage(7, b);
  wal.AppendCommit("meta-blob-1");
  wal.AppendPage(3, b);
  wal.AppendCommit("meta-blob-2");
  wal.Sync();

  const Wal::ScanResult scan = wal.Scan();
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records_discarded, 0);
  ASSERT_EQ(scan.batches.size(), 2u);
  ASSERT_EQ(scan.batches[0].pages.size(), 2u);
  EXPECT_EQ(scan.batches[0].pages[0].id, 3u);
  EXPECT_EQ(scan.batches[0].pages[0].lsn, 0u);
  EXPECT_EQ(scan.batches[0].pages[0].image.bytes, a.bytes);
  EXPECT_EQ(scan.batches[0].pages[1].id, 7u);
  EXPECT_EQ(scan.batches[0].pages[1].lsn, 1u);
  EXPECT_EQ(scan.batches[0].commit_payload, "meta-blob-1");
  ASSERT_EQ(scan.batches[1].pages.size(), 1u);
  EXPECT_EQ(scan.batches[1].pages[0].image.bytes, b.bytes);
  EXPECT_EQ(scan.batches[1].commit_payload, "meta-blob-2");
  EXPECT_EQ(scan.next_lsn, 5u);
}

TEST(WalTest, UncommittedTailIsDiscarded) {
  TempDir dir;
  Wal wal(dir.File("wal.log"), nullptr);
  wal.AppendPage(0, MakePage(1));
  wal.AppendCommit("committed");
  wal.AppendPage(1, MakePage(2));  // no commit follows
  wal.Sync();

  const Wal::ScanResult scan = wal.Scan();
  ASSERT_EQ(scan.batches.size(), 1u);
  EXPECT_EQ(scan.batches[0].commit_payload, "committed");
  EXPECT_EQ(scan.records_discarded, 1);
  EXPECT_FALSE(scan.torn_tail);  // valid records, just uncommitted
}

TEST(WalTest, TruncatedTailStopsScanCleanly) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  uint64_t full_size = 0;
  {
    Wal wal(path, nullptr);
    wal.AppendPage(0, MakePage(1));
    wal.AppendCommit("one");
    wal.AppendPage(1, MakePage(2));
    wal.AppendCommit("two");
    wal.Sync();
    full_size = wal.file_bytes();
  }
  // Chop the file mid-record (inside the second batch) and rescan.
  {
    StorageFile f;
    f.Open(path, "t", nullptr);
    f.Truncate(full_size - kPageSize / 2);
  }
  Wal wal(path, nullptr);
  const Wal::ScanResult scan = wal.Scan();
  ASSERT_EQ(scan.batches.size(), 1u);
  EXPECT_EQ(scan.batches[0].commit_payload, "one");
  // Truncation leaves no valid record past the damage: a crash artifact,
  // not device damage.
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_FALSE(scan.interior_corruption);
}

TEST(WalTest, CorruptChecksumStopsScan) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  {
    Wal wal(path, nullptr);
    wal.AppendPage(0, MakePage(1));
    wal.AppendCommit("one");
    wal.AppendPage(1, MakePage(2));
    wal.AppendCommit("two");
    wal.Sync();
  }
  // Flip one payload byte inside the second batch's page record. The
  // commit record for "two" sits intact *beyond* the damage, which no
  // torn write can produce (appends damage only the tail): the scan
  // still stops there, but classifies the log as interior-corrupt
  // rather than torn.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<uint64_t>(f.tellg());
    f.seekp(static_cast<std::streamoff>(size - kPageSize / 2));
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  Wal wal(path, nullptr);
  const Wal::ScanResult scan = wal.Scan();
  ASSERT_EQ(scan.batches.size(), 1u);
  EXPECT_EQ(scan.batches[0].commit_payload, "one");
  EXPECT_TRUE(scan.interior_corruption);
  EXPECT_FALSE(scan.torn_tail);
}

TEST(WalTest, DamagedFinalRecordIsTornNotInterior) {
  // Damage whose only casualty is the *last* record is indistinguishable
  // from a torn append — there is no valid record beyond it — so it must
  // classify as torn_tail, keeping the crash sweeps quiet.
  TempDir dir;
  const std::string path = dir.File("wal.log");
  {
    Wal wal(path, nullptr);
    wal.AppendPage(0, MakePage(1));
    wal.AppendCommit("one");
    wal.AppendPage(1, MakePage(2));
    wal.AppendCommit("two");
    wal.Sync();
  }
  // Flip a byte inside the final (commit) record's checksum region: the
  // last few bytes of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<uint64_t>(f.tellg());
    f.seekp(static_cast<std::streamoff>(size - 1));
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  Wal wal(path, nullptr);
  const Wal::ScanResult scan = wal.Scan();
  ASSERT_EQ(scan.batches.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_FALSE(scan.interior_corruption);
}

TEST(WalTest, ResetEmptiesLogAndKeepsLsnMonotone) {
  TempDir dir;
  Wal wal(dir.File("wal.log"), nullptr);
  wal.AppendPage(0, MakePage(1));
  wal.AppendCommit("one");
  wal.Sync();
  const Lsn before = wal.next_lsn();
  wal.Reset();
  EXPECT_EQ(wal.next_lsn(), before);
  const Wal::ScanResult scan = wal.Scan();
  EXPECT_TRUE(scan.batches.empty());
  EXPECT_EQ(scan.next_lsn, before);
  // New records continue the LSN sequence.
  wal.AppendCommit("two");
  wal.Sync();
  const Wal::ScanResult rescan = wal.Scan();
  ASSERT_EQ(rescan.batches.size(), 1u);
  EXPECT_EQ(rescan.batches[0].commit_lsn, before);
}

TEST(WalTest, AppendOnReopenedNonEmptyLogRequiresReset) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  {
    Wal wal(path, nullptr);
    wal.AppendPage(0, MakePage(1));
    wal.AppendCommit("one");
    wal.Sync();
  }
  Wal wal(path, nullptr);
  // Blind appends would land beyond record bytes Scan may not be able to
  // cross (duplicate LSNs after a torn region): refuse until Reset.
  EXPECT_THROW(wal.AppendPage(1, MakePage(2)), std::logic_error);
  const Wal::ScanResult scan = wal.Scan();
  ASSERT_EQ(scan.batches.size(), 1u);
  wal.set_next_lsn(scan.next_lsn);
  wal.Reset();
  wal.AppendCommit("two");  // now fine
  wal.Sync();
  const Wal::ScanResult rescan = wal.Scan();
  ASSERT_EQ(rescan.batches.size(), 1u);
  EXPECT_EQ(rescan.batches[0].commit_lsn, scan.next_lsn);
}

TEST(WalTest, GroupCommitIsOneFsyncPerSync) {
  TempDir dir;
  Wal wal(dir.File("wal.log"), nullptr);
  for (int i = 0; i < 50; ++i) wal.AppendPage(static_cast<PageId>(i),
                                              MakePage(static_cast<uint8_t>(i)));
  wal.AppendCommit("batch");
  EXPECT_EQ(wal.stats().fsyncs, 0);  // appends never touch the disk
  wal.Sync();
  EXPECT_EQ(wal.stats().fsyncs, 1);
  EXPECT_EQ(wal.stats().records, 51);
  EXPECT_EQ(wal.stats().commits, 1);
}

// ------------------------------------------------------------------ DiskPager

TEST(DiskPagerTest, CheckpointAndReopenRestoresPagesAndMeta) {
  TempDir dir;
  PageId id0 = 0, id1 = 0;
  {
    DiskPager pager(dir.path());
    EXPECT_FALSE(pager.recovered());
    id0 = pager.Allocate();
    id1 = pager.Allocate();
    pager.WritePage(id0, MakePage(0x11));
    pager.WritePage(id1, MakePage(0x22));
    pager.Checkpoint("app-meta-v1");
    EXPECT_EQ(pager.dirty_page_count(), 0u);
    // Post-checkpoint mutation that is never checkpointed: must not
    // survive the reopen.
    pager.WritePage(id1, MakePage(0x99));
  }
  DiskPager reopened(dir.path());
  EXPECT_TRUE(reopened.recovered());
  EXPECT_EQ(reopened.recovered_meta(), "app-meta-v1");
  EXPECT_EQ(reopened.allocated_pages(), 2u);
  Page p;
  reopened.ReadPage(id0, &p);
  EXPECT_EQ(p.bytes, MakePage(0x11).bytes);
  reopened.ReadPage(id1, &p);
  EXPECT_EQ(p.bytes, MakePage(0x22).bytes) << "uncheckpointed write leaked";
}

TEST(DiskPagerTest, FreeListSurvivesReopen) {
  TempDir dir;
  {
    DiskPager pager(dir.path());
    const PageId a = pager.Allocate();
    pager.Allocate();
    pager.Free(a);
    pager.Checkpoint("");
  }
  DiskPager reopened(dir.path());
  EXPECT_EQ(reopened.allocated_pages(), 2u);
  EXPECT_EQ(reopened.live_pages(), 1u);
  // The freed id is reused first, exactly as the pre-crash pager would.
  EXPECT_EQ(reopened.Allocate(), 0u);
}

TEST(DiskPagerTest, EpochAdvancesPerCheckpoint) {
  TempDir dir;
  {
    DiskPager pager(dir.path());
    pager.Allocate();
    pager.Checkpoint("a");
    pager.Checkpoint("b");
    EXPECT_EQ(pager.epoch(), 2u);
  }
  DiskPager reopened(dir.path());
  EXPECT_EQ(reopened.epoch(), 2u);
  EXPECT_EQ(reopened.recovered_meta(), "b");
}

TEST(DiskPagerTest, MirrorValidatesFreeLikeMemPager) {
  TempDir dir;
  DiskPager pager(dir.path());
  const PageId id = pager.Allocate();
  pager.Free(id);
  EXPECT_THROW(pager.Free(id), std::invalid_argument);
  EXPECT_THROW(pager.Free(1234), std::invalid_argument);
}

TEST(DiskPagerTest, CrashDuringCheckpointPoisonsAndKeepsOldState) {
  TempDir dir;
  {
    DiskPager pager(dir.path());
    pager.Allocate();
    pager.WritePage(0, MakePage(0x11));
    pager.Checkpoint("v1");
  }
  {
    FaultInjector inject;
    DiskPager pager(dir.path(), &inject);
    pager.WritePage(0, MakePage(0x22));
    // First fault point of the checkpoint: the WAL append flush. Nothing
    // durable happened yet, so v1 must survive.
    inject.Arm(inject.ops_seen(), CrashMode::kTornWrite);
    EXPECT_THROW(pager.Checkpoint("v2"), CrashError);
    EXPECT_TRUE(pager.poisoned());
  }
  DiskPager reopened(dir.path());
  EXPECT_EQ(reopened.recovered_meta(), "v1");
  Page p;
  reopened.ReadPage(0, &p);
  EXPECT_EQ(p.bytes, MakePage(0x11).bytes);
}

TEST(DiskPagerTest, CommittedBatchSurvivesCrashInEarlierWalReset) {
  // Two-crash regression: crash #1 hits Wal::Reset between the truncate
  // and the header write, so reopening re-stamps a fresh header with
  // start_lsn=0 while the checkpoint's LSN is ahead. The next checkpoint
  // then appends records at the checkpoint LSN; crash #2 hits after its
  // commit fsync (the durable point) but mid-convergence. Recovery #3
  // must still apply that committed batch — a header whose start LSN was
  // never realigned would make its first record look like a torn tail
  // and silently discard durable data over partially-converged pages.

  // Rehearse one fresh-store checkpoint to find the Reset's header
  // write: the op right after the first wal.truncate.
  int64_t reset_header_write = -1;
  {
    TempDir r;
    FaultInjector counter;
    DiskPager pager(r.path(), &counter);
    pager.Allocate();
    pager.Allocate();
    pager.WritePage(0, MakePage(0x11));
    pager.WritePage(1, MakePage(0x22));
    pager.Checkpoint("v1");
    // The *last* wal.truncate: the fresh-store Wal constructor also
    // truncates, but the checkpoint's Reset is the final one.
    const auto& log = counter.op_log();
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i] == "wal.truncate") reset_header_write = static_cast<int64_t>(i) + 1;
    }
    ASSERT_GT(reset_header_write, 0);
    ASSERT_EQ(log[static_cast<size_t>(reset_header_write)], "wal.write");
  }

  // Crash #1, identically into two dirs: A rehearses run 2's op indices,
  // B takes run 2's armed crash (run 2 mutates the store, so the
  // rehearsal needs its own copy of the crash state).
  TempDir dirs[2];
  for (TempDir& dir : dirs) {
    FaultInjector inject;
    inject.Arm(reset_header_write, CrashMode::kClean);
    DiskPager pager(dir.path(), &inject);
    pager.Allocate();
    pager.Allocate();
    pager.WritePage(0, MakePage(0x11));
    pager.WritePage(1, MakePage(0x22));
    EXPECT_THROW(pager.Checkpoint("v1"), CrashError);
    // v1 is fully published; only the WAL reset was torn apart.
    std::string raw;
    ASSERT_TRUE(ReadFileIfExists(dir.File("checkpoint.pdr"), &raw));
  }

  // Run 2 rehearsal on A: recover, dirty both pages, checkpoint v2.
  // Crash target: the second data.write after v2's commit fsync (the
  // wal.sync directly followed by data convergence) — the batch is
  // durable, convergence is half done.
  int64_t mid_converge_write = -1;
  {
    FaultInjector counter;
    DiskPager pager(dirs[0].path(), &counter);
    EXPECT_TRUE(pager.recovered());
    pager.WritePage(0, MakePage(0x33));
    pager.WritePage(1, MakePage(0x44));
    pager.Checkpoint("v2");
    const auto& log = counter.op_log();
    for (size_t i = 0; i + 2 < log.size(); ++i) {
      if (log[i] == "wal.sync" && log[i + 1] == "data.write") {
        mid_converge_write = static_cast<int64_t>(i) + 2;
        break;
      }
    }
    ASSERT_GT(mid_converge_write, 0);
    ASSERT_EQ(log[static_cast<size_t>(mid_converge_write)], "data.write");
  }

  // Crash #2 on B at that op.
  {
    FaultInjector inject;
    inject.Arm(mid_converge_write, CrashMode::kClean);
    DiskPager pager(dirs[1].path(), &inject);
    EXPECT_TRUE(pager.recovered());
    pager.WritePage(0, MakePage(0x33));
    pager.WritePage(1, MakePage(0x44));
    EXPECT_THROW(pager.Checkpoint("v2"), CrashError);
  }

  // Recovery #3: the fsynced v2 batch must win.
  DiskPager reopened(dirs[1].path());
  EXPECT_TRUE(reopened.recovered());
  EXPECT_EQ(reopened.recovered_meta(), "v2");
  EXPECT_EQ(reopened.recovery_stats().batches_applied, 1);
  Page p;
  reopened.ReadPage(0, &p);
  EXPECT_EQ(p.bytes, MakePage(0x33).bytes);
  reopened.ReadPage(1, &p);
  EXPECT_EQ(p.bytes, MakePage(0x44).bytes);
}

TEST(DiskPagerTest, GarbageCheckpointFileIsRejected) {
  TempDir dir;
  {
    DiskPager pager(dir.path());
    pager.Allocate();
    pager.Checkpoint("v1");
  }
  {
    std::ofstream f(dir.File("checkpoint.pdr"),
                    std::ios::binary | std::ios::trunc);
    f << "this is not a checkpoint";
  }
  // checkpoint.pdr is published atomically, so a corrupt one is operator
  // damage, not a crash artifact: refuse loudly — with the typed
  // corruption error carrying file/offset/checksum forensics — rather
  // than silently starting empty.
  EXPECT_THROW(DiskPager pager(dir.path()), CorruptionError);
}

}  // namespace
}  // namespace pdr
