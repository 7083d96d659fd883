// MVCC snapshot reads: the concurrent-interleaving harness.
//
// The claim under test is the whole subsystem's contract (DESIGN.md §14):
// while one writer commits the update stream epoch by epoch at full rate,
// any number of reader threads may pin any committed epoch and every
// snapshot answer is *bit-identical* — rectangle bits, filter/refine
// counters, logical I/O — to what a fully serialized execution produced
// at the moment that epoch was current. The harness makes that claim
// falsifiable per interleaving: the writer computes the serialized
// reference transcript for each enqueued query BEFORE applying the next
// batch (while the epoch is still the live state), then hands the pinned
// snapshot to a reader pool that runs the same query concurrently with
// later commits, at 1/2/4/8 reader threads, over seeded schedules and
// both index kinds. Any divergence reports the seed, epoch, and the first
// differing transcript line.
//
// Also covered: pins keep arbitrarily old epochs readable through
// reclamation, commit-rate independence from reader pins, cancellation
// mid-snapshot releasing the pin cleanly, and the frozen-clock horizon
// contract.

#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pdr/common/errors.h"
#include "pdr/common/random.h"
#include "pdr/core/fr_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/snapshot_query.h"
#include "pdr/resilience/deadline.h"
#include "transcript_util.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;

// Bit-exact transcript of one already-computed FR answer (the engine-side
// half of test_util::AppendFrQuery, which would re-run the query).
std::string ResultTranscript(const FrEngine::QueryResult& r, Tick q_t) {
  std::ostringstream os;
  os << "q_t=" << q_t << " cells=" << r.accepted_cells << '/'
     << r.candidate_cells << '/' << r.rejected_cells
     << " fetched=" << r.objects_fetched << " sweep=" << r.sweep.x_strips
     << '/' << r.sweep.y_sweeps << '/' << r.sweep.y_strips << '/'
     << r.sweep.dense_rects << " logical=" << r.cost.io.logical_reads
     << " region=";
  test_util::AppendRegion(r.region, &os);
  return os.str();
}

struct MvccRig {
  mvcc::SnapshotManager snapshots;
  std::unique_ptr<FrEngine> fr;

  explicit MvccRig(IndexKind index = IndexKind::kTprTree,
                   Tick horizon = 24) {
    fr = std::make_unique<FrEngine>(
        FrEngine::Options{.extent = kExtent,
                          .histogram_side = 16,
                          .horizon = horizon,
                          .buffer_pages = 64,
                          .index = index,
                          .max_update_interval = 8,
                          .snapshots = &snapshots});
  }

  mvcc::Epoch Commit() { return fr->Commit(); }
};

Dataset StreamDataset(uint64_t seed, int objects = 150, int duration = 18) {
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = objects;
  config.max_update_interval = 8;
  config.seed = seed;
  return GenerateDataset(config, duration);
}

// One enqueued unit of reader work: a pinned epoch, the query to run
// against it, and the serialized reference transcript recorded while the
// epoch was the live state.
struct PinnedQuery {
  mvcc::Snapshot snap;
  mvcc::Epoch epoch = 0;
  Tick q_t = 0;
  double rho = 0.0;
  double l = 0.0;
  std::string expected;
};

// Seeded writer/reader interleaving at `readers` threads; returns failure
// descriptions (empty = every snapshot answer was bit-identical).
std::vector<std::string> RunInterleaving(IndexKind index, uint64_t seed,
                                         int readers) {
  MvccRig rig(index);
  const Dataset ds = StreamDataset(seed);
  const double rho = 4.0 * ds.config.num_objects / (kExtent * kExtent);
  const double l = 25.0;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<PinnedQuery> queue;
  bool writer_done = false;
  std::vector<std::string> failures;

  auto reader_loop = [&] {
    for (;;) {
      PinnedQuery work;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || writer_done; });
        if (queue.empty()) return;
        work = std::move(queue.front());
        queue.pop_front();
      }
      std::string got;
      try {
        const FrEngine::QueryResult result = mvcc::SnapshotFrQuery(
            *rig.fr, work.snap, work.q_t, work.rho, work.l);
        got = ResultTranscript(result, work.q_t);
      } catch (const std::exception& e) {
        got = std::string("exception: ") + e.what();
      }
      if (got != work.expected) {
        std::lock_guard<std::mutex> lock(mu);
        failures.push_back("epoch " + std::to_string(work.epoch) +
                           ": snapshot diverged from serialized\n  want: " +
                           work.expected + "  got:  " + got);
      }
      work.snap.Release();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) pool.emplace_back(reader_loop);

  // A long-lived pin taken at the first epoch and queried only after the
  // writer finished: old versions must survive every later commit.
  PinnedQuery held;

  // Writer: apply each tick's batch, commit it as one epoch, and (per the
  // seeded schedule) record serialized references + pin snapshots for the
  // readers — all before the next batch mutates the live state.
  for (Tick now = 0; now <= ds.duration(); ++now) {
    rig.fr->AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) rig.fr->Apply(e);
    const mvcc::Epoch epoch = rig.Commit();

    const int queries = static_cast<int>(rng.UniformInt(0, 3));
    for (int q = 0; q < queries; ++q) {
      PinnedQuery work;
      work.q_t = now + static_cast<Tick>(rng.UniformInt(0, 6));
      work.rho = rng.Uniform(0.5, 2.0) * rho;
      work.l = l;
      work.epoch = epoch;
      const FrEngine::QueryResult reference =
          rig.fr->Query(work.q_t, work.rho, work.l);
      work.expected = ResultTranscript(reference, work.q_t);
      work.snap = rig.snapshots.Pin();
      if (epoch == 1 && !held.snap.valid()) {
        held = std::move(work);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(work));
      }
      cv.notify_one();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    writer_done = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();

  // The held pin answers last, long after its epoch stopped being live.
  if (held.snap.valid()) {
    const FrEngine::QueryResult result = mvcc::SnapshotFrQuery(
        *rig.fr, held.snap, held.q_t, held.rho, held.l);
    if (ResultTranscript(result, held.q_t) != held.expected) {
      failures.push_back("held epoch-" + std::to_string(held.epoch) +
                         " pin diverged after " +
                         std::to_string(rig.snapshots.committed_epoch()) +
                         " commits");
    }
    held.snap.Release();
  }
  return failures;
}

TEST(MvccInterleaveTest, TprSnapshotsBitIdenticalAtEveryReaderCount) {
  for (const int readers : {1, 2, 4, 8}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const auto failures =
          RunInterleaving(IndexKind::kTprTree, seed, readers);
      for (const std::string& f : failures) {
        ADD_FAILURE() << "tpr readers=" << readers << " seed=" << seed
                      << ": " << f;
      }
    }
  }
}

TEST(MvccInterleaveTest, BxSnapshotsBitIdenticalAtEveryReaderCount) {
  for (const int readers : {1, 2, 4, 8}) {
    for (uint64_t seed = 11; seed <= 16; ++seed) {
      const auto failures =
          RunInterleaving(IndexKind::kBxTree, seed, readers);
      for (const std::string& f : failures) {
        ADD_FAILURE() << "bx readers=" << readers << " seed=" << seed
                      << ": " << f;
      }
    }
  }
}

TEST(MvccInterleaveTest, PinKeepsOldEpochReadableThroughReclamation) {
  MvccRig rig;
  const Dataset ds = StreamDataset(/*seed=*/42, /*objects=*/120,
                                   /*duration=*/30);
  const double rho = 4.0 * ds.config.num_objects / (kExtent * kExtent);

  rig.fr->AdvanceTo(0);
  for (const UpdateEvent& e : ds.ticks[0]) rig.fr->Apply(e);
  rig.Commit();
  const FrEngine::QueryResult reference = rig.fr->Query(3, rho, 25.0);
  mvcc::Snapshot old_pin = rig.snapshots.Pin();

  // 30 more committed epochs: reclamation runs every commit, but the pin
  // holds the floor at epoch 1, so its versions survive.
  for (Tick now = 1; now <= ds.duration(); ++now) {
    rig.fr->AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) rig.fr->Apply(e);
    rig.Commit();
  }
  EXPECT_EQ(rig.snapshots.committed_epoch(), 1u + 30u);
  EXPECT_EQ(rig.snapshots.reclaim_floor(), 1u);

  const FrEngine::QueryResult late =
      mvcc::SnapshotFrQuery(*rig.fr, old_pin, 3, rho, 25.0);
  EXPECT_EQ(ResultTranscript(late, 3), ResultTranscript(reference, 3));

  // Releasing the pin lets the next commit reclaim everything below the
  // newest epoch: live versions shrink, the cumulative retired count
  // jumps (the pin was the only thing keeping 30 epochs of history).
  const int64_t live_held = rig.snapshots.live_versions();
  const int64_t retired_held = rig.snapshots.retired_versions();
  old_pin.Release();
  EXPECT_EQ(rig.snapshots.active_pins(), 0);
  rig.fr->AdvanceTo(ds.duration() + 1);
  rig.Commit();
  EXPECT_EQ(rig.snapshots.reclaim_floor(),
            rig.snapshots.committed_epoch());
  EXPECT_LT(rig.snapshots.live_versions(), live_held);
  EXPECT_GT(rig.snapshots.retired_versions(), retired_held);
}

TEST(MvccInterleaveTest, CancelledSnapshotQueryReleasesPinCleanly) {
  MvccRig rig;
  for (const UpdateEvent& e : MakeUniformInserts(200, kExtent, 1.5, 9)) {
    rig.fr->Apply(e);
  }
  rig.Commit();
  const double rho = 2.0 * 200 / (kExtent * kExtent);

  CancelToken token;
  token.Cancel();
  QueryControl ctl;
  ctl.token = &token;
  {
    mvcc::Snapshot snap = rig.snapshots.Pin();
    EXPECT_THROW(mvcc::SnapshotFrQuery(*rig.fr, snap, 2, rho, 25.0, ctl),
                 CancelledError);
  }  // RAII pin release on unwind
  EXPECT_EQ(rig.snapshots.active_pins(), 0);

  // The cancelled read left no state behind: an uncontrolled snapshot
  // query answers exactly like the live serialized engine.
  const FrEngine::QueryResult want = rig.fr->Query(2, rho, 25.0);
  mvcc::Snapshot snap = rig.snapshots.Pin();
  const FrEngine::QueryResult got =
      mvcc::SnapshotFrQuery(*rig.fr, snap, 2, rho, 25.0);
  EXPECT_EQ(ResultTranscript(got, 2), ResultTranscript(want, 2));
}

TEST(MvccInterleaveTest, PinBeforeFirstCommitThrows) {
  mvcc::SnapshotManager snapshots;
  EXPECT_THROW(snapshots.Pin(), std::logic_error);
}

TEST(MvccInterleaveTest, CommitWithoutSnapshotsThrows) {
  FrEngine fr(FrEngine::Options{.extent = kExtent,
                                .histogram_side = 16,
                                .horizon = 24,
                                .buffer_pages = 64});
  EXPECT_THROW(fr.Commit(), std::logic_error);
}

TEST(MvccInterleaveTest, CommitReturnsTheEpochItPublished) {
  MvccRig rig;
  EXPECT_EQ(rig.Commit(), 1u);
  rig.fr->AdvanceTo(1);
  EXPECT_EQ(rig.Commit(), 2u);
  EXPECT_EQ(rig.snapshots.committed_epoch(), 2u);
  EXPECT_EQ(rig.snapshots.Pin().epoch(), 2u);
}

TEST(MvccInterleaveTest, HorizonValidatesAgainstFrozenClockNotLive) {
  MvccRig rig(IndexKind::kTprTree, /*horizon=*/10);
  for (const UpdateEvent& e : MakeUniformInserts(50, kExtent, 1.5, 5)) {
    rig.fr->Apply(e);
  }
  rig.Commit();
  mvcc::Snapshot old_snap = rig.snapshots.Pin();
  EXPECT_EQ(mvcc::SnapshotFrNow(old_snap), 0);

  rig.fr->AdvanceTo(12);
  rig.Commit();

  const double rho = 1.0 * 50 / (kExtent * kExtent);
  // q_t = 12 is inside the live horizon [12, 22] but outside the frozen
  // snapshot's [0, 10]: the frozen clock governs.
  EXPECT_THROW(mvcc::SnapshotFrQuery(*rig.fr, old_snap, 12, rho, 20.0),
               HorizonError);
  EXPECT_NO_THROW(mvcc::SnapshotFrQuery(*rig.fr, old_snap, 8, rho, 20.0));

  mvcc::Snapshot fresh = rig.snapshots.Pin();
  EXPECT_EQ(mvcc::SnapshotFrNow(fresh), 12);
  EXPECT_NO_THROW(mvcc::SnapshotFrQuery(*rig.fr, fresh, 12, rho, 20.0));
}

TEST(MvccInterleaveTest, ReleasedSnapshotRefusesQueries) {
  MvccRig rig;
  rig.Commit();
  mvcc::Snapshot snap = rig.snapshots.Pin();
  snap.Release();
  EXPECT_FALSE(snap.valid());
  EXPECT_THROW(mvcc::SnapshotFrQuery(*rig.fr, snap, 0, 0.001, 20.0),
               std::logic_error);
}

}  // namespace
}  // namespace pdr
