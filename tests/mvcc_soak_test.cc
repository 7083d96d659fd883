// MVCC soak: a seeded multi-reader storm against a free-running writer,
// built to run under ThreadSanitizer (scripts/check.sh TSan lane runs
// this suite). Where mvcc_interleave_test pins every epoch from the
// writer thread and hands snapshots over deterministically, here the
// readers race Pin() themselves against in-flight commits — the
// scheduling is genuinely nondeterministic, which is exactly what TSan
// needs to see. Correctness is still checked: the writer records the
// serialized answer digest for every epoch before committing the next
// batch, and whatever epoch a reader happens to pin, its snapshot answer
// must hash to that epoch's recorded digest.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/core/fr_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/snapshot_query.h"
#include "transcript_util.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t ResultDigest(const FrEngine::QueryResult& r) {
  std::ostringstream os;
  os << r.accepted_cells << '/' << r.candidate_cells << '/'
     << r.rejected_cells << '/' << r.objects_fetched << '/'
     << r.sweep.dense_rects << ' ';
  test_util::AppendRegion(r.region, &os);
  return Fnv1a(os.str());
}

struct SoakOutcome {
  int64_t queries = 0;
  int64_t epochs_seen = 0;
  int64_t divergent = 0;
};

// `readers` threads pin-and-query at full speed while the main thread
// drives `duration` commits. The query (q_t offset, rho, l) is fixed for
// the whole storm so each epoch has exactly one reference digest.
SoakOutcome RunSoak(uint64_t seed, int readers, Tick duration) {
  mvcc::SnapshotManager snapshots;
  FrEngine fr(FrEngine::Options{.extent = kExtent,
                                .histogram_side = 16,
                                .horizon = 24,
                                .buffer_pages = 64,
                                .max_update_interval = 8,
                                .snapshots = &snapshots});
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = 140;
  config.max_update_interval = 8;
  config.seed = seed;
  const Dataset ds = GenerateDataset(config, duration);
  const double rho = 4.0 * config.num_objects / (kExtent * kExtent);
  const double l = 25.0;
  const Tick lookahead = 3;

  // Epoch -> serialized reference digest. Written by the writer before
  // the epoch becomes pinnable, read by racing readers afterwards: the
  // commit's release/acquire ordering makes the entry visible before
  // Pin() can return the epoch, but the map needs its own lock because
  // the writer keeps inserting while readers look up.
  std::mutex ref_mu;
  std::map<mvcc::Epoch, uint64_t> reference;

  std::atomic<bool> done{false};
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> divergent{0};
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> seen_mask;
  seen_mask.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    seen_mask.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }

  auto reader_loop = [&](int id) {
    while (!done.load(std::memory_order_acquire)) {
      mvcc::Snapshot snap;
      try {
        snap = snapshots.Pin();
      } catch (const std::logic_error&) {
        continue;  // racing the very first commit
      }
      const mvcc::Epoch epoch = snap.epoch();
      const Tick q_t = mvcc::SnapshotFrNow(snap) + lookahead;
      const uint64_t got =
          ResultDigest(mvcc::SnapshotFrQuery(fr, snap, q_t, rho, l));
      snap.Release();
      uint64_t want = 0;
      {
        std::lock_guard<std::mutex> lock(ref_mu);
        want = reference.at(epoch);
      }
      if (got != want) divergent.fetch_add(1, std::memory_order_relaxed);
      queries.fetch_add(1, std::memory_order_relaxed);
      if (epoch < 64) {
        seen_mask[static_cast<size_t>(id)]->fetch_or(
            1ULL << epoch, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(readers));

  for (Tick now = 0; now <= ds.duration(); ++now) {
    fr.AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) fr.Apply(e);
    const uint64_t digest =
        ResultDigest(fr.Query(now + lookahead, rho, l));
    {
      std::lock_guard<std::mutex> lock(ref_mu);
      reference[snapshots.open_epoch()] = digest;
    }
    fr.Commit();
    if (now == 0) {
      for (int r = 0; r < readers; ++r) pool.emplace_back(reader_loop, r);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();

  uint64_t epochs = 0;
  for (const auto& m : seen_mask) epochs |= m->load();
  SoakOutcome out;
  out.queries = queries.load();
  out.divergent = divergent.load();
  while (epochs != 0) {
    out.epochs_seen += static_cast<int64_t>(epochs & 1);
    epochs >>= 1;
  }
  return out;
}

TEST(MvccSoakTest, RacingReadersMatchSerializedDigests) {
  const SoakOutcome out = RunSoak(/*seed=*/77, /*readers=*/4,
                                  /*duration=*/40);
  EXPECT_EQ(out.divergent, 0)
      << out.divergent << " of " << out.queries
      << " racing snapshot queries diverged from the serialized digest";
  EXPECT_GT(out.queries, 0);
}

TEST(MvccSoakTest, TwoReaderStormSecondSeed) {
  const SoakOutcome out = RunSoak(/*seed=*/123, /*readers=*/2,
                                  /*duration=*/30);
  EXPECT_EQ(out.divergent, 0);
  EXPECT_GT(out.queries, 0);
}

TEST(MvccSoakTest, WriterNeverBlocksOnPinnedReader) {
  // A reader holds one pin for the whole run; the writer must still
  // commit every epoch (no back-pressure path exists to block it).
  mvcc::SnapshotManager snapshots;
  FrEngine fr(FrEngine::Options{.extent = kExtent,
                                .histogram_side = 16,
                                .horizon = 24,
                                .buffer_pages = 64,
                                .max_update_interval = 8,
                                .snapshots = &snapshots});
  for (const UpdateEvent& e : MakeUniformInserts(100, kExtent, 1.5, 5)) {
    fr.Apply(e);
  }
  fr.Commit();
  mvcc::Snapshot pin = snapshots.Pin();

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    const double rho = 1.0 * 100 / (kExtent * kExtent);
    while (!stop.load(std::memory_order_acquire)) {
      mvcc::SnapshotFrQuery(fr, pin, mvcc::SnapshotFrNow(pin) + 2, rho,
                            20.0);
    }
  });
  for (Tick now = 1; now <= 25; ++now) {
    fr.AdvanceTo(now);
    fr.Commit();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(snapshots.committed_epoch(), 26u);
  EXPECT_EQ(snapshots.reclaim_floor(), 1u);
  pin.Release();
}

}  // namespace
}  // namespace pdr
