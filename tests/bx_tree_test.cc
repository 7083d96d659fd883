#include "pdr/bx/bx_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "pdr/common/random.h"
#include "pdr/mobility/generator.h"

namespace pdr {
namespace {

BxTree::Options SmallOptions() {
  return {.buffer_pages = 256, .extent = 1000.0, .max_update_interval = 20,
          .max_scan_intervals = 128};
}

std::vector<std::pair<ObjectId, MotionState>> BruteRange(
    const std::map<ObjectId, MotionState>& objects, const Rect& window,
    Tick t) {
  std::vector<std::pair<ObjectId, MotionState>> out;
  for (const auto& [id, state] : objects) {
    if (window.ContainsClosed(state.PositionAt(t))) out.emplace_back(id, state);
  }
  return out;
}

void ExpectSameIds(std::vector<std::pair<ObjectId, MotionState>> got,
                   std::vector<std::pair<ObjectId, MotionState>> want) {
  auto key = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(got.begin(), got.end(), key);
  std::sort(want.begin(), want.end(), key);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second);
  }
}

TEST(BxTreeTest, EmptyTree) {
  BxTree tree(SmallOptions());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeQuery(Rect(0, 0, 1000, 1000), 0).empty());
  EXPECT_FALSE(tree.Delete(1));
}

TEST(BxTreeTest, KeyEmbedsPartitionAndObject) {
  BxTree tree(SmallOptions());
  const MotionState s0{{100, 100}, {0, 0}, 0};   // partition 0
  const MotionState s1{{100, 100}, {0, 0}, 10};  // partition 1 (span 10)
  EXPECT_EQ(tree.phase_span(), 10);
  const uint64_t k0 = tree.KeyFor(1, s0);
  const uint64_t k1 = tree.KeyFor(1, s1);
  EXPECT_NE(k0, k1);  // different partitions
  EXPECT_NE(tree.KeyFor(1, s0), tree.KeyFor(2, s0));  // different objects
  // Same state, same id => deterministic key.
  EXPECT_EQ(tree.KeyFor(1, s0), tree.KeyFor(1, s0));
}

TEST(BxTreeTest, SingleObjectFoundAtPredictedPosition) {
  BxTree tree(SmallOptions());
  tree.Insert(1, {{500, 500}, {1, -1}, 0});
  const auto hit = tree.RangeQuery(Rect(509, 489, 511, 491), 10);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].first, 1u);
  EXPECT_TRUE(tree.RangeQuery(Rect(499, 499, 501, 501), 10).empty());
}

TEST(BxTreeTest, MatchesBruteForceOnUniformWorkload) {
  BxTree tree(SmallOptions());
  std::map<ObjectId, MotionState> reference;
  for (const UpdateEvent& e : MakeUniformInserts(3000, 1000.0, 1.5, 111)) {
    tree.Insert(e.id, *e.new_state);
    reference[e.id] = *e.new_state;
  }
  // A range query descends the B+-tree: the index reports its height.
  const ObjectIndex& index = tree;
  EXPECT_GT(index.height(), 1);
  EXPECT_EQ(index.height(), tree.btree().height());
  Rng rng(112);
  for (Tick t : {0, 7, 15, 20}) {
    for (int q = 0; q < 8; ++q) {
      const double x = rng.Uniform(-50, 950);
      const double y = rng.Uniform(-50, 950);
      const Rect window(x, y, x + rng.Uniform(20, 150),
                        y + rng.Uniform(20, 150));
      ExpectSameIds(tree.RangeQuery(window, t),
                    BruteRange(reference, window, t));
    }
  }
}

TEST(BxTreeTest, MixedPartitionsStayConsistent) {
  // Objects updated at different ticks land in different partitions; the
  // query must merge them all correctly.
  BxTree tree(SmallOptions());
  std::map<ObjectId, MotionState> reference;
  Rng rng(113);
  ObjectId next = 0;
  for (Tick now : {0, 5, 10, 15, 20}) {
    tree.AdvanceTo(now);
    for (int i = 0; i < 400; ++i) {
      const MotionState s{{rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
                          {rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5)},
                          now};
      tree.Insert(next, s);
      reference[next] = s;
      ++next;
    }
    // Update some older objects into the current partition.
    std::vector<ObjectId> ids;
    for (const auto& [id, s] : reference) {
      (void)s;
      ids.push_back(id);
    }
    for (int i = 0; i < 150; ++i) {
      const ObjectId id = ids[rng.UniformInt(0, ids.size() - 1)];
      const MotionState fresh{{rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
                              {rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5)},
                              now};
      tree.Apply({now, id, reference[id], fresh});
      reference[id] = fresh;
    }
    for (int q = 0; q < 6; ++q) {
      const double x = rng.Uniform(0, 800);
      const double y = rng.Uniform(0, 800);
      const Rect window(x, y, x + 150, y + 150);
      const Tick t = now + static_cast<Tick>(rng.UniformInt(0, 10));
      ExpectSameIds(tree.RangeQuery(window, t),
                    BruteRange(reference, window, t));
    }
  }
  tree.btree().CheckInvariants();
}

TEST(BxTreeTest, FindsObjectsPredictedOutsideThenInside) {
  // An object whose label-time position is outside the domain (clamped
  // key) must still be found when its query-time position is inside.
  BxTree tree(SmallOptions());
  // At t_ref=0 (partition 0, label 10) it sits at x = 1040 (outside);
  // moving left it re-enters and is at x = 960 at t = 20? Reverse: place
  // it so label position is outside but query position inside.
  const MotionState s{{995, 500}, {1.6, 0}, 0};  // at label(10): x=1011
  tree.Insert(7, s);
  // Query at t=2: position (998.2, 500).
  const auto hit = tree.RangeQuery(Rect(990, 490, 1000, 510), 2);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].first, 7u);
}

TEST(BxTreeTest, DeleteRemovesExactlyOne) {
  BxTree tree(SmallOptions());
  for (const UpdateEvent& e : MakeUniformInserts(500, 1000.0, 1.0, 114)) {
    tree.Insert(e.id, *e.new_state);
  }
  EXPECT_TRUE(tree.Delete(123));
  EXPECT_FALSE(tree.Delete(123));
  EXPECT_EQ(tree.size(), 499u);
  const auto all = tree.RangeQuery(Rect(-100, -100, 1100, 1100), 0);
  EXPECT_EQ(all.size(), 499u);
}

TEST(BxTreeTest, IoStatsAndColdQueries) {
  BxTree tree(SmallOptions());
  for (const UpdateEvent& e : MakeUniformInserts(20000, 1000.0, 1.0, 115)) {
    tree.Insert(e.id, *e.new_state);
  }
  tree.DropCaches();
  tree.ResetIoStats();
  const auto small = tree.RangeQuery(Rect(100, 100, 130, 130), 5);
  const int64_t small_reads = tree.io_stats().physical_reads;
  EXPECT_GT(small_reads, 0);
  tree.DropCaches();
  tree.ResetIoStats();
  (void)tree.RangeQuery(Rect(0, 0, 1000, 1000), 5);
  EXPECT_GT(tree.io_stats().physical_reads, small_reads);
  (void)small;
}

TEST(BxTreeTest, UpdateStreamFromSimulator) {
  WorkloadConfig config;
  config.WithExtent(1000.0);
  config.num_objects = 800;
  config.max_update_interval = 20;
  config.network.grid_nodes = 10;
  config.seed = 116;
  TripSimulator sim(config);
  BxTree tree(SmallOptions());
  std::map<ObjectId, MotionState> reference;
  for (const UpdateEvent& e : sim.Bootstrap()) {
    tree.Apply(e);
    reference[e.id] = *e.new_state;
  }
  for (Tick now = 1; now <= 30; ++now) {
    tree.AdvanceTo(now);
    for (const UpdateEvent& e : sim.Advance(now)) {
      tree.Apply(e);
      reference[e.id] = *e.new_state;
    }
  }
  EXPECT_EQ(tree.size(), 800u);
  Rng rng(117);
  for (int q = 0; q < 10; ++q) {
    const double x = rng.Uniform(0, 850);
    const double y = rng.Uniform(0, 850);
    const Rect window(x, y, x + 120, y + 120);
    const Tick t = 30 + static_cast<Tick>(rng.UniformInt(0, 10));
    ExpectSameIds(tree.RangeQuery(window, t),
                  BruteRange(reference, window, t));
  }
}

}  // namespace
}  // namespace pdr
