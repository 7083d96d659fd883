#include "pdr/tpr/tpr_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "pdr/common/random.h"
#include "pdr/mobility/generator.h"
#include "pdr/storage/pager.h"

namespace pdr {
namespace {

TprTree::Options SmallOptions() {
  TprTree::Options options;
  options.buffer_pages = 64;
  options.horizon = 40;
  return options;
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

TEST(TpbrTest, ObjectBoxTracksTrajectory) {
  const MotionState s{{10, 20}, {1, -1}, 5};
  const Tpbr box = Tpbr::ForObject(s);
  const Rect at9 = box.RectAt(9);
  EXPECT_TRUE(at9.AlmostEquals(Rect(14, 16, 14, 16)));
}

TEST(TpbrTest, UnionCoversBothOverTime) {
  const Tpbr a = Tpbr::ForObject({{0, 0}, {1, 0}, 0});
  const Tpbr b = Tpbr::ForObject({{10, 5}, {-1, 1}, 2});
  const Tpbr u = Tpbr::Union(a, b);
  for (double t : {2.0, 5.0, 11.0, 40.0}) {
    const Rect ru = u.RectAt(t);
    for (const Tpbr& child : {a, b}) {
      const Rect rc = child.RectAt(t);
      EXPECT_LE(ru.x_lo, rc.x_lo + 1e-9);
      EXPECT_GE(ru.x_hi, rc.x_hi - 1e-9);
      EXPECT_LE(ru.y_lo, rc.y_lo + 1e-9);
      EXPECT_GE(ru.y_hi, rc.y_hi - 1e-9);
    }
  }
  EXPECT_TRUE(u.Covers(a));
  EXPECT_TRUE(u.Covers(b));
  EXPECT_FALSE(a.Covers(b));
}

TEST(TpbrTest, IntegratedAreaGrowsWithSpread) {
  Tpbr tight;
  tight.rect = Rect(0, 0, 2, 2);
  Tpbr spread = tight;
  spread.vx_hi = 1.0;  // x-extent grows over time
  EXPECT_NEAR(tight.IntegratedArea(0, 10), 4.0 * 10, 1e-9);
  EXPECT_GT(spread.IntegratedArea(0, 10), tight.IntegratedArea(0, 10));
}

TEST(TprTreeTest, EmptyTreeQueries) {
  TprTree tree(SmallOptions());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeQuery(Rect(0, 0, 100, 100), 0).empty());
  EXPECT_FALSE(tree.Delete(5));
  tree.CheckInvariants();
}

TEST(TprTreeTest, SingleObjectFoundAtPredictedPosition) {
  TprTree tree(SmallOptions());
  tree.Insert(1, {{50, 50}, {1, 0}, 0});
  // At t=10 the object is at (60, 50).
  EXPECT_EQ(tree.RangeQuery(Rect(59, 49, 61, 51), 10).size(), 1u);
  EXPECT_TRUE(tree.RangeQuery(Rect(49, 49, 51, 51), 10).empty());
}

TEST(TprTreeTest, MatchesBruteForceAfterBulkInsert) {
  TprTree tree(SmallOptions());
  std::map<ObjectId, MotionState> reference;
  for (const UpdateEvent& e : MakeUniformInserts(2000, 1000.0, 1.5, 21)) {
    tree.Insert(e.id, *e.new_state);
    reference[e.id] = *e.new_state;
  }
  EXPECT_EQ(tree.size(), 2000u);
  tree.CheckInvariants();
  EXPECT_GT(tree.height(), 1);

  Rng rng(4);
  for (Tick t : {0, 5, 17, 40}) {
    for (int q = 0; q < 10; ++q) {
      const double x = rng.Uniform(-50, 950);
      const double y = rng.Uniform(-50, 950);
      const Rect window(x, y, x + rng.Uniform(20, 200),
                        y + rng.Uniform(20, 200));
      ExpectSameIds(tree.RangeQuery(window, t),
                    BruteRange(reference, window, t));
    }
  }
}

TEST(TprTreeTest, DeleteRemovesExactlyOneObject) {
  TprTree tree(SmallOptions());
  for (const UpdateEvent& e : MakeUniformInserts(500, 500.0, 1.0, 22)) {
    tree.Insert(e.id, *e.new_state);
  }
  EXPECT_TRUE(tree.Delete(123));
  EXPECT_FALSE(tree.Delete(123));
  EXPECT_EQ(tree.size(), 499u);
  const auto all = tree.RangeQuery(Rect(-100, -100, 600, 600), 0);
  EXPECT_EQ(all.size(), 499u);
  for (const auto& [id, state] : all) {
    (void)state;
    EXPECT_NE(id, 123u);
  }
  tree.CheckInvariants();
}

TEST(TprTreeTest, DeleteAllLeavesEmptyTree) {
  TprTree tree(SmallOptions());
  const auto inserts = MakeUniformInserts(800, 500.0, 1.0, 23);
  for (const UpdateEvent& e : inserts) tree.Insert(e.id, *e.new_state);
  for (const UpdateEvent& e : inserts) EXPECT_TRUE(tree.Delete(e.id));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeQuery(Rect(0, 0, 500, 500), 5).empty());
  tree.CheckInvariants();
  // Tree must be reusable after total deletion.
  tree.Insert(9999, {{10, 10}, {0, 0}, 0});
  EXPECT_EQ(tree.RangeQuery(Rect(0, 0, 20, 20), 0).size(), 1u);
}

TEST(TprTreeTest, MixedWorkloadStaysConsistent) {
  TprTree tree(SmallOptions());
  std::map<ObjectId, MotionState> reference;
  Rng rng(31);
  ObjectId next_id = 0;
  for (int round = 0; round < 6; ++round) {
    const Tick now = round * 5;
    tree.AdvanceTo(now);
    // Insert a batch.
    for (int i = 0; i < 300; ++i) {
      const MotionState s{{rng.Uniform(0, 800), rng.Uniform(0, 800)},
                          {rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                          now};
      tree.Insert(next_id, s);
      reference[next_id] = s;
      ++next_id;
    }
    // Update (delete + reinsert) a random existing subset.
    std::vector<ObjectId> ids;
    for (const auto& [id, s] : reference) {
      (void)s;
      ids.push_back(id);
    }
    for (int i = 0; i < 150; ++i) {
      const ObjectId id = ids[rng.UniformInt(0, ids.size() - 1)];
      const MotionState fresh{
          {rng.Uniform(0, 800), rng.Uniform(0, 800)},
          {rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
          now};
      UpdateEvent update{now, id, reference[id], fresh};
      tree.Apply(update);
      reference[id] = fresh;
    }
    // Delete a random subset.
    for (int i = 0; i < 80; ++i) {
      const ObjectId id = ids[rng.UniformInt(0, ids.size() - 1)];
      if (reference.erase(id)) {
        EXPECT_TRUE(tree.Delete(id));
      }
    }
    tree.CheckInvariants();
    EXPECT_EQ(tree.size(), reference.size());
    for (int q = 0; q < 6; ++q) {
      const double x = rng.Uniform(0, 700);
      const double y = rng.Uniform(0, 700);
      const Rect window(x, y, x + 150, y + 150);
      const Tick t = now + static_cast<Tick>(rng.UniformInt(0, 20));
      ExpectSameIds(tree.RangeQuery(window, t),
                    BruteRange(reference, window, t));
    }
  }
}

TEST(TprTreeTest, IoStatsAccumulateAndReset) {
  TprTree tree(SmallOptions());
  for (const UpdateEvent& e : MakeUniformInserts(1500, 1000.0, 1.0, 25)) {
    tree.Insert(e.id, *e.new_state);
  }
  tree.ResetIoStats();
  tree.DropCaches();
  const auto result = tree.RangeQuery(Rect(0, 0, 1000, 1000), 0);
  EXPECT_EQ(result.size(), 1500u);
  EXPECT_GT(tree.io_stats().physical_reads, 0);
  EXPECT_GE(tree.io_stats().logical_reads, tree.io_stats().physical_reads);
  // A warm repeat of the same query does no physical I/O (pool is large
  // enough for this small tree).
  tree.ResetIoStats();
  (void)tree.RangeQuery(Rect(0, 0, 1000, 1000), 0);
  EXPECT_EQ(tree.io_stats().physical_reads, 0);
}

TEST(TprTreeTest, ColdQueryReadsFewerPagesForSmallWindows) {
  TprTree tree(SmallOptions());
  for (const UpdateEvent& e : MakeUniformInserts(4000, 1000.0, 0.5, 26)) {
    tree.Insert(e.id, *e.new_state);
  }
  tree.DropCaches();
  tree.ResetIoStats();
  (void)tree.RangeQuery(Rect(100, 100, 140, 140), 0);
  const int64_t small_reads = tree.io_stats().physical_reads;
  tree.DropCaches();
  tree.ResetIoStats();
  (void)tree.RangeQuery(Rect(0, 0, 1000, 1000), 0);
  const int64_t full_reads = tree.io_stats().physical_reads;
  EXPECT_LT(small_reads, full_reads / 2);
}

TEST(TprTreeTest, PredictiveQueriesStayCorrectAcrossHorizon) {
  // Objects moving fast enough to cross many cells over the horizon.
  TprTree tree(SmallOptions());
  std::map<ObjectId, MotionState> reference;
  Rng rng(41);
  for (ObjectId id = 0; id < 1000; ++id) {
    const MotionState s{{rng.Uniform(200, 400), rng.Uniform(200, 400)},
                        {rng.Uniform(-3, 3), rng.Uniform(-3, 3)},
                        0};
    tree.Insert(id, s);
    reference[id] = s;
  }
  for (Tick t = 0; t <= 40; t += 8) {
    const Rect window(250, 250, 500, 500);
    ExpectSameIds(tree.RangeQuery(window, t),
                  BruteRange(reference, window, t));
  }
}

TEST(TprTreeTest, QueriesFarBeyondHorizonStayCorrect) {
  // The horizon only tunes heuristics; bounds are conservative for every
  // t >= t_ref, so queries far past it must still be exact.
  TprTree tree(SmallOptions());  // horizon = 40
  std::map<ObjectId, MotionState> reference;
  Rng rng(61);
  for (ObjectId id = 0; id < 600; ++id) {
    const MotionState s{{rng.Uniform(0, 500), rng.Uniform(0, 500)},
                        {rng.Uniform(-0.5, 0.5), rng.Uniform(-0.5, 0.5)},
                        0};
    tree.Insert(id, s);
    reference[id] = s;
  }
  for (Tick t : {100, 250, 500}) {  // 2.5x .. 12.5x the horizon
    const Rect window(100, 100, 450, 450);
    ExpectSameIds(tree.RangeQuery(window, t),
                  BruteRange(reference, window, t));
  }
}

TEST(TprTreeTest, ApplyInsertDeleteEventForms) {
  TprTree tree(SmallOptions());
  const MotionState s{{5, 5}, {0, 0}, 0};
  tree.Apply(UpdateEvent{0, 7, std::nullopt, s});
  EXPECT_EQ(tree.size(), 1u);
  tree.Apply(UpdateEvent{0, 7, s, std::nullopt});
  EXPECT_EQ(tree.size(), 0u);
}

TEST(TprTreeTest, ExternalPagerFreesCondensedNodesAndCollapsedRoot) {
  // The MVCC seam: the tree owns no pager, so the nodes that deletes
  // condense away and the roots that collapse must be freed in the
  // caller's pager.
  MemPager pager;
  TprTree::Options options = SmallOptions();
  options.external_pager = &pager;
  TprTree tree(options);
  const auto inserts = MakeUniformInserts(800, 500.0, 1.0, 24);
  for (const UpdateEvent& e : inserts) tree.Insert(e.id, *e.new_state);
  ASSERT_GE(tree.height(), 2);  // an internal root to collapse
  tree.FlushBufferPool();
  EXPECT_EQ(pager.live_pages(), tree.node_count());

  // Down to one object: every other leaf empties and is condensed away,
  // and the single-child chain above the survivor collapses to a root
  // leaf.
  for (size_t i = 1; i < inserts.size(); ++i) {
    EXPECT_TRUE(tree.Delete(inserts[i].id));
  }
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(pager.live_pages(), 1u);
  tree.CheckInvariants();
  EXPECT_EQ(tree.RangeQuery(Rect(-100, -100, 600, 600), 0).size(), 1u);

  EXPECT_TRUE(tree.Delete(inserts[0].id));
  EXPECT_EQ(tree.size(), 0u);
  tree.Insert(9999, {{10, 10}, {0, 0}, 0});
  EXPECT_EQ(tree.RangeQuery(Rect(0, 0, 20, 20), 0).size(), 1u);
}

}  // namespace
}  // namespace pdr
