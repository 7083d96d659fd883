#include "pdr/mvcc/snapshot_query.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pdr/bx/bx_tree.h"
#include "pdr/common/errors.h"
#include "pdr/common/stats.h"
#include "pdr/core/fr_snapshot_state.h"
#include "pdr/mvcc/versioned_histogram.h"
#include "pdr/mvcc/versioned_pager.h"
#include "pdr/tpr/tpr_tree.h"

namespace pdr {
namespace mvcc {
namespace {

/// Read-only ObjectIndex over one pinned epoch: the frozen scalar state
/// plus a private SnapshotPager + BufferPool, dispatching RangeQuery to
/// the trees' static traversal cores. One instance per query; shares
/// nothing mutable with any other thread.
class SnapshotIndexView : public ObjectIndex {
 public:
  SnapshotIndexView(const FrSnapshotState& state, const VersionedPager* pages,
                    Epoch epoch, size_t buffer_pages)
      : state_(state), pager_(pages, epoch), pool_(&pager_, buffer_pages) {}

  std::vector<std::pair<ObjectId, MotionState>> RangeQuery(
      const Rect& window, Tick t) const override {
    if (state_.index == IndexKind::kTprTree) {
      return TprTree::RangeQueryFrom(pool_, state_.tpr_root, window, t);
    }
    return BxTree::RangeQueryFrom(state_.bx, pool_, window, t);
  }

  size_t size() const override { return state_.size; }
  size_t node_count() const override { return 0; }
  int height() const override { return state_.height; }
  IoStats io_stats() const override { return pool_.stats(); }
  void ResetIoStats() override { pool_.ResetStats(); }
  void DropCaches() override { pool_.Clear(); }

  // A snapshot is immutable; the query core never calls these.
  void Insert(ObjectId, const MotionState&) override { MutationError(); }
  bool Delete(ObjectId) override { MutationError(); }
  void Apply(const UpdateEvent&) override { MutationError(); }
  void AdvanceTo(Tick) override { MutationError(); }

 private:
  [[noreturn]] static void MutationError() {
    throw std::logic_error("SnapshotIndexView: snapshots are read-only");
  }

  const FrSnapshotState& state_;
  SnapshotPager pager_;
  mutable BufferPool pool_;
};

const FrSnapshotState& FrStateOf(const Snapshot& snap) {
  if (!snap.valid()) {
    throw std::logic_error("SnapshotFrQuery: invalid (released?) snapshot");
  }
  const auto* state = static_cast<const FrSnapshotState*>(snap.state());
  if (state == nullptr) {
    throw std::logic_error(
        "SnapshotFrQuery: snapshot carries no FR state (was this epoch "
        "committed by FrEngine::Commit?)");
  }
  return *state;
}

}  // namespace

Tick SnapshotFrNow(const Snapshot& snap) { return FrStateOf(snap).now; }

FrEngine::QueryResult SnapshotFrQuery(const FrEngine& engine,
                                      const Snapshot& snap, Tick q_t,
                                      double rho, double l,
                                      const QueryControl& ctl) {
  const FrSnapshotState& state = FrStateOf(snap);
  if (engine.versioned_pager() == nullptr) {
    throw std::logic_error("SnapshotFrQuery: engine has snapshots disabled");
  }
  ValidateHorizon("fr", q_t, state.now, engine.options().horizon);
  const std::vector<DensityHistogram::Counter> slice =
      engine.versioned_histogram()->MaterializeSlice(snap.epoch(), q_t);
  SnapshotIndexView index(state, engine.versioned_pager(), snap.epoch(),
                          engine.options().buffer_pages);
  return FrQueryCore(engine.histogram().grid(), slice, index,
                     /*pool=*/nullptr, engine.options().io_ms, q_t, rho, l,
                     /*cold_cache=*/false, ctl);
}

}  // namespace mvcc
}  // namespace pdr
