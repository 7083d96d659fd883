// TPR-tree: a time-parameterized R-tree over moving objects
// (Saltenis et al., SIGMOD 2000), used by the paper as the index behind
// the refinement step (Section 4: "Without loss of generality, we use a
// TPR-tree to index the moving objects").
//
// Every entry stores a conservative time-parameterized bounding rectangle
// (TPBR): spatial bounds valid at the entry's reference tick plus velocity
// bounds, so the rectangle at any later time t is obtained by moving each
// edge with its own bound velocity. Insertion heuristics (ChooseSubtree and
// node split) minimize the TPBR area *integrated* over the query horizon
// [now, now + H]; the integral is approximated by sampling a fixed set of
// offsets, a documented approximation that affects only performance, never
// correctness, because bounds remain conservative at every timestamp.
//
// Nodes live on 4 KB pages behind the LRU BufferPool, so range queries are
// charged simulated I/O exactly as in the paper's experiments. Deletions
// locate leaves through a direct object->leaf map (the standard
// "bottom-up update" shortcut); nodes may transiently underflow and are
// removed only when empty, which keeps the structure simple while updates
// (delete + reinsert) keep occupancy healthy.

#ifndef PDR_TPR_TPR_TREE_H_
#define PDR_TPR_TPR_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdr/common/geometry.h"
#include "pdr/common/stats.h"
#include "pdr/index/object_index.h"
#include "pdr/mobility/object.h"
#include "pdr/storage/buffer_pool.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/pager.h"

namespace pdr {

class DiskPager;

/// Time-parameterized bounding rectangle: `rect` holds the spatial bounds
/// at tick `t_ref`; each edge then moves with its own velocity bound.
/// Conservative for every t >= t_ref.
struct Tpbr {
  Rect rect;
  double vx_lo = 0, vy_lo = 0, vx_hi = 0, vy_hi = 0;
  Tick t_ref = 0;

  static Tpbr ForObject(const MotionState& state);

  /// Bounds at (fractional) time `t` (valid for t >= t_ref).
  Rect RectAt(double t) const {
    const double dt = t - static_cast<double>(t_ref);
    return Rect(rect.x_lo + vx_lo * dt, rect.y_lo + vy_lo * dt,
                rect.x_hi + vx_hi * dt, rect.y_hi + vy_hi * dt);
  }

  /// Smallest TPBR covering both inputs, referenced at the later of the two
  /// reference ticks.
  static Tpbr Union(const Tpbr& a, const Tpbr& b);

  /// True when this TPBR covers `o` for all t >= max(t_ref, o.t_ref).
  bool Covers(const Tpbr& o) const;

  /// Area integrated over [t0, t0 + horizon], approximated with
  /// `kAreaSamples` evenly spaced evaluations.
  double IntegratedArea(double t0, double horizon) const;

  static constexpr int kAreaSamples = 5;
};

class TprTree : public ObjectIndex {
 public:
  struct Options {
    size_t buffer_pages = 256;   ///< LRU buffer pool capacity
    Tick horizon = 120;          ///< H: optimization window for heuristics
    /// Non-empty: back the tree with a durable DiskPager in this directory
    /// (recovering any existing store). Empty: in-memory MemPager.
    std::string storage_dir;
    /// Crash-fault injection for the durable store (tests only; not owned).
    FaultInjector* fault_injector = nullptr;
    /// Non-null: the tree runs over this caller-owned pager instead of
    /// creating its own (the MVCC copy-on-write seam). Mutually exclusive
    /// with storage_dir (std::invalid_argument otherwise).
    Pager* external_pager = nullptr;
  };

  explicit TprTree(const Options& options);

  /// Inserts a new object with its reported motion.
  void Insert(ObjectId id, const MotionState& state) override;

  /// Removes an object; returns false when it is not present.
  bool Delete(ObjectId id) override;

  /// Applies a full update event (delete old motion and/or insert new).
  void Apply(const UpdateEvent& update) override;

  /// Moves the tree's logical clock; heuristics optimize [now, now + H].
  void AdvanceTo(Tick now) override;
  Tick now() const { return now_; }

  /// All objects whose predicted position at tick `t` lies inside the
  /// closed rectangle `window`.
  std::vector<std::pair<ObjectId, MotionState>> RangeQuery(
      const Rect& window, Tick t) const override;

  /// The range query against an explicit (pool, root) pair: the traversal
  /// needs nothing else, so an MVCC snapshot query can run it over a
  /// frozen page view (src/pdr/mvcc/) with the exact instance-method code
  /// path.
  static std::vector<std::pair<ObjectId, MotionState>> RangeQueryFrom(
      BufferPool& pool, PageId root, const Rect& window, Tick t);

  /// The current root page (frozen into MVCC snapshot state at commit).
  PageId root() const { return root_; }

  /// Number of indexed objects.
  size_t size() const override { return leaf_of_.size(); }

  int height() const override { return height_; }

  size_t node_count() const override { return node_count_; }

  /// Cumulative buffer-pool statistics (reset with ResetIoStats).
  IoStats io_stats() const override { return pool_.stats(); }
  void ResetIoStats() override { pool_.ResetStats(); }

  /// Drops the whole buffer cache (cold-start measurement).
  void DropCaches() override { pool_.Clear(); }

  void FlushBufferPool() override { pool_.FlushAll(); }

  // Durability (ObjectIndex hooks): flushes the pool and checkpoints the
  // DiskPager with the tree's metadata (clock, root, height, node count,
  // object->leaf map) + `app_meta` as one atomic unit.
  bool durable() const override { return disk_ != nullptr; }
  void Checkpoint(const std::string& app_meta) override;
  bool recovered() const override;
  const std::string& recovered_app_meta() const override {
    return recovered_app_meta_;
  }

  /// The durable store behind the tree (null when in-memory).
  DiskPager* disk() const override { return disk_; }

  /// Structural self-check (containment of children in parent TPBRs over
  /// sampled ticks, entry counts, parent pointers, leaf map). Aborts via
  /// assert/exception on violation; heavy, intended for tests.
  void CheckInvariants();

  // On-page layout structs; defined in the .cc, incomplete for callers.
  struct LeafEntry;
  struct InternalEntry;
  struct NodeHeader;

 private:
  void InsertEntry(ObjectId id, const Tpbr& box, const MotionState& state);
  PageId ChooseLeaf(const Tpbr& box, std::vector<PageId>* path);
  void SplitLeaf(PageId leaf_id, ObjectId id, const MotionState& state,
                 const std::vector<PageId>& path);
  void SplitInternal(PageId node_id, const InternalEntry& extra,
                     std::vector<PageId> path);
  void InstallEntry(const InternalEntry& entry, std::vector<PageId> path);
  void RefreshParentEntry(PageId child_id);
  Tpbr NodeTpbr(PageId node_id);
  std::string SerializeMeta(const std::string& app_meta) const;
  void RestoreMeta(const std::string& blob);

  // Owned store; null over an external pager, so page traffic (Free
  // included) goes through pool_, which wraps whichever pager is in use.
  std::unique_ptr<Pager> pager_;
  DiskPager* disk_ = nullptr;  // pager_ downcast when durable, else null
  mutable BufferPool pool_;
  Options options_;
  Tick now_ = 0;
  PageId root_ = kInvalidPageId;
  int height_ = 1;
  size_t node_count_ = 0;
  std::unordered_map<ObjectId, PageId> leaf_of_;
  std::string recovered_app_meta_;
};

}  // namespace pdr

#endif  // PDR_TPR_TPR_TREE_H_
