// Abstraction over moving-object indexes.
//
// The paper's refinement step needs one operation from its index:
// "retrieve all the objects located within S at timestamp q_t" (Section
// 5.3) — plus maintenance under the update stream. Section 4 notes that
// any of the predictive indexes for linear movement can be adopted; this
// library ships two:
//
//   * TprTree (pdr/tpr)   — time-parameterized R-tree (the paper's choice)
//   * BxTree  (pdr/bx)    — B+-tree over Z-order keys with query
//                           enlargement (Jensen et al., VLDB 2004)
//
// Both live on the same paged storage / LRU buffer pool, so their
// simulated I/O costs are directly comparable (bench_ablation_index).

#ifndef PDR_INDEX_OBJECT_INDEX_H_
#define PDR_INDEX_OBJECT_INDEX_H_

#include <string>
#include <utility>
#include <vector>

#include "pdr/common/geometry.h"
#include "pdr/mobility/object.h"
#include "pdr/storage/buffer_pool.h"

namespace pdr {

class DiskPager;

class ObjectIndex {
 public:
  virtual ~ObjectIndex() = default;

  /// Indexes a new object with its reported motion.
  virtual void Insert(ObjectId id, const MotionState& state) = 0;

  /// Removes an object; returns false when it is not present.
  virtual bool Delete(ObjectId id) = 0;

  /// Applies a full update event (delete old motion and/or insert new).
  virtual void Apply(const UpdateEvent& update) = 0;

  /// Moves the index's logical clock (heuristics / partition rotation).
  virtual void AdvanceTo(Tick now) = 0;

  /// All objects whose predicted position at tick `t` lies inside the
  /// closed rectangle `window`: exactly those with
  /// window.ContainsClosed(state.PositionAt(t)).
  virtual std::vector<std::pair<ObjectId, MotionState>> RangeQuery(
      const Rect& window, Tick t) const = 0;

  /// Number of indexed objects.
  virtual size_t size() const = 0;

  /// Pages currently allocated to index nodes.
  virtual size_t node_count() const = 0;

  /// Levels a root-to-leaf descent reads (1 = the root is a leaf).
  virtual int height() const = 0;

  /// Buffer-pool statistics (drive the simulated I/O charge).
  virtual IoStats io_stats() const = 0;
  virtual void ResetIoStats() = 0;

  /// Drops the buffer cache (cold-start measurements).
  virtual void DropCaches() = 0;

  /// Writes every dirty buffered page back to the underlying pager, so
  /// the pager holds the complete current tree image. The MVCC commit
  /// path calls this before publishing copy-on-write page versions
  /// (src/pdr/mvcc/versioned_pager.h). Default: nothing buffered.
  virtual void FlushBufferPool() {}

  // Durability hooks — implemented by indexes sitting on a DiskPager
  // (storage_dir set in their options); the defaults describe a
  // memory-only index.

  /// True when the index is backed by a durable (file-backed) store.
  virtual bool durable() const { return false; }

  /// Flushes the buffer pool and checkpoints the underlying store; the
  /// index's own metadata (root, clocks, object maps) and the caller's
  /// `app_meta` blob become durable atomically with the page images.
  /// No-op when not durable.
  virtual void Checkpoint(const std::string& app_meta) { (void)app_meta; }

  /// True when construction recovered pre-existing durable state.
  virtual bool recovered() const { return false; }

  /// The `app_meta` blob from the recovered checkpoint ("" when none).
  virtual const std::string& recovered_app_meta() const {
    static const std::string kEmpty;
    return kEmpty;
  }

  /// The durable store behind the index (stats inspection); null when the
  /// index is memory-only.
  virtual DiskPager* disk() const { return nullptr; }
};

}  // namespace pdr

#endif  // PDR_INDEX_OBJECT_INDEX_H_
