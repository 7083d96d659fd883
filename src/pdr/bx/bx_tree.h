// B^x-tree: B+-tree-based indexing of moving objects
// (Jensen, Lin, Ooi — VLDB 2004; the paper's reference [6]).
//
// Each object is mapped to a single 64-bit key:
//
//     key = (partition mod 8) << 48  |  Z(cell at label time) << 24  |  oid
//
// where the *partition* is the object's reference tick divided by the
// phase span (half the maximum update interval), the *label time* is the
// end of that partition, and Z is the Morton code of the object's
// predicted position at the label time on a 2^12 x 2^12 grid. Keys are
// unique because the object id is embedded (oid < 2^24).
//
// A range query at tick t visits every partition that can hold live
// entries, *enlarges* the query window per axis by the maximum observed
// speed times |t - label|, decomposes the enlarged window into Z-value
// intervals, range-scans the B+-tree, and filters candidates by their
// exact predicted position. Maximum speeds are tracked monotonically
// (a conservative stand-in for the original's velocity histogram).
//
// Implements ObjectIndex, so FrEngine can run its refinement step on
// either this or the TPR-tree (bench_ablation_index compares them).

#ifndef PDR_BX_BX_TREE_H_
#define PDR_BX_BX_TREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "pdr/bx/bplus_tree.h"
#include "pdr/bx/zcurve.h"
#include "pdr/index/object_index.h"
#include "pdr/storage/fault_injector.h"

namespace pdr {

class DiskPager;

class BxTree : public ObjectIndex {
 public:
  struct Options {
    size_t buffer_pages = 256;     ///< LRU buffer pool capacity
    double extent = 1000.0;        ///< domain edge
    Tick max_update_interval = 60; ///< U; the phase span is U/2
    int max_scan_intervals = 256;  ///< Z-decomposition budget per query
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

  explicit BxTree(const Options& options);

  void Insert(ObjectId id, const MotionState& state) override;
  bool Delete(ObjectId id) override;
  void Apply(const UpdateEvent& update) override;
  void AdvanceTo(Tick now) override;
  std::vector<std::pair<ObjectId, MotionState>> RangeQuery(
      const Rect& window, Tick t) const override;

  size_t size() const override { return tree_.size(); }
  size_t node_count() const override { return tree_.node_count(); }
  int height() const override { return tree_.height(); }
  IoStats io_stats() const override { return pool_.stats(); }
  void ResetIoStats() override { pool_.ResetStats(); }
  void DropCaches() override { pool_.Clear(); }

  Tick now() const { return now_; }
  Tick phase_span() const { return phase_span_; }
  BPlusTree& btree() { return tree_; }
  void FlushBufferPool() override { pool_.FlushAll(); }

  /// Everything the range-query traversal reads besides pages: the scalar
  /// state an MVCC commit freezes alongside the page versions, so a
  /// snapshot query can run RangeQueryFrom against a frozen pager view
  /// while the live tree keeps moving.
  struct ReadView {
    Tick now = 0;
    Tick phase_span = 1;
    Tick max_update_interval = 60;
    double extent = 1000.0;
    int max_scan_intervals = 256;
    double max_speed_x = 0.0;
    double max_speed_y = 0.0;
    PageId root = kInvalidPageId;
    uint64_t size = 0;
  };
  ReadView read_view() const {
    return {now_,          phase_span_,  options_.max_update_interval,
            options_.extent, options_.max_scan_intervals,
            max_speed_x_,  max_speed_y_, tree_.root(),
            static_cast<uint64_t>(tree_.size())};
  }

  /// The range query against an explicit (view, pool) pair — the exact
  /// instance-method traversal, decoupled from live state. `scanned_total`
  /// (optional) receives the records-visited tally.
  static std::vector<std::pair<ObjectId, MotionState>> RangeQueryFrom(
      const ReadView& view, BufferPool& pool, const Rect& window, Tick t,
      std::atomic<int64_t>* scanned_total = nullptr);

  // Durability (ObjectIndex hooks): flushes the pool and checkpoints the
  // DiskPager with the B^x metadata (clock, max speeds, object->key map,
  // B+-tree roots) + `app_meta` as one atomic unit.
  bool durable() const override { return disk_ != nullptr; }
  void Checkpoint(const std::string& app_meta) override;
  bool recovered() const override;
  const std::string& recovered_app_meta() const override {
    return recovered_app_meta_;
  }

  /// The durable store behind the tree (null when in-memory).
  DiskPager* disk() const override { return disk_; }

  /// Records visited by range scans since construction (the enlargement
  /// overhead: scanned minus returned candidates were false positives).
  int64_t scanned_records() const {
    return scanned_records_.load(std::memory_order_relaxed);
  }

  /// The key an object state maps to (exposed for tests).
  uint64_t KeyFor(ObjectId id, const MotionState& state) const;

 private:
  int64_t PartitionOf(Tick t_ref) const {
    return static_cast<int64_t>(t_ref) / phase_span_;
  }
  Tick LabelTime(int64_t partition) const {
    return static_cast<Tick>((partition + 1) * phase_span_);
  }
  uint32_t CellCoord(double v) const;
  static uint32_t CellCoordFor(double extent, double v);
  std::string SerializeMeta(const std::string& app_meta) const;
  void RestoreMeta(const std::string& blob);

  Options options_;
  Tick phase_span_;
  std::unique_ptr<Pager> pager_;
  DiskPager* disk_ = nullptr;  // pager_ downcast when durable, else null
  mutable BufferPool pool_;
  BPlusTree tree_;
  Tick now_ = 0;
  double max_speed_x_ = 0.0;  // monotone max |vx| over all inserts
  double max_speed_y_ = 0.0;
  // Key of each live object (deletes re-derive the record to remove; the
  // TPR-tree keeps the analogous object->leaf map).
  std::unordered_map<ObjectId, uint64_t> key_of_;
  // Concurrent const RangeQuery calls all bump the scan tally.
  mutable std::atomic<int64_t> scanned_records_{0};
  std::string recovered_app_meta_;
};

/// Bits per axis of the B^x cell grid (coarser than the full Z curve so
/// window decompositions stay small; candidates are filtered exactly).
inline constexpr int kBxZBits = 12;
inline constexpr uint32_t kBxMaxCell = (1u << kBxZBits) - 1;

}  // namespace pdr

#endif  // PDR_BX_BX_TREE_H_
