// Paged B+-tree with unique 64-bit keys and moving-object payloads.
//
// The B^x-tree's backing structure: leaves hold (key, object id, reported
// motion) records sorted by key and are chained for range scans; internal
// nodes hold (minimum key of subtree, child page) fences. Nodes live on
// 4 KB pages behind the shared LRU BufferPool so every access is charged
// like the TPR-tree's.
//
// Simplifications, documented: deletions never merge or rebalance nodes —
// a leaf that empties stays linked and keeps routing its key range, so
// later inserts in that range refill it (the B^x workload deletes and
// reinserts continuously, which keeps occupancy healthy); keys are unique
// by construction (the B^x key embeds the object id).

#ifndef PDR_BX_BPLUS_TREE_H_
#define PDR_BX_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pdr/mobility/object.h"
#include "pdr/storage/buffer_pool.h"
#include "pdr/storage/pager.h"
#include "pdr/storage/serde.h"

namespace pdr {

/// One indexed record.
struct BPlusRecord {
  uint64_t key = 0;
  double x = 0, y = 0, vx = 0, vy = 0;
  Tick t_ref = 0;
  ObjectId oid = 0;

  MotionState ToState() const { return {{x, y}, {vx, vy}, t_ref}; }
  static BPlusRecord From(uint64_t key, ObjectId oid,
                          const MotionState& s) {
    return {key, s.pos.x, s.pos.y, s.vel.x, s.vel.y, s.t_ref, oid};
  }
};

class BPlusTree {
 public:
  /// The tree does not own the pool; the B^x-tree shares one pool across
  /// its structures.
  explicit BPlusTree(BufferPool* pool);

  /// Inserts a record; `record.key` must not already be present.
  void Insert(const BPlusRecord& record);

  /// Removes the record with `key`; returns false when absent.
  bool Delete(uint64_t key);

  /// Looks up one key; returns false when absent.
  bool Find(uint64_t key, BPlusRecord* out);

  /// Visits every record with lo <= key <= hi in key order. The visitor
  /// returns false to stop early. Read-only.
  void ScanRange(uint64_t lo, uint64_t hi,
                 const std::function<bool(const BPlusRecord&)>& visit) const;

  /// ScanRange against an explicit (pool, root) pair: the traversal needs
  /// nothing else, so an MVCC snapshot query can run it over a frozen
  /// page view (src/pdr/mvcc/) with the exact instance-method code path.
  static void ScanRangeFrom(
      BufferPool& pool, PageId root, uint64_t lo, uint64_t hi,
      const std::function<bool(const BPlusRecord&)>& visit);

  PageId root() const { return root_; }

  size_t size() const { return size_; }
  size_t node_count() const { return node_count_; }
  int height() const { return height_; }

  /// Structural self-check (sorted keys, fence correctness, leaf chain,
  /// record count); throws std::logic_error on violation. For tests.
  void CheckInvariants();

  /// Durability: the tree's off-page state (roots, height, counts) —
  /// appended to / restored from a checkpoint metadata byte string. The
  /// pages themselves persist through the shared pool's pager.
  void SerializeMeta(std::string* out) const;
  void RestoreMeta(ByteReader* reader);

  // On-page layout structs; defined in the .cc, incomplete for callers.
  struct NodeHeader;
  struct InternalEntry;

 private:
  /// Descends to the leaf whose range covers `key`, collecting the path
  /// of internal pages when `path` is non-null.
  PageId FindLeaf(uint64_t key, std::vector<PageId>* path) const;
  static PageId FindLeafFrom(BufferPool& pool, PageId root, uint64_t key,
                             std::vector<PageId>* path);

  void InsertIntoParent(std::vector<PageId> path, uint64_t key,
                        PageId child);

  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  PageId first_leaf_ = kInvalidPageId;
  int height_ = 1;
  size_t size_ = 0;
  size_t node_count_ = 0;
};

}  // namespace pdr

#endif  // PDR_BX_BPLUS_TREE_H_
