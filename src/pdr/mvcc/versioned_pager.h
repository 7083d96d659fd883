// Copy-on-write versioned pager: the MVCC seam under the index trees.
//
// VersionedPager is the writer's live pager — a plain MemPager with dirty
// tracking bolted onto WritePage/Free. The index trees mutate it freely
// mid-epoch (splits, merges, in-place entry updates); nothing is copied
// on the write path. At commit, PublishDirty() copies each page dirtied
// this epoch out of the live store into an immutable version tagged with
// the epoch being committed, and publishes tombstones for pages freed
// this epoch. Readers never see the live MemPager at all.
//
// SnapshotPager is the matching read view: a Pager whose ReadPage
// resolves the version chain at a pinned epoch. A snapshot query wraps
// one in a private BufferPool and runs the regular tree traversal code
// against it — the trees stay MVCC-oblivious; only the pager under them
// changes.

#ifndef PDR_MVCC_VERSIONED_PAGER_H_
#define PDR_MVCC_VERSIONED_PAGER_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/version_store.h"
#include "pdr/storage/pager.h"

namespace pdr {
namespace mvcc {

/// An immutable published page version plus the integrity checksum
/// computed when it was published (page bytes bound to page id and the
/// publishing epoch — same binding as the on-disk trailer, with the
/// epoch standing in for the LSN). Snapshot reads re-verify it, so a
/// version damaged while parked in the chain (RAM rot under long-lived
/// snapshots) is detected instead of served.
struct VersionedPage {
  Page page;
  Epoch epoch = 0;        ///< epoch the version was published at
  uint64_t checksum = 0;  ///< ComputePageChecksum(page, id, epoch)
};

class VersionedPager : public Pager {
 public:
  /// Registers its version store with `manager` (not owned) for
  /// commit-time reclamation.
  explicit VersionedPager(SnapshotManager* manager);
  ~VersionedPager() override;

  // Pager — the writer's live view. Writer thread only.
  PageId Allocate() override { return mem_.Allocate(); }
  void Free(PageId id) override;
  void ReadPage(PageId id, Page* out) const override {
    mem_.ReadPage(id, out);
  }
  void WritePage(PageId id, const Page& page) override;
  size_t allocated_pages() const override { return mem_.allocated_pages(); }
  size_t live_pages() const override { return mem_.live_pages(); }

  /// Copies every page dirtied since the last publish into the version
  /// store at the open epoch, and tombstones pages freed since then.
  /// Writer thread only; call (after flushing the tree's buffer pool)
  /// immediately before SnapshotManager::Commit.
  void PublishDirty();

  /// The version of `id` visible at `epoch` (any thread; null when the
  /// page has no version at or below the epoch).
  std::shared_ptr<const VersionedPage> ResolvePage(PageId id,
                                                   Epoch epoch) const {
    return versions_.Resolve(id, epoch);
  }

 private:
  SnapshotManager* manager_;
  MemPager mem_;
  VersionStore<VersionedPage> versions_;
  std::vector<PageId> dirty_;       // insertion order, deduped via dirty_set_
  std::vector<uint8_t> dirty_set_;  // indexed by PageId
  std::unordered_set<PageId> freed_;
};

/// Read-only Pager over the versions visible at one pinned epoch. Each
/// snapshot query constructs its own (plus a private BufferPool), so
/// concurrent readers share nothing mutable but the version chains.
class SnapshotPager : public Pager {
 public:
  SnapshotPager(const VersionedPager* source, Epoch epoch)
      : source_(source), epoch_(epoch) {}

  void ReadPage(PageId id, Page* out) const override;

  // A snapshot is immutable: the tree read paths never call these.
  PageId Allocate() override;
  void Free(PageId id) override;
  void WritePage(PageId id, const Page& page) override;
  size_t allocated_pages() const override { return 0; }
  size_t live_pages() const override { return 0; }

 private:
  const VersionedPager* source_;
  Epoch epoch_;
};

}  // namespace mvcc
}  // namespace pdr

#endif  // PDR_MVCC_VERSIONED_PAGER_H_
