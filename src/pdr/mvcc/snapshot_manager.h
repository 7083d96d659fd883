// Epoch pinning and commit sequencing for MVCC snapshot reads.
//
// The SnapshotManager owns the epoch clock shared by the exact engine's
// versioned stores (index pages, histogram rows). The protocol
// (DESIGN.md §14), driven by FrEngine::Commit() on the writer side:
//
//   writer (one thread)              readers (any thread)
//   ----------------------------     -----------------------------
//   mutate live structures           snap = manager.Pin()
//   publish dirty copies at E+1        -> epoch E, frozen state
//   manager.Commit(state)   // E+1   read version chains at epoch E
//     bump committed epoch           snap destructor releases the pin
//     reclaim below min pin
//
// Pinning takes a mutex for bookkeeping only (a map increment, a state
// handle copy — microseconds); the data plane — every page and histogram
// row a query reads — goes through lock-free atomic version-chain loads.
// Writers therefore never wait on readers: commits proceed at full rate
// while arbitrarily slow queries hold arbitrarily old epochs, paying only
// the memory to keep those versions alive.
//
// Each commit carries the engine's scalar state frozen at that instant
// (clock, index root, read-path parameters) as one opaque shared_ptr, so
// this layer stays free of core/index dependencies.

#ifndef PDR_MVCC_SNAPSHOT_MANAGER_H_
#define PDR_MVCC_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "pdr/mvcc/version_store.h"

namespace pdr {
namespace mvcc {

class SnapshotManager;

/// A pinned epoch: movable RAII handle. While alive, every version
/// visible at its epoch stays resolvable; the destructor releases the
/// pin (unblocking reclamation of the epoch once it is the oldest).
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot() { Release(); }

  bool valid() const { return manager_ != nullptr; }
  Epoch epoch() const { return epoch_; }
  /// The scalar state frozen by the commit this snapshot pins; the
  /// snapshot query path casts it back to FrSnapshotState
  /// (core/fr_snapshot_state.h). Null once released, or when that commit
  /// published none.
  const void* state() const { return state_.get(); }

  /// Releases the pin early (idempotent).
  void Release();

 private:
  friend class SnapshotManager;
  Snapshot(SnapshotManager* manager, Epoch epoch,
           std::shared_ptr<const void> state)
      : manager_(manager), epoch_(epoch), state_(std::move(state)) {}

  SnapshotManager* manager_ = nullptr;
  Epoch epoch_ = 0;
  std::shared_ptr<const void> state_;
};

class SnapshotManager {
 public:
  SnapshotManager();
  ~SnapshotManager() = default;
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Registers a version store for commit-time reclamation (setup /
  /// writer thread; VersionedPager and VersionedHistogram register theirs
  /// on construction).
  void RegisterStore(ReclaimableStore* store);
  void UnregisterStore(ReclaimableStore* store);

  /// Last committed epoch (0 = nothing committed yet, pinning throws).
  Epoch committed_epoch() const {
    return committed_.load(std::memory_order_acquire);
  }

  /// The epoch the writer's in-flight mutations will commit as.
  Epoch open_epoch() const { return committed_epoch() + 1; }

  /// Oldest epoch any current pin may hold; versions below it are being
  /// (or have been) reclaimed.
  Epoch reclaim_floor() const {
    return floor_.load(std::memory_order_acquire);
  }

  /// Publishes `state` (the engine's frozen scalar state, opaque here) as
  /// epoch committed+1, bumps the committed epoch, then reclaims every
  /// version no surviving pin can reach. Single writer thread
  /// (FrEngine::Commit). Returns the epoch just committed.
  Epoch Commit(std::shared_ptr<const void> state);

  /// Pins the latest committed epoch. Any thread. Throws std::logic_error
  /// before the first Commit.
  Snapshot Pin();

  int64_t active_pins() const;

  /// Sum of live / retired version counts over all registered stores.
  int64_t live_versions() const;
  int64_t retired_versions() const;

 private:
  friend class Snapshot;
  void Unpin(Epoch epoch);

  // Guards pins_, states_, stores_ membership, and floor updates. Never
  // held while reading version chains.
  mutable std::mutex mu_;
  std::atomic<Epoch> committed_{0};
  std::atomic<Epoch> floor_{1};
  std::map<Epoch, int> pins_;
  // Epochs >= floor keep their frozen state.
  std::map<Epoch, std::shared_ptr<const void>> states_;
  std::vector<ReclaimableStore*> stores_;
};

}  // namespace mvcc
}  // namespace pdr

#endif  // PDR_MVCC_SNAPSHOT_MANAGER_H_
