// Multi-version block store: the copy-on-write substrate under MVCC
// snapshot reads (DESIGN.md §14).
//
// A VersionStore<Block> maps a dense integer key space (page ids,
// histogram rows) to per-key chains of immutable block versions, each
// tagged with the epoch that committed it. The write side
// is single-threaded (the update stream): at commit the writer copies
// every block it dirtied out of the live structure and Publishes the copy
// at the epoch being committed. Readers never touch live state — a query
// pinned at epoch E Resolves each key to the newest version with
// epoch <= E and sees a frozen, consistent image no matter how far the
// writer has advanced since.
//
// Memory is reclaimed by epoch, not by refcount. Chain links are plain
// raw atomic pointers — deliberately not std::atomic<std::shared_ptr>,
// whose libstdc++ implementation serializes every reader through a
// lock-bit CAS (and whose relaxed reader-side unlock TSan rightly flags
// as a data race against the writer's swap). The pin protocol makes
// refcounts redundant: a node is only dereferenced by readers whose pin
// can still reach it, so the writer frees nodes in two tiers —
//
//   * Chain tails cut below the reclaim point are deleted immediately:
//     a reader pinned at E >= min_pin stops its walk at the surviving
//     `keep` node (keep->epoch <= min_pin <= E) and never loads beyond
//     it, so nothing past the cut is reachable by any live or future
//     walk (the safety argument is spelled out in DESIGN.md §14,
//     "Reclamation safety").
//   * Nodes a concurrent reader may still *hold* — a head replaced by a
//     same-epoch republish, or a tombstone head dropped with its chain —
//     go to a writer-local graveyard stamped with the newest epoch
//     published so far. Every reader that could have loaded such a node
//     holds a pin <= that stamp, so the node is freed at the first
//     ReclaimBelow whose min_pin exceeds it.
//
// Concurrency contract:
//   Publish / ReclaimBelow — writer thread only.
//   Resolve / Has / counters — any thread, wait-free (acquire loads of
//   raw atomic pointers; chunk directory entries are written once and
//   only grow).
//
// The key directory is chunked so it can grow under concurrent readers
// without relocating anything a reader might hold: a fixed-size array of
// atomic chunk pointers, chunks allocated on demand by the writer.

#ifndef PDR_MVCC_VERSION_STORE_H_
#define PDR_MVCC_VERSION_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pdr {
namespace mvcc {

/// Commit epoch. Epoch 0 is "never committed"; the first committed epoch
/// is 1 (the genesis snapshot published when concurrent mode starts).
using Epoch = uint64_t;

/// What the SnapshotManager needs from every version store at commit:
/// cut chains below the reclaim floor and report version-count gauges.
class ReclaimableStore {
 public:
  virtual ~ReclaimableStore() = default;

  /// Drops every version made unreachable once all pins are >= min_pin.
  /// Writer thread only.
  virtual void ReclaimBelow(Epoch min_pin) = 0;

  /// Versions currently reachable from some chain head.
  virtual int64_t live_versions() const = 0;

  /// Versions dropped by reclamation over the store's lifetime.
  virtual int64_t retired_versions() const = 0;
};

template <typename Block>
class VersionStore : public ReclaimableStore {
 public:
  /// `max_keys` bounds the key space (publishing past it throws). The
  /// directory itself costs 8 bytes per kChunkSize keys up front; chunks
  /// materialize only for key ranges actually published.
  explicit VersionStore(size_t max_keys)
      : max_keys_(max_keys),
        chunks_((max_keys + kChunkSize - 1) / kChunkSize) {
    for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
  }

  ~VersionStore() override {
    for (auto& c : chunks_) {
      Chunk* chunk = c.load(std::memory_order_relaxed);
      if (chunk == nullptr) continue;
      for (auto& head : chunk->heads) {
        DeleteChain(head.load(std::memory_order_relaxed));
      }
      delete chunk;
    }
    for (const auto& entry : graveyard_) delete entry.second;
  }

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Publishes `block` as the version of `key` at `epoch` (writer only).
  /// Epochs must be published in non-decreasing order per key; publishing
  /// the same (key, epoch) twice replaces the earlier block (the commit
  /// path dedups dirty keys, so this is a belt-and-braces path, but it
  /// keeps "last write wins within an epoch" true). A null `block` is a
  /// tombstone: readers at or above `epoch` see the key as absent.
  void Publish(size_t key, Epoch epoch, std::shared_ptr<const Block> block) {
    auto& head = HeadFor(key, /*create=*/true);
    if (epoch > max_published_) max_published_ = epoch;
    const Version* old = head.load(std::memory_order_relaxed);
    Version* node = new Version();
    node->epoch = epoch;
    node->block = std::move(block);
    if (old != nullptr && old->epoch == epoch) {
      // Same-epoch republish: replace, keep the older tail. A reader
      // racing this store may already hold `old`, so it outlives every
      // pin that could have seen it via the graveyard.
      node->prev.store(old->prev.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      head.store(node, std::memory_order_release);
      Retire(old);
    } else {
      node->prev.store(old, std::memory_order_relaxed);
      head.store(node, std::memory_order_release);
      live_ += 1;
    }
  }

  /// True when `key` has any version chain (writer only; used to avoid
  /// publishing tombstones for keys no reader could ever have seen).
  bool Has(size_t key) const {
    const Chunk* chunk = ChunkFor(key);
    if (chunk == nullptr) return false;
    return chunk->heads[key % kChunkSize].load(std::memory_order_acquire) !=
           nullptr;
  }

  /// The version of `key` visible at `epoch`: the newest version with
  /// version.epoch <= epoch. Null when the key has no such version (never
  /// published that early, or tombstoned). Any thread.
  std::shared_ptr<const Block> Resolve(size_t key, Epoch epoch) const {
    const Chunk* chunk = ChunkFor(key);
    if (chunk == nullptr) return nullptr;
    const Version* v =
        chunk->heads[key % kChunkSize].load(std::memory_order_acquire);
    while (v != nullptr && v->epoch > epoch) {
      v = v->prev.load(std::memory_order_acquire);
    }
    return v == nullptr ? nullptr : v->block;
  }

  /// Cuts every chain below its newest version with epoch <= min_pin,
  /// drops chains whose surviving head is a tombstone at or below
  /// min_pin, and frees graveyard nodes no surviving pin can still hold.
  /// Writer thread only; safe against concurrent Resolve at pins >=
  /// min_pin (they stop at or above the cut point and never load beyond).
  void ReclaimBelow(Epoch min_pin) override {
    // Graveyard first: a node stamped `s` was last reachable by readers
    // pinned at or below `s`; min_pin > s means every such pin is gone.
    size_t kept = 0;
    for (auto& entry : graveyard_) {
      if (entry.first < min_pin) {
        delete entry.second;
      } else {
        graveyard_[kept++] = entry;
      }
    }
    graveyard_.resize(kept);

    const size_t limit = key_limit_;
    for (size_t key = 0; key < limit; ++key) {
      Chunk* chunk = MutableChunkFor(key);
      if (chunk == nullptr) {
        // Whole chunk never allocated: skip to its end.
        key += kChunkSize - 1 - key % kChunkSize;
        continue;
      }
      auto& head = chunk->heads[key % kChunkSize];
      const Version* h = head.load(std::memory_order_relaxed);
      if (h == nullptr) continue;
      // Walk to the newest version a reader pinned at min_pin resolves.
      const Version* keep = h;
      while (keep != nullptr && keep->epoch > min_pin) {
        keep = keep->prev.load(std::memory_order_relaxed);
      }
      if (keep == nullptr) continue;  // whole chain still pinned-reachable
      if (keep == h && keep->block == nullptr) {
        // The surviving version is a tombstone every reader agrees on:
        // the key is simply absent; drop the entire chain. A racing
        // reader may have loaded `h` just before the null store (it stops
        // there — h->epoch <= min_pin <= its pin — and reads h->block),
        // so `h` itself is graveyarded; its tail is unreachable from any
        // walk and freed now.
        head.store(nullptr, std::memory_order_release);
        const int64_t n = ChainLength(h);
        retired_ += n;
        live_ -= n;
        const Version* tail = h->prev.load(std::memory_order_relaxed);
        const_cast<Version*>(h)->prev.store(nullptr,
                                            std::memory_order_release);
        DeleteChain(tail);
        Retire(h);
        continue;
      }
      const Version* tail = keep->prev.load(std::memory_order_relaxed);
      if (tail != nullptr) {
        const int64_t cut = ChainLength(tail);
        // Readers at pins >= min_pin stop at `keep` (or earlier); nothing
        // can load keep->prev after this store, so the tail is freed
        // immediately.
        const_cast<Version*>(keep)->prev.store(nullptr,
                                               std::memory_order_release);
        DeleteChain(tail);
        retired_ += cut;
        live_ -= cut;
      }
    }
  }

  int64_t live_versions() const override {
    return live_.load(std::memory_order_relaxed);
  }
  int64_t retired_versions() const override {
    return retired_.load(std::memory_order_relaxed);
  }

  size_t max_keys() const { return max_keys_; }

 private:
  struct Version {
    Epoch epoch = 0;
    std::shared_ptr<const Block> block;  // null = tombstone
    // Atomic so reclamation's cut races cleanly with reader walks.
    std::atomic<const Version*> prev{nullptr};
  };

  static constexpr size_t kChunkSize = 1024;

  struct Chunk {
    std::atomic<const Version*> heads[kChunkSize];

    Chunk() {
      for (auto& h : heads) h.store(nullptr, std::memory_order_relaxed);
    }
  };

  static int64_t ChainLength(const Version* v) {
    int64_t n = 0;
    while (v != nullptr) {
      ++n;
      v = v->prev.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Frees a detached chain (writer or destructor only).
  static void DeleteChain(const Version* v) {
    while (v != nullptr) {
      const Version* prev = v->prev.load(std::memory_order_relaxed);
      delete v;
      v = prev;
    }
  }

  /// Defers freeing a node a concurrent reader may still hold. Any such
  /// reader's pin is <= max_published_ right now (pins are granted at the
  /// committed epoch, which never exceeds the newest published epoch), so
  /// the node is safe to free once min_pin passes that stamp.
  void Retire(const Version* node) {
    graveyard_.emplace_back(max_published_, node);
  }

  const Chunk* ChunkFor(size_t key) const {
    if (key >= max_keys_) return nullptr;
    return chunks_[key / kChunkSize].load(std::memory_order_acquire);
  }

  Chunk* MutableChunkFor(size_t key) {
    return chunks_[key / kChunkSize].load(std::memory_order_acquire);
  }

  std::atomic<const Version*>& HeadFor(size_t key, bool create) {
    if (key >= max_keys_) {
      throw std::out_of_range("VersionStore: key beyond max_keys");
    }
    auto& slot = chunks_[key / kChunkSize];
    Chunk* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr && create) {
      chunk = new Chunk();
      slot.store(chunk, std::memory_order_release);
    }
    if (key >= key_limit_) key_limit_ = key + 1;
    return chunk->heads[key % kChunkSize];
  }

  const size_t max_keys_;
  std::vector<std::atomic<Chunk*>> chunks_;
  size_t key_limit_ = 0;   // writer-only watermark for reclamation scans
  Epoch max_published_ = 0;  // writer-only; stamps graveyard entries
  // Nodes replaced or dropped while possibly still held by a racing
  // reader, stamped with max_published_ at retirement (writer-only).
  std::vector<std::pair<Epoch, const Version*>> graveyard_;
  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> retired_{0};
};

}  // namespace mvcc
}  // namespace pdr

#endif  // PDR_MVCC_VERSION_STORE_H_
