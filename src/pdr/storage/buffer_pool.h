// LRU buffer pool with simulated I/O accounting.
//
// Every page access from the TPR-tree goes through Fetch(); a miss copies
// the page in from the Pager, evicting the least recently used unpinned
// frame (writing it back if dirty), and increments the physical-read
// counter that the query engines convert into the paper's 10 ms/IO charge.
//
// Every operation takes the pool's latch, so LRU order, eviction choice
// and counters are exactly those of the classic single-threaded pool; the
// latch only makes interleaved use from several threads safe.

#ifndef PDR_STORAGE_BUFFER_POOL_H_
#define PDR_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "pdr/common/stats.h"  // IoStats
#include "pdr/storage/pager.h"

namespace pdr {

class BufferPool {
 public:
  /// `capacity_pages` frames; at least the maximum number of concurrently
  /// pinned pages (a tree's root-to-leaf path) are required.
  BufferPool(Pager* pager, size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin on a buffered page. While alive the frame cannot be evicted.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(BufferPool* pool, size_t frame);
    PageRef(PageRef&& o) noexcept;
    PageRef& operator=(PageRef&& o) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef();

    Page& operator*() const;
    Page* operator->() const;
    Page* get() const;
    PageId id() const;
    explicit operator bool() const { return pool_ != nullptr; }

    /// Marks the page dirty so eviction writes it back.
    void MarkDirty() const;

    /// Releases the pin early.
    void Reset();

   private:
    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
  };

  /// Pins the page in the pool, reading it from the pager on a miss.
  PageRef Fetch(PageId id);

  /// Pins a page for writing (Fetch + MarkDirty).
  PageRef FetchMut(PageId id);

  /// Allocates a new page (via the pager) already pinned and dirty.
  /// Creation misses are not charged as reads.
  PageRef Create(PageId* id_out);

  /// Drops the page from the pool (e.g. after Pager::Free). Must be
  /// unpinned.
  void Discard(PageId id);

  /// Discards the page and frees it in the pool's pager — the one every
  /// page came from, whether the caller owns it or not.
  void Free(PageId id);

  /// Writes all dirty frames back to the pager.
  void FlushAll();

  /// Empties the pool (flushing dirty pages); next fetches are all misses.
  /// Used by benches to measure cold-cache query cost.
  void Clear();

  IoStats stats() const;
  void ResetStats();
  size_t capacity() const { return capacity_; }
  size_t resident_pages() const;

  /// Number of dirty resident frames — the dirty-page table a checkpoint
  /// drains with FlushAll().
  size_t dirty_pages() const;

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    Page page;
    int pins = 0;
    bool dirty = false;
    std::list<size_t>::iterator lru_pos;  // valid only when in_lru
    bool in_lru = false;
  };

  // All *Locked helpers require the latch.
  size_t AcquireFrameLocked();  // free or evicted frame index
  void PinLocked(size_t frame);
  void FlushFrameLocked(Frame& frame);

  void Unpin(size_t frame);

  Pager* pager_;
  size_t capacity_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = most recent, back = eviction victim
  std::unordered_map<PageId, size_t> frame_of_;
  IoStats stats_;

  mutable std::mutex mu_;

  friend class PageRef;
};

}  // namespace pdr

#endif  // PDR_STORAGE_BUFFER_POOL_H_
