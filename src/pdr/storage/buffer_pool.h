// LRU buffer pool with simulated I/O accounting.
//
// Every page access from the TPR-tree goes through Fetch(); a miss copies
// the page in from the Pager, evicting the least recently used unpinned
// frame (writing it back if dirty), and increments the physical-read
// counter that the query engines convert into the paper's 10 ms/IO charge.
//
// Concurrency model (two modes, switched by the query engines):
//
//   * Default: every operation takes the pool's latch exclusively. Behavior
//     (LRU order, eviction choice, counters) is exactly the classic
//     single-threaded pool; the latch only makes interleaved use from
//     multiple threads safe.
//   * Read-mostly phase (BeginReadPhase/EndReadPhase): used while a query
//     stage fans read-only lookups out across a thread pool. Hits on
//     resident pages take the latch *shared* — they pin via an atomic
//     count and skip the LRU-recency update (recency is unspecified within
//     a phase) — so concurrent readers proceed without serializing. Misses
//     upgrade to the exclusive latch; eviction skips pinned frames. Frames
//     unpinned during the phase are re-linked into the LRU when the phase
//     ends. Because the LRU list goes stale while hits bypass it, every
//     access also stamps its frame with a relaxed logical clock, and
//     in-phase eviction picks the unpinned frame with the oldest stamp —
//     approximate LRU without a shared list. Mutating calls
//     (FetchMut/Create/Discard/Clear) are forbidden inside a phase. Every
//     ref pinned during a phase must be released before EndReadPhase
//     (fork/join stages guarantee this).
//
// I/O accounting during a read-mostly phase is kept per thread: each
// thread accumulates its reads into a thread-local delta
// (TakeThreadIoDelta) so parallel per-cell work can attribute I/O without
// contending on shared counters; the pool-wide totals fold the phase's
// counts back in, so stats() is consistent in both modes.

#ifndef PDR_STORAGE_BUFFER_POOL_H_
#define PDR_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "pdr/common/stats.h"  // IoStats
#include "pdr/storage/pager.h"

namespace pdr {

class BufferPool {
 public:
  /// `capacity_pages` frames; at least the maximum number of concurrently
  /// pinned pages (tree root-to-leaf path times concurrent readers) are
  /// required.
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

  /// Enters/leaves the read-mostly concurrent phase (see file comment).
  void BeginReadPhase();
  void EndReadPhase();
  bool in_read_phase() const {
    return read_phase_.load(std::memory_order_acquire);
  }

  /// The calling thread's I/O accumulated during the current read-mostly
  /// phase since the last call (zeroed on return). Zero outside a phase.
  IoStats TakeThreadIoDelta();

  /// Same as TakeThreadIoDelta but without zeroing — for nested
  /// instrumentation (per-range-query spans) that must not consume the
  /// delta the enclosing per-cell span will take.
  IoStats PeekThreadIoDelta() const;

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
    std::atomic<int> pins{0};
    // Logical access clock, bumped on every pin. The in-phase evictor
    // selects its victim by oldest stamp (the LRU list is stale during a
    // phase: shared-lock hits cannot reorder it).
    std::atomic<uint64_t> last_access{0};
    bool dirty = false;
    std::list<size_t>::iterator lru_pos;  // valid only when in_lru
    bool in_lru = false;
  };

  // All *Locked helpers require the exclusive latch.
  size_t AcquireFrameLocked();  // free or evicted frame index
  void PinLocked(size_t frame);
  void FlushFrameLocked(Frame& frame);
  PageRef FetchMissLocked(PageId id);
  void CountRead(bool physical);  // phase accounting (slot + pool atomics)

  void Unpin(size_t frame);

  Pager* pager_;
  size_t capacity_;
  // Frames hold an atomic pin count, so they live in a fixed array rather
  // than a vector (atomics are not movable).
  std::unique_ptr<Frame[]> frames_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = most recent, back = eviction victim
  std::unordered_map<PageId, size_t> frame_of_;
  IoStats stats_;

  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> access_clock_{0};
  std::atomic<bool> read_phase_{false};
  std::atomic<uint64_t> phase_epoch_{0};  // globally unique per phase
  std::atomic<int64_t> phase_logical_{0};
  std::atomic<int64_t> phase_physical_{0};
  std::atomic<int64_t> phase_writebacks_{0};

  friend class PageRef;
};

}  // namespace pdr

#endif  // PDR_STORAGE_BUFFER_POOL_H_
