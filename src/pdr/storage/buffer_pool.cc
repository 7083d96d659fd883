#include "pdr/storage/buffer_pool.h"

#include <cassert>
#include <mutex>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/registry.h"

namespace pdr {
namespace {

// Process-wide mirrors of the per-pool IoStats so cross-pool I/O pressure
// shows up in one place (pdr_tool stats, bench JSONL exports).
Counter& LogicalReadsCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("pdr.storage.logical_reads");
  return c;
}
Counter& PhysicalReadsCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("pdr.storage.physical_reads");
  return c;
}
Counter& WritebacksCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("pdr.storage.writebacks");
  return c;
}

// Cross-pool cache hit ratio (1 - physical/logical), refreshed on every
// fetch so the monitor report always sees the storage layer's current
// effectiveness without having to divide counters itself.
void UpdateHitRatioGauge() {
  if (!PdrObs::Enabled()) return;
  static Gauge& g = MetricsRegistry::Global().GetGauge("pdr.storage.hit_ratio");
  const int64_t logical = LogicalReadsCounter().value();
  if (logical <= 0) return;
  const int64_t physical = PhysicalReadsCounter().value();
  g.Set(1.0 - static_cast<double>(physical) / static_cast<double>(logical));
}

// Phase epochs are unique across all pools for the process lifetime, so a
// thread-local slot left over from a destroyed pool can never be mistaken
// for the current phase of a pool reusing the same address.
std::atomic<uint64_t> g_phase_epoch_source{0};

// One slot per pool a thread has touched during a read phase. Threads see
// few pools (typically one), so a flat scan beats a hash map.
struct ThreadIoSlot {
  const void* pool = nullptr;
  uint64_t epoch = 0;
  IoStats delta;
};
thread_local std::vector<ThreadIoSlot> t_io_slots;

IoStats* ThreadSlot(const void* pool, uint64_t epoch) {
  for (ThreadIoSlot& s : t_io_slots) {
    if (s.pool == pool) {
      if (s.epoch != epoch) {
        s.epoch = epoch;
        s.delta = IoStats{};
      }
      return &s.delta;
    }
  }
  t_io_slots.push_back(ThreadIoSlot{pool, epoch, IoStats{}});
  return &t_io_slots.back().delta;
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity_pages)
    : pager_(pager), capacity_(capacity_pages) {
  assert(capacity_pages >= 4 && "buffer pool too small to pin a tree path");
  frames_ = std::make_unique<Frame[]>(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) free_frames_.push_back(capacity_ - 1 - i);
}

BufferPool::~BufferPool() { FlushAll(); }

// ---------------------------------------------------------------------------
// PageRef

BufferPool::PageRef::PageRef(BufferPool* pool, size_t frame)
    : pool_(pool), frame_(frame) {}

BufferPool::PageRef::PageRef(PageRef&& o) noexcept
    : pool_(o.pool_), frame_(o.frame_) {
  o.pool_ = nullptr;
}

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    Reset();
    pool_ = o.pool_;
    frame_ = o.frame_;
    o.pool_ = nullptr;
  }
  return *this;
}

BufferPool::PageRef::~PageRef() { Reset(); }

Page& BufferPool::PageRef::operator*() const { return pool_->frames_[frame_].page; }
Page* BufferPool::PageRef::operator->() const { return &pool_->frames_[frame_].page; }
Page* BufferPool::PageRef::get() const {
  return pool_ ? &pool_->frames_[frame_].page : nullptr;
}
PageId BufferPool::PageRef::id() const { return pool_->frames_[frame_].id; }

void BufferPool::PageRef::MarkDirty() const {
  assert(!pool_->in_read_phase() && "write during a read-mostly phase");
  pool_->frames_[frame_].dirty = true;
}

void BufferPool::PageRef::Reset() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// BufferPool

void BufferPool::PinLocked(size_t frame) {
  Frame& f = frames_[frame];
  if (f.pins.load(std::memory_order_relaxed) == 0 && f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  f.pins.fetch_add(1, std::memory_order_acq_rel);
  f.last_access.store(access_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

void BufferPool::Unpin(size_t frame) {
  if (read_phase_.load(std::memory_order_acquire)) {
    // Lock-free: the frame stays out of the LRU ("loose") until
    // EndReadPhase re-links it; the evictor's loose-frame scan can still
    // reclaim it under the exclusive latch if the pool runs dry.
    Frame& f = frames_[frame];
    const int prev = f.pins.fetch_sub(1, std::memory_order_acq_rel);
    assert(prev > 0);
    (void)prev;
    return;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  Frame& f = frames_[frame];
  const int prev = f.pins.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  if (prev == 1 && !f.in_lru) {
    lru_.push_front(frame);
    f.lru_pos = lru_.begin();
    f.in_lru = true;
  }
}

void BufferPool::FlushFrameLocked(Frame& frame) {
  if (frame.dirty && frame.id != kInvalidPageId) {
    pager_->WritePage(frame.id, frame.page);
    frame.dirty = false;
    if (read_phase_.load(std::memory_order_relaxed)) {
      ThreadSlot(this, phase_epoch_.load(std::memory_order_relaxed))
          ->writebacks++;
      phase_writebacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++stats_.writebacks;
    }
    WritebacksCounter().Increment();
  }
}

size_t BufferPool::AcquireFrameLocked() {
  if (!free_frames_.empty()) {
    const size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  if (read_phase_.load(std::memory_order_relaxed)) {
    // The LRU list goes stale during a phase (hits bypass it), so evict
    // the unpinned frame with the oldest access stamp — true LRU under
    // one reader, approximate LRU under many. Evicting by the stale list
    // instead throws out the pages the phase is hammering (observed as a
    // ~3x physical-read blowup on cold-cache parallel queries).
    size_t victim = capacity_;
    uint64_t oldest = ~uint64_t{0};
    for (size_t i = 0; i < capacity_; ++i) {
      Frame& f = frames_[i];
      if (f.id == kInvalidPageId ||
          f.pins.load(std::memory_order_acquire) != 0) {
        continue;
      }
      const uint64_t stamp = f.last_access.load(std::memory_order_relaxed);
      if (stamp < oldest) {
        oldest = stamp;
        victim = i;
      }
    }
    if (victim < capacity_) {
      Frame& f = frames_[victim];
      if (f.in_lru) {
        lru_.erase(f.lru_pos);
        f.in_lru = false;
      }
      FlushFrameLocked(f);
      frame_of_.erase(f.id);
      f.id = kInvalidPageId;
      return victim;
    }
    assert(false && "buffer pool exhausted: all frames pinned");
    return 0;
  }
  // Serial mode: exact LRU. No frame in the list can be pinned (pinning
  // removes it), so the back is always the victim.
  assert(!lru_.empty() && "buffer pool exhausted: all frames pinned");
  const size_t victim = lru_.back();
  Frame& f = frames_[victim];
  lru_.pop_back();
  f.in_lru = false;
  FlushFrameLocked(f);
  frame_of_.erase(f.id);
  f.id = kInvalidPageId;
  return victim;
}

void BufferPool::CountRead(bool physical) {
  IoStats* slot = ThreadSlot(this, phase_epoch_.load(std::memory_order_relaxed));
  slot->logical_reads++;
  phase_logical_.fetch_add(1, std::memory_order_relaxed);
  LogicalReadsCounter().Increment();
  if (physical) {
    slot->physical_reads++;
    phase_physical_.fetch_add(1, std::memory_order_relaxed);
    PhysicalReadsCounter().Increment();
  }
  UpdateHitRatioGauge();
}

BufferPool::PageRef BufferPool::FetchMissLocked(PageId id) {
  // Re-check residency: another reader may have brought the page in
  // between our shared-lock probe and this exclusive acquisition.
  auto it = frame_of_.find(id);
  if (it != frame_of_.end()) {
    CountRead(/*physical=*/false);
    PinLocked(it->second);
    return PageRef(this, it->second);
  }
  CountRead(/*physical=*/true);
  FlightRecorder::Record(FrEvent::kPageFault, static_cast<int64_t>(id),
                         /*physical=*/1);
  const size_t frame = AcquireFrameLocked();
  Frame& f = frames_[frame];
  f.id = id;
  try {
    pager_->ReadPage(id, &f.page);
  } catch (...) {
    // Verified fill failed (e.g. CorruptionError): release the acquired
    // frame or it would leak — neither resident nor free — and the pool
    // would shrink by one frame per failed read.
    f.id = kInvalidPageId;
    free_frames_.push_back(frame);
    throw;
  }
  f.dirty = false;
  frame_of_[id] = frame;
  PinLocked(frame);
  return PageRef(this, frame);
}

BufferPool::PageRef BufferPool::Fetch(PageId id) {
  if (read_phase_.load(std::memory_order_acquire)) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = frame_of_.find(id);
      if (it != frame_of_.end()) {
        // Hit: atomic pin and access stamp, no LRU reorder — the stamp
        // (not the list) carries recency within a phase, which is what
        // lets hits share the latch.
        Frame& f = frames_[it->second];
        f.pins.fetch_add(1, std::memory_order_acq_rel);
        f.last_access.store(
            access_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        CountRead(/*physical=*/false);
        return PageRef(this, it->second);
      }
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    return FetchMissLocked(id);
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  ++stats_.logical_reads;
  LogicalReadsCounter().Increment();
  auto it = frame_of_.find(id);
  if (it != frame_of_.end()) {
    PinLocked(it->second);
    UpdateHitRatioGauge();
    return PageRef(this, it->second);
  }
  ++stats_.physical_reads;
  PhysicalReadsCounter().Increment();
  UpdateHitRatioGauge();
  FlightRecorder::Record(FrEvent::kPageFault, static_cast<int64_t>(id),
                         /*physical=*/1);
  const size_t frame = AcquireFrameLocked();
  Frame& f = frames_[frame];
  f.id = id;
  try {
    pager_->ReadPage(id, &f.page);
  } catch (...) {
    f.id = kInvalidPageId;  // see FetchMissLocked: don't leak the frame
    free_frames_.push_back(frame);
    throw;
  }
  f.dirty = false;
  frame_of_[id] = frame;
  PinLocked(frame);
  return PageRef(this, frame);
}

BufferPool::PageRef BufferPool::FetchMut(PageId id) {
  assert(!in_read_phase() && "FetchMut during a read-mostly phase");
  PageRef ref = Fetch(id);
  ref.MarkDirty();
  return ref;
}

BufferPool::PageRef BufferPool::Create(PageId* id_out) {
  assert(!in_read_phase() && "Create during a read-mostly phase");
  std::unique_lock<std::shared_mutex> lock(mu_);
  const PageId id = pager_->Allocate();
  if (id_out != nullptr) *id_out = id;
  const size_t frame = AcquireFrameLocked();
  Frame& f = frames_[frame];
  f.id = id;
  f.page = Page{};
  f.dirty = true;
  frame_of_[id] = frame;
  PinLocked(frame);
  return PageRef(this, frame);
}

void BufferPool::Discard(PageId id) {
  assert(!in_read_phase() && "Discard during a read-mostly phase");
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = frame_of_.find(id);
  if (it == frame_of_.end()) return;
  Frame& f = frames_[it->second];
  assert(f.pins.load(std::memory_order_relaxed) == 0 &&
         "discarding a pinned page");
  if (f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  f.id = kInvalidPageId;
  f.dirty = false;
  free_frames_.push_back(it->second);
  frame_of_.erase(it);
}

void BufferPool::Free(PageId id) {
  Discard(id);
  pager_->Free(id);
}

void BufferPool::FlushAll() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < capacity_; ++i) FlushFrameLocked(frames_[i]);
}

void BufferPool::Clear() {
  assert(!in_read_phase() && "Clear during a read-mostly phase");
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < capacity_; ++i) FlushFrameLocked(frames_[i]);
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& f = frames_[i];
    assert(f.pins.load(std::memory_order_relaxed) == 0 &&
           "clearing a pool with pinned pages");
    f.id = kInvalidPageId;
    f.in_lru = false;
  }
  lru_.clear();
  frame_of_.clear();
  free_frames_.clear();
  for (size_t i = 0; i < capacity_; ++i) free_frames_.push_back(capacity_ - 1 - i);
}

void BufferPool::BeginReadPhase() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  assert(!read_phase_.load(std::memory_order_relaxed) &&
         "read phases do not nest");
#ifndef NDEBUG
  for (size_t i = 0; i < capacity_; ++i) {
    assert(frames_[i].pins.load(std::memory_order_relaxed) == 0 &&
           "page pinned across BeginReadPhase");
  }
#endif
  phase_epoch_.store(g_phase_epoch_source.fetch_add(1) + 1,
                     std::memory_order_relaxed);
  phase_logical_.store(0, std::memory_order_relaxed);
  phase_physical_.store(0, std::memory_order_relaxed);
  phase_writebacks_.store(0, std::memory_order_relaxed);
  read_phase_.store(true, std::memory_order_release);
}

void BufferPool::EndReadPhase() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  assert(read_phase_.load(std::memory_order_relaxed));
  read_phase_.store(false, std::memory_order_release);
  stats_.logical_reads += phase_logical_.load(std::memory_order_relaxed);
  stats_.physical_reads += phase_physical_.load(std::memory_order_relaxed);
  stats_.writebacks += phase_writebacks_.load(std::memory_order_relaxed);
  phase_logical_.store(0, std::memory_order_relaxed);
  phase_physical_.store(0, std::memory_order_relaxed);
  phase_writebacks_.store(0, std::memory_order_relaxed);
  // Re-link frames unpinned during the phase in ascending frame order, so
  // the post-phase LRU state is a deterministic function of the phase's
  // result set, independent of thread interleaving.
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& f = frames_[i];
    assert(f.pins.load(std::memory_order_relaxed) == 0 &&
           "page still pinned at EndReadPhase");
    if (f.id != kInvalidPageId && !f.in_lru) {
      lru_.push_front(i);
      f.lru_pos = lru_.begin();
      f.in_lru = true;
    }
  }
}

IoStats BufferPool::TakeThreadIoDelta() {
  if (!read_phase_.load(std::memory_order_acquire)) return IoStats{};
  IoStats* slot = ThreadSlot(this, phase_epoch_.load(std::memory_order_relaxed));
  const IoStats out = *slot;
  *slot = IoStats{};
  return out;
}

IoStats BufferPool::PeekThreadIoDelta() const {
  if (!read_phase_.load(std::memory_order_acquire)) return IoStats{};
  return *ThreadSlot(this, phase_epoch_.load(std::memory_order_relaxed));
}

IoStats BufferPool::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  IoStats out = stats_;
  out.logical_reads += phase_logical_.load(std::memory_order_relaxed);
  out.physical_reads += phase_physical_.load(std::memory_order_relaxed);
  out.writebacks += phase_writebacks_.load(std::memory_order_relaxed);
  return out;
}

void BufferPool::ResetStats() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  assert(!read_phase_.load(std::memory_order_relaxed));
  stats_ = IoStats{};
}

size_t BufferPool::resident_pages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return frame_of_.size();
}

size_t BufferPool::dirty_pages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    if (frames_[i].id != kInvalidPageId && frames_[i].dirty) ++n;
  }
  return n;
}

}  // namespace pdr
