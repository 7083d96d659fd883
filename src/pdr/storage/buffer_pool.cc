#include "pdr/storage/buffer_pool.h"

#include <cassert>

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

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity_pages)
    : pager_(pager), capacity_(capacity_pages) {
  assert(capacity_pages >= 4 && "buffer pool too small to pin a tree path");
  frames_.resize(capacity_);
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
  if (f.pins == 0 && f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  ++f.pins;
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  assert(f.pins > 0);
  if (--f.pins == 0 && !f.in_lru) {
    lru_.push_front(frame);
    f.lru_pos = lru_.begin();
    f.in_lru = true;
  }
}

void BufferPool::FlushFrameLocked(Frame& frame) {
  if (frame.dirty && frame.id != kInvalidPageId) {
    pager_->WritePage(frame.id, frame.page);
    frame.dirty = false;
    ++stats_.writebacks;
    WritebacksCounter().Increment();
  }
}

size_t BufferPool::AcquireFrameLocked() {
  if (!free_frames_.empty()) {
    const size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Exact LRU. No frame in the list can be pinned (pinning removes it), so
  // the back is always the victim.
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

BufferPool::PageRef BufferPool::Fetch(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
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

BufferPool::PageRef BufferPool::FetchMut(PageId id) {
  PageRef ref = Fetch(id);
  ref.MarkDirty();
  return ref;
}

BufferPool::PageRef BufferPool::Create(PageId* id_out) {
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frame_of_.find(id);
  if (it == frame_of_.end()) return;
  Frame& f = frames_[it->second];
  assert(f.pins == 0 && "discarding a pinned page");
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
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < capacity_; ++i) FlushFrameLocked(frames_[i]);
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < capacity_; ++i) FlushFrameLocked(frames_[i]);
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& f = frames_[i];
    assert(f.pins == 0 && "clearing a pool with pinned pages");
    f.id = kInvalidPageId;
    f.in_lru = false;
  }
  lru_.clear();
  frame_of_.clear();
  free_frames_.clear();
  for (size_t i = 0; i < capacity_; ++i) free_frames_.push_back(capacity_ - 1 - i);
}

IoStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = IoStats{};
}

size_t BufferPool::resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frame_of_.size();
}

size_t BufferPool::dirty_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    if (frames_[i].id != kInvalidPageId && frames_[i].dirty) ++n;
  }
  return n;
}

}  // namespace pdr
