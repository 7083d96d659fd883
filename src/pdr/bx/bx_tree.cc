#include "pdr/bx/bx_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "pdr/obs/obs.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/serde.h"

namespace pdr {
namespace {

constexpr uint64_t kOidBits = 24;
constexpr uint64_t kOidMask = (1ull << kOidBits) - 1;
constexpr uint64_t kZShift = kOidBits;              // z occupies bits 24..47
constexpr uint64_t kPartitionShift = kZShift + 24;  // partition bits 48..50
constexpr int64_t kPartitionSlots = 8;
constexpr uint32_t kBxMetaMagic = 0x4d585842u;  // "BXXM"

std::unique_ptr<Pager> MakeTreePager(const BxTree::Options& options) {
  if (options.external_pager != nullptr) {
    if (!options.storage_dir.empty()) {
      throw std::invalid_argument(
          "BxTree: external_pager and storage_dir are mutually exclusive");
    }
    return nullptr;  // caller-owned store
  }
  if (options.storage_dir.empty()) return std::make_unique<MemPager>();
  return std::make_unique<DiskPager>(options.storage_dir,
                                     options.fault_injector);
}

}  // namespace

BxTree::BxTree(const Options& options)
    : options_(options),
      phase_span_(std::max<Tick>(1, options.max_update_interval / 2)),
      pager_(MakeTreePager(options)),
      pool_(options.external_pager != nullptr ? options.external_pager
                                              : pager_.get(),
            options.buffer_pages),
      tree_(&pool_) {
  disk_ = dynamic_cast<DiskPager*>(pager_.get());
  if (disk_ != nullptr && disk_->recovered()) {
    RestoreMeta(disk_->recovered_meta());
  }
}

bool BxTree::recovered() const {
  return disk_ != nullptr && disk_->recovered();
}

std::string BxTree::SerializeMeta(const std::string& app_meta) const {
  std::string out;
  PutPod(&out, kBxMetaMagic);
  PutPod(&out, now_);
  PutPod(&out, max_speed_x_);
  PutPod(&out, max_speed_y_);
  PutPod(&out, scanned_records_.load(std::memory_order_relaxed));
  // Sorted by object id so the checkpoint bytes are a pure function of the
  // logical tree state, not of hash-map iteration order.
  std::vector<std::pair<ObjectId, uint64_t>> entries(key_of_.begin(),
                                                     key_of_.end());
  std::sort(entries.begin(), entries.end());
  PutPod(&out, static_cast<uint64_t>(entries.size()));
  for (const auto& [id, key] : entries) {
    PutPod(&out, id);
    PutPod(&out, key);
  }
  tree_.SerializeMeta(&out);
  PutBlob(&out, app_meta);
  return out;
}

void BxTree::RestoreMeta(const std::string& blob) {
  ByteReader reader(blob);
  if (reader.Get<uint32_t>() != kBxMetaMagic) {
    throw std::runtime_error(
        "recovered store does not hold a B^x-tree (index kind mismatch?)");
  }
  now_ = reader.Get<Tick>();
  max_speed_x_ = reader.Get<double>();
  max_speed_y_ = reader.Get<double>();
  scanned_records_.store(reader.Get<int64_t>(), std::memory_order_relaxed);
  const uint64_t objects = reader.Get<uint64_t>();
  key_of_.clear();
  key_of_.reserve(objects);
  for (uint64_t i = 0; i < objects; ++i) {
    const ObjectId id = reader.Get<ObjectId>();
    const uint64_t key = reader.Get<uint64_t>();
    key_of_.emplace(id, key);
  }
  tree_.RestoreMeta(&reader);
  recovered_app_meta_ = std::string(reader.GetBlob());
}

void BxTree::Checkpoint(const std::string& app_meta) {
  if (disk_ == nullptr) return;
  pool_.FlushAll();  // drain the dirty-page table into the store
  disk_->Checkpoint(SerializeMeta(app_meta));
}

uint32_t BxTree::CellCoord(double v) const {
  return CellCoordFor(options_.extent, v);
}

uint32_t BxTree::CellCoordFor(double extent, double v) {
  const double cell = extent / (1u << kBxZBits);
  const double clamped = Clamp(v, 0.0, extent);
  return std::min(kBxMaxCell,
                  static_cast<uint32_t>(std::floor(clamped / cell)));
}

uint64_t BxTree::KeyFor(ObjectId id, const MotionState& state) const {
  assert(id <= kOidMask && "object id exceeds the 24-bit key field");
  const int64_t partition = PartitionOf(state.t_ref);
  const Vec2 at_label = state.PositionAt(LabelTime(partition));
  const uint64_t z = ZEncode(CellCoord(at_label.x), CellCoord(at_label.y));
  return (static_cast<uint64_t>(partition % kPartitionSlots)
          << kPartitionShift) |
         (z << kZShift) | (static_cast<uint64_t>(id) & kOidMask);
}

void BxTree::Insert(ObjectId id, const MotionState& state) {
  assert(key_of_.find(id) == key_of_.end() && "duplicate insert");
  const uint64_t key = KeyFor(id, state);
  tree_.Insert(BPlusRecord::From(key, id, state));
  key_of_[id] = key;
  max_speed_x_ = std::max(max_speed_x_, std::fabs(state.vel.x));
  max_speed_y_ = std::max(max_speed_y_, std::fabs(state.vel.y));
}

bool BxTree::Delete(ObjectId id) {
  auto it = key_of_.find(id);
  if (it == key_of_.end()) return false;
  const bool removed = tree_.Delete(it->second);
  assert(removed && "key map out of sync with B+-tree");
  key_of_.erase(it);
  return removed;
}

void BxTree::Apply(const UpdateEvent& update) {
  if (update.old_state) {
    const bool removed = Delete(update.id);
    assert(removed && "update deletes an object that is not indexed");
    (void)removed;
  }
  if (update.new_state) Insert(update.id, *update.new_state);
}

void BxTree::AdvanceTo(Tick now) {
  assert(now >= now_);
  now_ = now;
}

std::vector<std::pair<ObjectId, MotionState>> BxTree::RangeQuery(
    const Rect& window, Tick t) const {
  return RangeQueryFrom(read_view(), pool_, window, t, &scanned_records_);
}

std::vector<std::pair<ObjectId, MotionState>> BxTree::RangeQueryFrom(
    const ReadView& view, BufferPool& pool, const Rect& window, Tick t,
    std::atomic<int64_t>* scanned_total) {
  int64_t scanned = 0;  // local tally, folded into the atomic once at exit
  static Counter& queries =
      MetricsRegistry::Global().GetCounter("pdr.bx.range_queries");
  static Counter& scanned_counter =
      MetricsRegistry::Global().GetCounter("pdr.bx.scanned_records");
  queries.Increment();

  const auto partition_of = [&view](Tick t_ref) {
    return static_cast<int64_t>(t_ref) / view.phase_span;
  };

  std::vector<std::pair<ObjectId, MotionState>> out;
  if (view.size == 0) return out;

  // Partitions that can hold live entries: reference ticks in
  // [now - U, now].
  const int64_t p_lo =
      partition_of(std::max<Tick>(0, view.now - view.max_update_interval));
  const int64_t p_hi = partition_of(view.now);

  for (int64_t partition = p_lo; partition <= p_hi; ++partition) {
    const Tick label = static_cast<Tick>((partition + 1) * view.phase_span);
    // Enlarge the query window back (or forward) to the label time using
    // the maximum observed speeds, then clamp to the domain: every object
    // whose position at t is in `window` has its label-time position in
    // the enlarged window (see DESIGN.md for the clamping argument).
    const double dt = std::fabs(static_cast<double>(t) - label);
    const Rect enlarged(window.x_lo - view.max_speed_x * dt,
                        window.y_lo - view.max_speed_y * dt,
                        window.x_hi + view.max_speed_x * dt,
                        window.y_hi + view.max_speed_y * dt);
    // CellCoord clamps into the domain monotonically, so the cell range
    // below covers the clamped label position of every candidate — even
    // objects whose predicted positions leave the domain.
    const uint32_t cx_lo = CellCoordFor(view.extent, enlarged.x_lo);
    const uint32_t cy_lo = CellCoordFor(view.extent, enlarged.y_lo);
    const uint32_t cx_hi = CellCoordFor(view.extent, enlarged.x_hi);
    const uint32_t cy_hi = CellCoordFor(view.extent, enlarged.y_hi);

    const uint64_t partition_bits =
        static_cast<uint64_t>(partition % kPartitionSlots) << kPartitionShift;
    for (const ZInterval& iv :
         ZDecomposeWindow(cx_lo, cy_lo, cx_hi, cy_hi,
                          view.max_scan_intervals)) {
      const uint64_t lo = partition_bits | (iv.lo << kZShift);
      const uint64_t hi = partition_bits | (iv.hi << kZShift) | kOidMask;
      BPlusTree::ScanRangeFrom(
          pool, view.root, lo, hi, [&](const BPlusRecord& record) {
            ++scanned;
            // Entries from other (old) partitions cannot appear: partition
            // bits differ for all live generations. Filter exactly.
            const MotionState state = record.ToState();
            if (partition_of(state.t_ref) == partition &&
                window.ContainsClosed(state.PositionAt(t))) {
              out.emplace_back(record.oid, state);
            }
            return true;
          });
    }
  }
  if (scanned_total != nullptr) {
    scanned_total->fetch_add(scanned, std::memory_order_relaxed);
  }
  scanned_counter.Add(scanned);
  return out;
}

}  // namespace pdr
