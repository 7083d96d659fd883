#include "pdr/mvcc/snapshot_manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "pdr/obs/registry.h"

namespace pdr {
namespace mvcc {
namespace {

struct MvccMetrics {
  Counter* commits;
  Counter* pins;
  Gauge* committed_epoch;
  Gauge* active_pins;
  Gauge* reclaim_floor;
  Gauge* live_versions;
  Gauge* retired_versions;

  static MvccMetrics& Get() {
    static MvccMetrics m{
        &MetricsRegistry::Global().GetCounter("pdr.mvcc.commits"),
        &MetricsRegistry::Global().GetCounter("pdr.mvcc.pins"),
        &MetricsRegistry::Global().GetGauge("pdr.mvcc.committed_epoch"),
        &MetricsRegistry::Global().GetGauge("pdr.mvcc.active_pins"),
        &MetricsRegistry::Global().GetGauge("pdr.mvcc.reclaim_floor"),
        &MetricsRegistry::Global().GetGauge("pdr.mvcc.live_versions"),
        &MetricsRegistry::Global().GetGauge("pdr.mvcc.retired_versions"),
    };
    return m;
  }
};

}  // namespace

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    epoch_ = other.epoch_;
    state_ = std::move(other.state_);
    other.manager_ = nullptr;
    other.epoch_ = 0;
    other.state_ = nullptr;
  }
  return *this;
}

void Snapshot::Release() {
  if (manager_ != nullptr) {
    manager_->Unpin(epoch_);
    manager_ = nullptr;
    state_ = nullptr;
  }
}

SnapshotManager::SnapshotManager() = default;

void SnapshotManager::RegisterStore(ReclaimableStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  stores_.push_back(store);
}

void SnapshotManager::UnregisterStore(ReclaimableStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  stores_.erase(std::remove(stores_.begin(), stores_.end(), store),
                stores_.end());
}

Epoch SnapshotManager::Commit(std::shared_ptr<const void> state) {
  Epoch committed = 0;
  Epoch min_pin = 0;
  std::vector<ReclaimableStore*> stores;
  {
    std::lock_guard<std::mutex> lock(mu_);
    committed = committed_.load(std::memory_order_relaxed) + 1;
    states_[committed] = std::move(state);
    committed_.store(committed, std::memory_order_release);
    min_pin = pins_.empty() ? committed
                            : std::min(pins_.begin()->first, committed);
    floor_.store(min_pin, std::memory_order_release);
    states_.erase(states_.begin(), states_.lower_bound(min_pin));
    stores = stores_;
  }
  // Reclaim outside the mutex: chain cuts race only with reader Resolve
  // walks, which the cut-point argument (DESIGN.md §14.3) makes safe. Any
  // pin taken meanwhile holds an epoch >= committed >= min_pin.
  for (ReclaimableStore* s : stores) s->ReclaimBelow(min_pin);

  auto& m = MvccMetrics::Get();
  m.commits->Increment();
  m.committed_epoch->Set(static_cast<double>(committed));
  m.reclaim_floor->Set(static_cast<double>(min_pin));
  m.live_versions->Set(static_cast<double>(live_versions()));
  m.retired_versions->Set(static_cast<double>(retired_versions()));
  return committed;
}

Snapshot SnapshotManager::Pin() {
  std::unique_lock<std::mutex> lock(mu_);
  const Epoch epoch = committed_.load(std::memory_order_relaxed);
  if (epoch == 0) {
    throw std::logic_error(
        "SnapshotManager::Pin: no committed epoch (call Commit first)");
  }
  ++pins_[epoch];
  std::shared_ptr<const void> state = states_.at(epoch);
  const auto active = static_cast<double>(pins_.size());
  lock.unlock();

  auto& m = MvccMetrics::Get();
  m.pins->Increment();
  m.active_pins->Set(active);
  return Snapshot(this, epoch, std::move(state));
}

void SnapshotManager::Unpin(Epoch epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(epoch);
  if (it != pins_.end() && --it->second == 0) pins_.erase(it);
  MvccMetrics::Get().active_pins->Set(static_cast<double>(pins_.size()));
}

int64_t SnapshotManager::active_pins() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [epoch, count] : pins_) n += count;
  return n;
}

int64_t SnapshotManager::live_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const ReclaimableStore* s : stores_) n += s->live_versions();
  return n;
}

int64_t SnapshotManager::retired_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const ReclaimableStore* s : stores_) n += s->retired_versions();
  return n;
}

}  // namespace mvcc
}  // namespace pdr
