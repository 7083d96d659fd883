#include "pdr/mvcc/versioned_histogram.h"

#include <memory>

namespace pdr {
namespace mvcc {

VersionedHistogram::VersionedHistogram(DensityHistogram* live,
                                       SnapshotManager* manager)
    : live_(live),
      manager_(manager),
      m_(live->grid().cells_per_side()),
      slots_(live->slots()),
      versions_(static_cast<size_t>(slots_) * static_cast<size_t>(m_)) {
  manager_->RegisterStore(&versions_);
}

VersionedHistogram::~VersionedHistogram() {
  manager_->UnregisterStore(&versions_);
}

void VersionedHistogram::PublishDirty() {
  const Epoch epoch = manager_->open_epoch();
  live_->TakeDirtyRows(&scratch_keys_);
  for (const uint32_t key : scratch_keys_) {
    const int slot = static_cast<int>(key) / m_;
    const int row = static_cast<int>(key) % m_;
    const std::vector<DensityHistogram::Counter>& slice =
        live_->SlotSlice(slot);
    auto block = std::make_shared<Row>();
    block->tick = live_->slot_tick(slot);
    block->counts.assign(slice.begin() + static_cast<size_t>(row) * m_,
                         slice.begin() + static_cast<size_t>(row + 1) * m_);
    versions_.Publish(key, epoch, std::move(block));
  }
  scratch_keys_.clear();
}

std::vector<DensityHistogram::Counter> VersionedHistogram::MaterializeSlice(
    Epoch epoch, Tick q_t) const {
  std::vector<DensityHistogram::Counter> slice(
      static_cast<size_t>(m_) * static_cast<size_t>(m_), 0);
  const int slot = static_cast<int>(q_t % static_cast<Tick>(slots_));
  for (int row = 0; row < m_; ++row) {
    const auto block =
        versions_.Resolve(static_cast<size_t>(slot) * m_ + row, epoch);
    if (block == nullptr || block->tick != q_t) continue;  // zeros
    std::copy(block->counts.begin(), block->counts.end(),
              slice.begin() + static_cast<size_t>(row) * m_);
  }
  return slice;
}

}  // namespace mvcc
}  // namespace pdr
