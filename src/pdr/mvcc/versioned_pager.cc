#include "pdr/mvcc/versioned_pager.h"

#include <stdexcept>

#include "pdr/storage/page_format.h"

namespace pdr {
namespace mvcc {
namespace {

// Generous page-id ceiling for version chains: 4M pages = 16 GiB of
// 4 KiB pages, far past any in-memory index this engine hosts. The
// directory for it costs 32 KiB; chunks materialize on demand.
constexpr size_t kMaxVersionedPages = size_t{1} << 22;

}  // namespace

VersionedPager::VersionedPager(SnapshotManager* manager)
    : manager_(manager), versions_(kMaxVersionedPages) {
  if (manager_ != nullptr) manager_->RegisterStore(&versions_);
}

VersionedPager::~VersionedPager() {
  if (manager_ != nullptr) manager_->UnregisterStore(&versions_);
}

void VersionedPager::Free(PageId id) {
  mem_.Free(id);
  freed_.insert(id);
}

void VersionedPager::WritePage(PageId id, const Page& page) {
  mem_.WritePage(id, page);
  // A freed id that gets re-allocated and re-written within the same
  // epoch is live again: its content, not a tombstone, must publish.
  freed_.erase(id);
  if (dirty_set_.size() <= id) dirty_set_.resize(id + 1, 0);
  if (!dirty_set_[id]) {
    dirty_set_[id] = 1;
    dirty_.push_back(id);
  }
}

void VersionedPager::PublishDirty() {
  const Epoch epoch = manager_->open_epoch();
  for (const PageId id : dirty_) {
    dirty_set_[id] = 0;
    if (freed_.count(id) != 0) continue;  // freed after the write: tombstone
    auto version = std::make_shared<VersionedPage>();
    version->page = mem_.PageAt(id);
    version->epoch = epoch;
    version->checksum = ComputePageChecksum(version->page, id, epoch);
    versions_.Publish(id, epoch, std::move(version));
  }
  dirty_.clear();
  for (const PageId id : freed_) {
    // Tombstone only pages some earlier epoch published; a page born and
    // freed between commits was never visible to any reader.
    if (versions_.Has(id)) versions_.Publish(id, epoch, nullptr);
  }
  freed_.clear();
}

void SnapshotPager::ReadPage(PageId id, Page* out) const {
  const std::shared_ptr<const VersionedPage> version =
      source_->ResolvePage(id, epoch_);
  if (version == nullptr) {
    throw std::logic_error(
        "SnapshotPager: page has no version at the pinned epoch");
  }
  // Re-verify the checksum stamped at publish: a version damaged while
  // parked in the chain has no redundant copy (the live store has moved
  // on), so detection — not self-healing — is the contract here.
  const uint64_t actual = ComputePageChecksum(version->page, id,
                                              version->epoch);
  if (actual != version->checksum) {
    ThrowCorruption("mvcc:version-chain", id, version->epoch,
                    version->checksum, actual);
  }
  *out = version->page;
}

PageId SnapshotPager::Allocate() {
  throw std::logic_error("SnapshotPager is read-only: Allocate");
}

void SnapshotPager::Free(PageId) {
  throw std::logic_error("SnapshotPager is read-only: Free");
}

void SnapshotPager::WritePage(PageId, const Page&) {
  throw std::logic_error("SnapshotPager is read-only: WritePage");
}

}  // namespace mvcc
}  // namespace pdr
