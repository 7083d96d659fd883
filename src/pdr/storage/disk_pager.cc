#include "pdr/storage/disk_pager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/registry.h"
#include "pdr/storage/page_format.h"

namespace pdr {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

DiskPager::DiskPager(const std::string& dir, FaultInjector* injector)
    : dir_(dir), injector_(injector), wal_(dir + "/wal.log", injector) {
  data_.Open(dir + "/data.pdr", "data", injector);
  const uint64_t size = data_.Size();
  if (size < sizeof(DataFileHeader)) {
    // Fresh store, or a creation-time crash tore the header before any
    // checkpoint could commit — either way (re)stamp it; it becomes
    // durable with the first data fsync.
    const DataFileHeader header;
    data_.WriteAt(0, &header, sizeof(header));
  } else {
    DataFileHeader header;
    data_.ReadAt(0, &header, sizeof(header));
    if (header.magic != kDataMagic) {
      throw std::runtime_error("not a PDR data file: " + dir + "/data.pdr");
    }
    if (header.version != kDataVersion) {
      throw std::runtime_error(
          "unsupported PDR data file version " +
          std::to_string(header.version) + " (this build reads v" +
          std::to_string(kDataVersion) + "): " + dir + "/data.pdr");
    }
  }
  try {
    // wal.log / data.pdr were possibly just created: fsync the directory
    // so their entries survive a real power cut (a "store.dirsync" fault
    // point; crashing here mutates nothing, so recovery simply reruns).
    SyncDir(dir_, "store", injector_);
    Recover();
  } catch (const CrashError&) {
    Poison();
    throw;
  }
}

PageId DiskPager::Allocate() {
  const PageId id = mirror_.Allocate();
  EnsureTables(mirror_.allocated_pages());
  page_stamped_[id] = 0;  // reused ids shed the old slot's expectation
  quarantined_.erase(id);
  dirty_.insert(id);
  return id;
}

void DiskPager::Free(PageId id) {
  mirror_.Free(id);
  dirty_.erase(id);  // freed content never needs to reach the WAL
  if (id < page_stamped_.size()) page_stamped_[id] = 0;
  quarantined_.erase(id);
}

void DiskPager::ReadPage(PageId id, Page* out) const {
  // Verification mutates repair state under const; misses are serialized
  // by the BufferPool's exclusive latch (see header comment).
  auto* self = const_cast<DiskPager*>(this);
  if (quarantined_.count(id) != 0) {
    mirror_.ReadPage(id, out);
    ThrowCorruption(dir_ + "/data.pdr", id, SlotOffset(id), page_sum_[id],
                    ComputePageChecksum(*out, id, page_lsn_[id]));
  }
  mirror_.ReadPage(id, out);
  if (id < page_stamped_.size() && page_stamped_[id] != 0 &&
      dirty_.count(id) == 0) {
    const uint64_t actual = ComputePageChecksum(*out, id, page_lsn_[id]);
    if (actual != page_sum_[id]) {
      if (self->RepairPage(id) == PageHealth::kUnrepairable) {
        ThrowCorruption(dir_ + "/data.pdr", id, SlotOffset(id),
                        page_sum_[id], actual);
      }
      mirror_.ReadPage(id, out);  // the healed bytes
    }
  }
}

void DiskPager::WritePage(PageId id, const Page& page) {
  mirror_.WritePage(id, page);
  quarantined_.erase(id);  // fully overwritten: old damage is gone
  dirty_.insert(id);
}

void DiskPager::EnsureTables(size_t pages) {
  if (page_lsn_.size() < pages) {
    page_lsn_.resize(pages, 0);
    page_sum_.resize(pages, 0);
    page_stamped_.resize(pages, 0);
  }
}

void DiskPager::WriteSlot(PageId id) {
  const Page& page = mirror_.PageAt(id);
  const PageTrailer trailer = MakePageTrailer(page, id, page_lsn_[id]);
  // One contiguous write per slot: the image and its trailer are a single
  // fault point, exactly as the bare page write was in format v1, so the
  // crash sweep's kill-point numbering is unchanged per converged page.
  char buf[kSlotSize];
  std::memcpy(buf, page.bytes.data(), kPageSize);
  std::memcpy(buf + kPageSize, &trailer, sizeof(trailer));
  data_.WriteAt(SlotOffset(id), buf, kSlotSize);
  page_sum_[id] = trailer.checksum;
  page_stamped_[id] = 1;
  quarantined_.erase(id);
}

void DiskPager::ConvergeFiles(const std::set<PageId>& dirty,
                              const std::string& app_meta) {
  EnsureTables(mirror_.allocated_pages());
  for (const PageId id : dirty) WriteSlot(id);
  data_.Sync();
  ++epoch_;
  AtomicWriteFile(
      dir_ + "/checkpoint.pdr",
      EncodeCheckpoint(epoch_, wal_.next_lsn(),
                       EncodeStoreState(mirror_.allocated_pages(),
                                        mirror_.free_list(), app_meta)),
      "ckpt", injector_);
  wal_.Reset();
}

void DiskPager::Checkpoint(const std::string& app_meta) {
  if (poisoned_) {
    throw CrashError("checkpoint on a store that already crashed");
  }
  const auto start = std::chrono::steady_clock::now();
  const int64_t pages = static_cast<int64_t>(dirty_.size());
  try {
    EnsureTables(mirror_.allocated_pages());
    for (const PageId id : dirty_) {
      // The trailer binds the slot to this after-image's LSN; remember it
      // so ConvergeFiles can stamp and ReadPage can verify.
      page_lsn_[id] = wal_.AppendPage(id, mirror_.PageAt(id));
    }
    wal_.AppendCommit(EncodeStoreState(mirror_.allocated_pages(),
                                       mirror_.free_list(), app_meta));
    wal_.Sync();  // the durable point
    ConvergeFiles(dirty_, app_meta);
  } catch (const CrashError&) {
    Poison();
    throw;
  }
  meta_ = app_meta;
  dirty_.clear();
  checkpoint_stats_.checkpoints++;
  checkpoint_stats_.pages_logged += pages;
  checkpoint_stats_.last_ms = ElapsedMs(start);
  if (PdrObs::Enabled()) {
    MetricsRegistry::Global().GetCounter("pdr.storage.checkpoints").Increment();
    MetricsRegistry::Global()
        .GetCounter("pdr.storage.checkpoint_pages")
        .Add(pages);
    MetricsRegistry::Global()
        .GetHistogram("pdr.storage.checkpoint_ms")
        .Observe(checkpoint_stats_.last_ms);
  }
}

void DiskPager::Recover() {
  const auto start = std::chrono::steady_clock::now();

  uint64_t ckpt_next_lsn = 0;
  StoreState state;
  std::string ckpt_raw;
  const std::string ckpt_path = dir_ + "/checkpoint.pdr";
  const bool have_ckpt = ReadFileIfExists(ckpt_path, &ckpt_raw);
  if (have_ckpt) {
    // checkpoint.pdr is published atomically, so a damaged copy can only
    // mean external damage — the decoder surfaces it (typed, with the
    // flight-recorder hook) instead of silently starting empty.
    CheckpointDescriptor ckpt = DecodeCheckpoint(ckpt_raw, ckpt_path);
    epoch_ = ckpt.epoch;
    ckpt_next_lsn = ckpt.next_lsn;
    state = std::move(ckpt.state);
  }

  const Wal::ScanResult scan = wal_.Scan();
  recovery_stats_.discarded_records = scan.records_discarded;
  recovery_stats_.torn_tail = scan.torn_tail;
  recovery_stats_.interior_corruption = scan.interior_corruption;
  recovered_ = have_ckpt || !scan.batches.empty();
  if (!recovered_ && scan.records_scanned == 0 && !scan.torn_tail &&
      !scan.interior_corruption) {
    return;  // fresh store
  }
  recovery_stats_.ran = recovered_;

  // The last committed batch (if any) supersedes the checkpoint's state.
  if (!scan.batches.empty()) {
    state = DecodeStoreState(scan.batches.back().commit_payload,
                             dir_ + "/wal.log");
  }

  mirror_.Restore(state.page_count, state.free_list);
  EnsureTables(state.page_count);
  const std::set<PageId> free_set(state.free_list.begin(),
                                  state.free_list.end());

  // Load every slot, validating trailers as we go. Live pages whose slot
  // fails validation are repairable exactly when a WAL redo image covers
  // them (every crash-produced invalid slot — a torn converge write, a
  // never-written slot of a just-allocated page — belongs to the
  // committed batch being re-applied). Free pages carry no content worth
  // validating.
  std::map<PageId, std::pair<uint64_t, uint64_t>> invalid;  // want, got
  std::vector<char> slot(kSlotSize);
  for (uint64_t id64 = 0; id64 < state.page_count; ++id64) {
    const PageId id = static_cast<PageId>(id64);
    data_.ReadAt(SlotOffset(id), slot.data(), kSlotSize);  // 0-fill past EOF
    Page& page = mirror_.PageAt(id);
    std::memcpy(page.bytes.data(), slot.data(), kPageSize);
    if (free_set.count(id) != 0) continue;
    PageTrailer trailer;
    std::memcpy(&trailer, slot.data() + kPageSize, sizeof(trailer));
    if (PageTrailerValid(trailer, page, id)) {
      page_lsn_[id] = trailer.lsn;
      page_sum_[id] = trailer.checksum;
      page_stamped_[id] = 1;
    } else {
      invalid[id] = {trailer.checksum,
                     ComputePageChecksum(page, id, trailer.lsn)};
    }
  }

  std::set<PageId> redo_dirty;
  for (const Wal::Batch& batch : scan.batches) {
    for (const Wal::PageImage& pi : batch.pages) {
      if (pi.id >= state.page_count) continue;  // superseded alloc state
      mirror_.PageAt(pi.id) = pi.image;
      page_lsn_[pi.id] = pi.lsn;
      page_sum_[pi.id] = ComputePageChecksum(pi.image, pi.id, pi.lsn);
      page_stamped_[pi.id] = 0;  // restamped by the converge below
      redo_dirty.insert(pi.id);
      recovery_stats_.redo_records++;
    }
    recovery_stats_.batches_applied++;
  }
  for (const auto& [id, sums] : invalid) {
    if (redo_dirty.count(id) != 0) {
      // The redo image supersedes the damaged slot; the converge below
      // rewrites it. The damage is healed, not just masked.
      recovery_stats_.pages_repaired++;
      FlightRecorder::Record(FrEvent::kCorruption, id, /*repaired=*/1);
      continue;
    }
    // A live page with no valid slot and no covering redo image: nothing
    // in the store can reconstruct it. No crash leaves this shape (see
    // above), so the damage happened at rest — refuse to open rather
    // than serve a page the trailer disowns.
    ThrowCorruption(dir_ + "/data.pdr", id, SlotOffset(id), sums.first,
                    sums.second);
  }
  meta_ = state.app_meta;
  wal_.set_next_lsn(std::max(scan.next_lsn, ckpt_next_lsn));

  if (!scan.batches.empty()) {
    // Redo changed the picture relative to the files: converge so the next
    // crash recovers from the checkpoint alone. Idempotent — a crash in
    // here re-runs this same redo from the still-intact WAL.
    ConvergeFiles(redo_dirty, meta_);
  } else if (scan.records_scanned > 0 || scan.torn_tail ||
             scan.interior_corruption ||
             wal_.next_lsn() != wal_.header_start_lsn()) {
    // Drop the uncommitted tail, and re-stamp the header whenever the
    // adopted LSN disagrees with it. The mismatch arises when a crash
    // inside a previous Reset left a short/torn WAL whose constructor
    // re-stamp says start_lsn=0 while the checkpoint is further ahead;
    // without a Reset here the next committed batch's first record
    // (lsn = checkpoint LSN != 0) would read as a torn tail and a
    // durable batch could be silently discarded.
    wal_.Reset();
  }

  recovery_stats_.recovery_ms = ElapsedMs(start);
  if (PdrObs::Enabled()) {
    MetricsRegistry::Global().GetCounter("pdr.storage.recoveries").Increment();
    if (recovery_stats_.pages_repaired > 0) {
      MetricsRegistry::Global()
          .GetCounter("pdr.storage.repair.recovery_pages")
          .Add(recovery_stats_.pages_repaired);
    }
    MetricsRegistry::Global()
        .GetCounter("pdr.storage.redo_records")
        .Add(recovery_stats_.redo_records);
    MetricsRegistry::Global()
        .GetCounter("pdr.storage.discarded_records")
        .Add(recovery_stats_.discarded_records);
    MetricsRegistry::Global()
        .GetHistogram("pdr.storage.recovery_ms")
        .Observe(recovery_stats_.recovery_ms);
  }
}

PageHealth DiskPager::RepairPage(PageId id) {
  EnsureTables(mirror_.allocated_pages());
  if (id >= mirror_.allocated_pages() || page_stamped_[id] == 0 ||
      dirty_.count(id) != 0) {
    return PageHealth::kHealthy;  // no durable expectation to verify
  }
  const uint64_t want = page_sum_[id];
  const uint64_t lsn = page_lsn_[id];
  const bool mirror_ok =
      ComputePageChecksum(mirror_.PageAt(id), id, lsn) == want;

  std::vector<char> slot(kSlotSize);
  data_.ReadAt(SlotOffset(id), slot.data(), kSlotSize);
  Page slot_page;
  std::memcpy(slot_page.bytes.data(), slot.data(), kPageSize);
  PageTrailer trailer;
  std::memcpy(&trailer, slot.data() + kPageSize, sizeof(trailer));
  // The slot must not only self-verify but carry the EXPECTED version: a
  // stale intact slot paired with a damaged mirror must not roll the page
  // back to old contents.
  const bool slot_ok = trailer.lsn == lsn && trailer.checksum == want &&
                       PageTrailerValid(trailer, slot_page, id);

  if (mirror_ok && slot_ok) return PageHealth::kHealthy;
  if (!mirror_ok && slot_ok) {
    mirror_.PageAt(id) = slot_page;
    repair_stats_.mirror_repairs++;
    FlightRecorder::Record(FrEvent::kCorruption, id, /*repaired=*/1);
    if (PdrObs::Enabled()) {
      MetricsRegistry::Global()
          .GetCounter("pdr.storage.repair.mirror")
          .Increment();
    }
    return PageHealth::kMirrorRepaired;
  }
  if (mirror_ok) {
    // Rewrite the slot from the mirror. The page is clean, so the mirror
    // still holds the last converged image: the rewrite is idempotent and
    // crash-safe (a torn rewrite leaves the slot invalid, exactly where
    // it started, and the mirror copy survives for the next attempt).
    WriteSlot(id);
    data_.Sync();
    repair_stats_.slot_repairs++;
    FlightRecorder::Record(FrEvent::kCorruption, id, /*repaired=*/1);
    if (PdrObs::Enabled()) {
      MetricsRegistry::Global()
          .GetCounter("pdr.storage.repair.slot")
          .Increment();
    }
    return PageHealth::kSlotRepaired;
  }
  quarantined_.insert(id);
  repair_stats_.unrepairable++;
  FlightRecorder::Record(FrEvent::kCorruption, id, /*repaired=*/0);
  FlightRecorder::Global().TriggerDump(FlightRecorder::kOnCorruption,
                                       "corruption",
                                       FlightRecorder::CurrentQueryId());
  if (PdrObs::Enabled()) {
    MetricsRegistry::Global()
        .GetCounter("pdr.storage.repair.unrepairable")
        .Increment();
  }
  return PageHealth::kUnrepairable;
}

ScrubStats DiskPager::Scrub(int64_t budget_pages, const CancelToken* token) {
  ScrubStats round;
  const size_t n = mirror_.allocated_pages();
  if (poisoned_ || n == 0 || budget_pages <= 0) return round;
  EnsureTables(n);
  if (scrub_cursor_ >= n) scrub_cursor_ = 0;
  const int64_t steps =
      std::min<int64_t>(budget_pages, static_cast<int64_t>(n));
  for (int64_t i = 0; i < steps; ++i) {
    if (token != nullptr && token->cancelled()) break;
    const PageId id = scrub_cursor_;
    scrub_cursor_ = static_cast<PageId>((scrub_cursor_ + 1) % n);
    if (page_stamped_[id] == 0 || dirty_.count(id) != 0 ||
        quarantined_.count(id) != 0) {
      continue;  // skipped ids still consume budget: bounded tick cost
    }
    round.pages_scanned++;
    switch (RepairPage(id)) {
      case PageHealth::kHealthy:
        break;
      case PageHealth::kMirrorRepaired:
      case PageHealth::kSlotRepaired:
        round.pages_repaired++;
        break;
      case PageHealth::kUnrepairable:
        round.pages_unrepairable++;
        break;
    }
  }
  scrub_stats_.pages_scanned += round.pages_scanned;
  scrub_stats_.pages_repaired += round.pages_repaired;
  scrub_stats_.pages_unrepairable += round.pages_unrepairable;
  if (PdrObs::Enabled()) {
    MetricsRegistry::Global()
        .GetCounter("pdr.storage.scrub.pages_scanned")
        .Add(round.pages_scanned);
    if (round.pages_repaired > 0) {
      MetricsRegistry::Global()
          .GetCounter("pdr.storage.scrub.pages_repaired")
          .Add(round.pages_repaired);
    }
    if (round.pages_unrepairable > 0) {
      MetricsRegistry::Global()
          .GetCounter("pdr.storage.scrub.pages_unrepairable")
          .Add(round.pages_unrepairable);
    }
  }
  return round;
}

void DiskPager::CorruptMirrorPageForTest(PageId id, int bit_index) {
  Page& page = mirror_.PageAt(id);
  auto& byte = page.bytes[static_cast<size_t>(bit_index / 8) % kPageSize];
  byte = static_cast<std::byte>(static_cast<unsigned char>(byte) ^
                                (1u << (bit_index & 7)));
}

void DiskPager::Poison() {
  poisoned_ = true;
  data_.Poison();
  wal_.Poison();
}

}  // namespace pdr
