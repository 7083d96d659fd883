// File-backed pager: WAL + fuzzy checkpoints + crash recovery.
//
// A DiskPager keeps the working copy of every page in an in-memory mirror
// (a MemPager) and tracks which pages changed since the last checkpoint.
// Between checkpoints NO file I/O happens — reads and writes hit the
// mirror, exactly as fast as the simulated disk. Durability is produced in
// bulk by Checkpoint(), which runs a redo-only protocol over three files
// in the store directory:
//
//   data.pdr        page slots (page image ++ integrity trailer), page id
//                   i at SlotOffset(i) — see page_format.h for the v2
//                   slot layout and the checksum binding
//   wal.log         physical-page write-ahead log (wal.h)
//   checkpoint.pdr  last published snapshot descriptor: {epoch, next LSN,
//                   page count, free list, application metadata blob,
//                   checksum}, replaced atomically (tmp + fsync + rename)
//
// Checkpoint(meta):
//   1. append a WAL after-image record for every dirty page (buffered)
//   2. append a WAL commit record carrying {page count, free list, meta}
//   3. wal fsync                      <- THE durable point (group commit)
//   4. write the dirty pages into data.pdr
//   5. data fsync
//   6. atomically publish checkpoint.pdr
//   7. reset the WAL (the checkpoint now carries everything)
//
// Recovery (automatic in the constructor when the store exists):
//   load checkpoint.pdr (or empty-store defaults) -> load data.pdr into
//   the mirror -> scan the WAL for committed batches (checksummed records
//   closed by a commit; a torn tail is discarded) -> apply each batch's
//   after-images and adopt its {page count, free list, meta} -> if redo
//   was applied, converge the files (steps 4-7 above). A crash at ANY
//   write/fsync boundary — including during recovery itself — leaves a
//   state this procedure maps back to the last committed checkpoint:
//   before step 3 the old state survives untouched; from step 3 on, redo
//   reconstructs the new state idempotently.
//
// The application metadata blob carries whatever the index/engine needs to
// reattach to its pages (tree roots, object->leaf maps, clocks, histogram
// state); it travels inside the commit record so pages and metadata are
// atomic as a unit.
//
// Silent-corruption defense (DESIGN.md §16). Every converged page slot
// carries a trailer checksumming the page bytes bound to (page id, LSN).
// The pager keeps the expected (lsn, checksum) per page and verifies the
// mirror on every ReadPage of a clean page — a flipped bit in RAM or a
// damaged slot restored at recovery cannot be served as an answer. On a
// mismatch the pager self-heals from whichever redundant copy still
// verifies (mirror vs slot vs WAL redo chain); a page with no healthy
// copy is *quarantined* and every read of it throws CorruptionError,
// which the resilience ladder converts into a tier downgrade instead of
// a crash. An incremental Scrub() walks a budgeted window of pages per
// call (scheduled from PdrMonitor ticks) so cold rot is found and healed
// before a query trips on it.

#ifndef PDR_STORAGE_DISK_PAGER_H_
#define PDR_STORAGE_DISK_PAGER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "pdr/resilience/deadline.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/pager.h"
#include "pdr/storage/storage_file.h"
#include "pdr/storage/wal.h"

namespace pdr {

struct CheckpointStats {
  int64_t checkpoints = 0;
  int64_t pages_logged = 0;   ///< after-images appended across all ckpts
  double last_ms = 0.0;
};

struct RecoveryStats {
  bool ran = false;             ///< an existing store was opened
  int64_t batches_applied = 0;  ///< committed WAL batches redone
  int64_t redo_records = 0;     ///< page images applied from the WAL
  int64_t discarded_records = 0;  ///< valid but uncommitted tail records
  bool torn_tail = false;         ///< WAL scan hit a crash-shaped boundary
  bool interior_corruption = false;  ///< WAL damage inside the durable region
  int64_t pages_repaired = 0;  ///< invalid data slots healed by WAL redo
  double recovery_ms = 0.0;
};

/// Per-call and cumulative scrubber counters (pdr.storage.scrub.*).
struct ScrubStats {
  int64_t pages_scanned = 0;       ///< clean stamped pages verified
  int64_t pages_repaired = 0;      ///< healed from the surviving copy
  int64_t pages_unrepairable = 0;  ///< quarantined: no copy verified
};

/// Cumulative self-healing counters (pdr.storage.repair.*).
struct RepairStats {
  int64_t mirror_repairs = 0;  ///< mirror rebuilt from a valid slot
  int64_t slot_repairs = 0;    ///< slot rewritten from a valid mirror
  int64_t unrepairable = 0;    ///< both copies damaged; page quarantined
};

/// Outcome of DiskPager::RepairPage on one page.
enum class PageHealth {
  kHealthy,         ///< both the mirror and the slot verify
  kMirrorRepaired,  ///< mirror was damaged; rebuilt from the slot
  kSlotRepaired,    ///< slot was damaged; rewritten from the mirror
  kUnrepairable,    ///< neither copy verifies; page quarantined
};

class DiskPager : public Pager {
 public:
  /// Opens (creating or recovering) the store in directory `dir`, which
  /// must already exist. `injector` may be null (no fault injection).
  explicit DiskPager(const std::string& dir,
                     FaultInjector* injector = nullptr);

  // Pager interface — mirror-backed; no file I/O except when ReadPage
  // catches a checksum mismatch and self-heals from the data slot.
  PageId Allocate() override;
  void Free(PageId id) override;
  /// Serves the page from the mirror. Clean (non-dirty, stamped) pages
  /// are verified against the trailer checksum recorded at the last
  /// converge; on a mismatch the pager repairs in place (see RepairPage)
  /// and serves the healed bytes, or throws CorruptionError when no
  /// healthy copy exists. Reads of a quarantined page always throw.
  /// Verification mutates repair bookkeeping under const — callers
  /// (BufferPool miss fill) already serialize misses.
  void ReadPage(PageId id, Page* out) const override;
  void WritePage(PageId id, const Page& page) override;
  size_t allocated_pages() const override { return mirror_.allocated_pages(); }
  size_t live_pages() const override { return mirror_.live_pages(); }

  /// Makes the current state durable together with `app_meta` (see file
  /// comment for the protocol). Throws CrashError when an injected fault
  /// fires; the pager is poisoned afterwards and must be discarded (as a
  /// killed process would be).
  void Checkpoint(const std::string& app_meta);

  /// True when the constructor recovered pre-existing durable state (as
  /// opposed to initializing an empty store).
  bool recovered() const { return recovered_; }

  /// Application metadata from the last durable checkpoint ("" for a
  /// fresh store).
  const std::string& recovered_meta() const { return meta_; }

  /// Pages dirtied since the last checkpoint.
  size_t dirty_page_count() const { return dirty_.size(); }

  /// Reconciles the mirror and the data slot of one clean page against
  /// the expected (lsn, checksum) recorded at the last converge, healing
  /// whichever copy is damaged from the one that still verifies. Both
  /// damaged: the page is quarantined (kUnrepairable) — it stays readable
  /// only after the next WritePage replaces its content or a checkpoint
  /// restamps it. Dirty or never-converged pages have nothing to verify
  /// against and report kHealthy. Never throws.
  PageHealth RepairPage(PageId id);

  /// Incremental online scrub: verifies (and repairs, via RepairPage) up
  /// to `budget_pages` pages starting at a persistent wrapping cursor.
  /// Dirty, free, and never-stamped pages are passed over but still
  /// consume budget, so a call's cost is bounded by the budget regardless
  /// of store composition. Checks `token` between pages when provided.
  /// Returns this call's counters; cumulative ones are in scrub_stats().
  ScrubStats Scrub(int64_t budget_pages, const CancelToken* token = nullptr);

  /// Pages with no healthy copy; every ReadPage of one throws.
  const std::set<PageId>& quarantined() const { return quarantined_; }

  const ScrubStats& scrub_stats() const { return scrub_stats_; }
  const RepairStats& repair_stats() const { return repair_stats_; }

  /// Test hook: flips one bit of the in-memory mirror WITHOUT marking the
  /// page dirty — exactly what RAM rot or a misbehaving DMA would do.
  void CorruptMirrorPageForTest(PageId id, int bit_index);

  uint64_t epoch() const { return epoch_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  const CheckpointStats& checkpoint_stats() const { return checkpoint_stats_; }
  const WalStats& wal_stats() const { return wal_.stats(); }
  uint64_t wal_bytes() const { return wal_.file_bytes(); }
  bool poisoned() const { return poisoned_; }
  const std::string& dir() const { return dir_; }

 private:
  void Recover();
  /// Steps 4-7 of the protocol: pages in `dirty` are durable in the WAL
  /// (or being re-applied from it); push them to data.pdr, publish the
  /// checkpoint descriptor, reset the WAL.
  void ConvergeFiles(const std::set<PageId>& dirty,
                     const std::string& app_meta);
  void Poison();
  /// Grows the per-page trailer tables to cover `pages` ids.
  void EnsureTables(size_t pages);
  /// Writes page `id`'s slot (image + trailer) from the mirror and
  /// records the expectation tables. Part of ConvergeFiles and of
  /// slot-direction repair.
  void WriteSlot(PageId id);

  std::string dir_;
  FaultInjector* injector_;
  MemPager mirror_;
  std::set<PageId> dirty_;  // ordered: deterministic WAL append order
  StorageFile data_;
  Wal wal_;
  std::string meta_;
  uint64_t epoch_ = 0;
  bool recovered_ = false;
  bool poisoned_ = false;
  RecoveryStats recovery_stats_;
  CheckpointStats checkpoint_stats_;

  // Per-page integrity expectations, indexed by page id. stamped == 1
  // means the id's slot was written (with a trailer) by a converge and
  // the page has not been freed since; only stamped, non-dirty pages are
  // verified — everything else has no durable expectation yet.
  std::vector<uint64_t> page_lsn_;
  std::vector<uint64_t> page_sum_;
  std::vector<uint8_t> page_stamped_;
  std::set<PageId> quarantined_;
  PageId scrub_cursor_ = 0;
  ScrubStats scrub_stats_;
  RepairStats repair_stats_;
};

}  // namespace pdr

#endif  // PDR_STORAGE_DISK_PAGER_H_
