// Physical-page write-ahead log.
//
// Append-only file of checksummed records:
//
//   [file header: magic "PDRW", version, start LSN]
//   [record]*
//
//   record := {u32 magic, u8 type, u8 pad[3], u64 lsn, u32 page_id,
//              u32 payload_len, u64 fnv1a64(header-sans-checksum+payload)}
//             ++ payload
//
// Two record types: kPage carries the 4 KB after-image of one page;
// kCommit carries the checkpoint metadata blob (page count, free list,
// index/engine state) and marks every record since the previous commit as
// durable-atomic. Recovery scans forward, validates each checksum, groups
// records into committed batches, and discards the torn tail after the
// last commit — so a crash mid-append can never surface a half-written
// page image.
//
// Writes are buffered in memory and flushed to the file in batches
// (group commit): Append* never touches the disk; Sync() flushes the
// buffer with one write and one fsync, so a checkpoint of N pages costs
// one fsync, not N. The WAL never needs per-record durability because the
// data file is only written from already-committed batches (see
// disk_pager.h for the full protocol).

#ifndef PDR_STORAGE_WAL_H_
#define PDR_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdr/storage/fault_injector.h"
#include "pdr/storage/pager.h"
#include "pdr/storage/storage_file.h"

namespace pdr {

using Lsn = uint64_t;

/// Cumulative writer-side statistics (exported to the metrics registry as
/// pdr.wal.* as well).
struct WalStats {
  int64_t records = 0;
  int64_t commits = 0;
  int64_t bytes_appended = 0;
  int64_t fsyncs = 0;
};

class Wal {
 public:
  enum RecordType : uint8_t { kPage = 1, kCommit = 2 };

  /// One recovered page after-image with the LSN it was logged under —
  /// the LSN the page trailer binds on converge (see page_format.h).
  struct PageImage {
    PageId id = kInvalidPageId;
    Lsn lsn = 0;
    Page image;
  };

  /// One committed batch recovered from the log: the page after-images
  /// appended since the previous commit, plus the commit's metadata.
  struct Batch {
    std::vector<PageImage> pages;
    std::string commit_payload;
    Lsn commit_lsn = 0;
  };

  struct ScanResult {
    std::vector<Batch> batches;
    int64_t records_scanned = 0;
    int64_t records_discarded = 0;  ///< torn/uncommitted tail records
    /// The scan stopped at damage consistent with a crash: the file ends
    /// at (or shortly after) the last valid record, with no intact record
    /// beyond the damage. Expected after a kill; recovery absorbs it.
    bool torn_tail = false;
    /// The scan stopped at damage with a fully-valid record *beyond* it —
    /// a crash cannot produce that shape (appends are strictly ordered
    /// before the tail), so bytes inside the durable region were altered
    /// at rest. Counted in pdr.wal.interior_corruption; recovery still
    /// stops at the damage (the suffix is unreachable without its
    /// predecessor), but the caller should not treat the log as merely
    /// torn. Mutually exclusive with torn_tail.
    bool interior_corruption = false;
    Lsn next_lsn = 0;
  };

  /// Opens (creating if absent) the log at `path`. A fresh file gets a
  /// header; an existing file is left untouched — call Scan() to read it.
  /// A reopened log that still holds record bytes refuses Append* (throws
  /// std::logic_error) until Reset() repositions it: appending after a
  /// possibly-torn region would leave records Scan can never reach.
  Wal(const std::string& path, FaultInjector* injector);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffers a page after-image record. Returns its LSN.
  Lsn AppendPage(PageId id, const Page& image);

  /// Buffers a commit record carrying `payload`. Returns its LSN. The
  /// batch becomes durable at the next Sync().
  Lsn AppendCommit(const std::string& payload);

  /// Flushes buffered records and fsyncs: everything appended so far is
  /// durable afterwards. One fsync regardless of the batch size.
  void Sync();

  /// Empties the log (truncate + fresh header + fsync). Called after a
  /// checkpoint has been fully applied to the data file; the next LSN
  /// continues monotonically.
  void Reset();

  /// Reads the log from the start: checksum-validates every record,
  /// groups them into committed batches, and stops at the first damaged
  /// byte. Never throws on corruption — damage only shortens the usable
  /// prefix. The *classification* of the damage is reported: a tail that
  /// simply ends (torn_tail, the normal crash shape) versus damage with
  /// intact records beyond it (interior_corruption, which no crash can
  /// produce — see ScanResult).
  ScanResult Scan() const;

  Lsn next_lsn() const { return next_lsn_; }
  void set_next_lsn(Lsn lsn) { next_lsn_ = lsn; }

  /// Start LSN stamped in the on-disk file header — what Scan() will
  /// expect the first record's LSN to be. Diverges from next_lsn() when
  /// recovery adopts a checkpoint LSN without rewriting the header (the
  /// caller must Reset() then, or the next batch looks like a torn tail).
  Lsn header_start_lsn() const { return header_start_lsn_; }
  uint64_t file_bytes() const;
  const WalStats& stats() const { return stats_; }
  bool poisoned() const { return file_.poisoned(); }
  void Poison() { file_.Poison(); }

 private:
  void AppendRecord(RecordType type, PageId page_id, const void* payload,
                    size_t payload_len);
  void FlushBuffer();

  StorageFile file_;
  std::string buffer_;      // appended records not yet written to the file
  uint64_t file_end_ = 0;   // bytes of the file already written
  Lsn next_lsn_ = 0;
  Lsn header_start_lsn_ = 0;  // start LSN in the on-disk file header
  bool needs_reset_ = false;  // reopened with record bytes: Reset before Append
  WalStats stats_;
};

}  // namespace pdr

#endif  // PDR_STORAGE_WAL_H_
