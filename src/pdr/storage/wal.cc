#include "pdr/storage/wal.h"

#include <cstring>
#include <stdexcept>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/registry.h"
#include "pdr/storage/serde.h"

namespace pdr {
namespace {

constexpr uint32_t kWalMagic = 0x57524450u;  // "PDRW"
constexpr uint32_t kWalVersion = 1;
constexpr uint32_t kRecordMagic = 0x43455257u;  // "WREC"
// Buffered bytes that trigger an intermediate (non-fsync) flush to the
// file: fewer write syscalls per checkpoint.
constexpr size_t kGroupCommitBytes = 256 * 1024;

struct WalFileHeader {
  uint32_t magic = kWalMagic;
  uint32_t version = kWalVersion;
  uint64_t start_lsn = 0;
};
static_assert(sizeof(WalFileHeader) == 16);

struct WalRecordHeader {
  uint32_t magic = kRecordMagic;
  uint8_t type = 0;
  uint8_t pad[3] = {};
  uint64_t lsn = 0;
  uint32_t page_id = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(WalRecordHeader) == 32);

uint64_t RecordChecksum(const WalRecordHeader& h, const void* payload) {
  uint64_t c = Fnv1a64(&h.type, sizeof(h.type));
  c = Fnv1a64(&h.lsn, sizeof(h.lsn), c);
  c = Fnv1a64(&h.page_id, sizeof(h.page_id), c);
  c = Fnv1a64(&h.payload_len, sizeof(h.payload_len), c);
  return Fnv1a64(payload, h.payload_len, c);
}

Counter& RecordsCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("pdr.wal.records");
  return c;
}
Counter& BytesCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("pdr.wal.bytes");
  return c;
}
Counter& FsyncCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("pdr.wal.fsyncs");
  return c;
}
Counter& CommitCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("pdr.wal.commits");
  return c;
}
Counter& InteriorCorruptionCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("pdr.wal.interior_corruption");
  return c;
}

/// Whether a fully-valid record sits anywhere in raw[from, size). Used to
/// classify scan-stopping damage: a torn tail has nothing valid after it
/// (the crash lost everything from the damage on), while at-rest
/// corruption leaves the records appended *after* the damaged one intact.
/// Records with lsn < min_lsn are stale leftovers from before a header
/// rewrite, not evidence of a valid suffix.
bool ValidRecordBeyond(const std::string& raw, uint64_t from, Lsn min_lsn) {
  const uint64_t size = raw.size();
  for (uint64_t q = from; q + sizeof(WalRecordHeader) <= size; ++q) {
    WalRecordHeader rec;
    std::memcpy(&rec, raw.data() + q, sizeof(rec));
    if (rec.magic != kRecordMagic) continue;
    if (rec.type != Wal::kPage && rec.type != Wal::kCommit) continue;
    if (rec.lsn < min_lsn) continue;
    if (rec.type == Wal::kPage && rec.payload_len != kPageSize) continue;
    if (q + sizeof(rec) + rec.payload_len > size) continue;
    if (RecordChecksum(rec, raw.data() + q + sizeof(rec)) == rec.checksum) {
      return true;
    }
  }
  return false;
}

}  // namespace

Wal::Wal(const std::string& path, FaultInjector* injector) {
  file_.Open(path, "wal", injector);
  const uint64_t size = file_.Size();
  if (size >= sizeof(WalFileHeader)) {
    WalFileHeader header;
    file_.ReadAt(0, &header, sizeof(header));
    if (header.magic == kWalMagic && header.version == kWalVersion) {
      file_end_ = size;
      next_lsn_ = header.start_lsn;
      header_start_lsn_ = header.start_lsn;
      // Record bytes (valid or torn) follow the header: appending after
      // them would be unreachable by Scan, so require a Reset first.
      needs_reset_ = size > sizeof(WalFileHeader);
      return;
    }
  }
  // Fresh (or unrecognizably short) log: start from an empty header. A
  // pre-existing torn header means no record in it was ever committed, so
  // dropping it is exactly what recovery would do anyway.
  const WalFileHeader header;
  file_.Truncate(0);
  file_.WriteAt(0, &header, sizeof(header));
  file_end_ = sizeof(header);
  header_start_lsn_ = 0;
}

Lsn Wal::AppendPage(PageId id, const Page& image) {
  AppendRecord(kPage, id, image.bytes.data(), kPageSize);
  return next_lsn_ - 1;
}

Lsn Wal::AppendCommit(const std::string& payload) {
  AppendRecord(kCommit, kInvalidPageId, payload.data(), payload.size());
  stats_.commits++;
  CommitCounter().Increment();
  return next_lsn_ - 1;
}

void Wal::AppendRecord(RecordType type, PageId page_id, const void* payload,
                       size_t payload_len) {
  if (needs_reset_) {
    throw std::logic_error(
        "Wal::Append* on a reopened non-empty log: Scan() then Reset() "
        "first, or records land beyond a region Scan cannot cross");
  }
  WalRecordHeader header;
  header.type = type;
  header.lsn = next_lsn_++;
  header.page_id = page_id;
  header.payload_len = static_cast<uint32_t>(payload_len);
  header.checksum = RecordChecksum(header, payload);
  buffer_.append(reinterpret_cast<const char*>(&header), sizeof(header));
  buffer_.append(static_cast<const char*>(payload), payload_len);
  FlightRecorder::Record(FrEvent::kWalAppend, static_cast<int64_t>(header.lsn),
                         static_cast<int64_t>(sizeof(header) + payload_len));
  stats_.records++;
  stats_.bytes_appended +=
      static_cast<int64_t>(sizeof(header) + payload_len);
  RecordsCounter().Increment();
  BytesCounter().Add(static_cast<int64_t>(sizeof(header) + payload_len));
  if (buffer_.size() >= kGroupCommitBytes) FlushBuffer();
}

void Wal::FlushBuffer() {
  if (buffer_.empty()) return;
  file_.WriteAt(file_end_, buffer_.data(), buffer_.size());
  file_end_ += buffer_.size();
  buffer_.clear();
}

void Wal::Sync() {
  FlushBuffer();
  file_.Sync();
  stats_.fsyncs++;
  FsyncCounter().Increment();
}

void Wal::Reset() {
  buffer_.clear();
  file_.Truncate(0);
  const WalFileHeader header{kWalMagic, kWalVersion, next_lsn_};
  file_.WriteAt(0, &header, sizeof(header));
  file_end_ = sizeof(header);
  header_start_lsn_ = next_lsn_;
  needs_reset_ = false;
  file_.Sync();
  stats_.fsyncs++;
  FsyncCounter().Increment();
}

uint64_t Wal::file_bytes() const { return file_.Size(); }

Wal::ScanResult Wal::Scan() const {
  ScanResult result;
  const uint64_t size = file_.Size();
  std::string raw(size, '\0');
  if (size > 0) file_.ReadAt(0, raw.data(), size);

  if (size < sizeof(WalFileHeader)) {
    result.torn_tail = size > 0;
    return result;
  }
  WalFileHeader header;
  std::memcpy(&header, raw.data(), sizeof(header));
  if (header.magic != kWalMagic || header.version != kWalVersion) {
    result.torn_tail = true;
    return result;
  }
  result.next_lsn = header.start_lsn;

  Batch pending;
  uint64_t pos = sizeof(WalFileHeader);
  Lsn expected_lsn = header.start_lsn;
  bool damaged = false;
  while (pos + sizeof(WalRecordHeader) <= size) {
    WalRecordHeader rec;
    std::memcpy(&rec, raw.data() + pos, sizeof(rec));
    if (rec.magic != kRecordMagic || rec.lsn != expected_lsn ||
        (rec.type == kPage && rec.payload_len != kPageSize)) {
      damaged = true;
      break;
    }
    if (pos + sizeof(rec) + rec.payload_len > size) {
      damaged = true;  // record chopped mid-payload
      break;
    }
    const char* payload = raw.data() + pos + sizeof(rec);
    if (RecordChecksum(rec, payload) != rec.checksum) {
      damaged = true;
      break;
    }
    pos += sizeof(rec) + rec.payload_len;
    ++expected_lsn;
    result.records_scanned++;
    result.next_lsn = rec.lsn + 1;
    if (rec.type == kPage) {
      PageImage pi;
      pi.id = rec.page_id;
      pi.lsn = rec.lsn;
      std::memcpy(pi.image.bytes.data(), payload, kPageSize);
      pending.pages.push_back(std::move(pi));
    } else {
      pending.commit_payload.assign(payload, rec.payload_len);
      pending.commit_lsn = rec.lsn;
      result.batches.push_back(std::move(pending));
      pending = Batch{};
    }
  }
  if (!damaged && pos < size) damaged = true;  // sub-header trailing bytes
  if (damaged) {
    // Classify: damage followed by an intact record is impossible under
    // the crash model (a killed appender loses the damaged byte AND
    // everything after it), so it must be at-rest alteration inside the
    // durable region. Recovery semantics are unchanged either way — the
    // suffix is unreachable without its damaged predecessor — but the
    // operator alert is very different.
    if (ValidRecordBeyond(raw, pos, expected_lsn)) {
      result.interior_corruption = true;
      InteriorCorruptionCounter().Increment();
    } else {
      result.torn_tail = true;
    }
  }
  result.records_discarded = static_cast<int64_t>(pending.pages.size());
  return result;
}

}  // namespace pdr
