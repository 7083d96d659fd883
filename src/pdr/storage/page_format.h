// The durable store's on-disk formats, shared by DiskPager and fsck: the
// per-page integrity trailer, and the store metadata (data.pdr header,
// checkpoint.pdr descriptor, the state tuple WAL commit records carry).
//
// Per-page integrity trailer: the at-rest detection layer of the
// silent-corruption defense (DESIGN.md §16).
//
// data.pdr format v2 stores each page in a fixed-size *slot*:
//
//   [file header zone: kPageSize bytes, DataFileHeader at offset 0]
//   [slot 0: page bytes ++ PageTrailer][slot 1: ...] ...
//
//   PageTrailer := {u32 magic "PDRT", u32 version, u64 lsn,
//                   u64 fnv1a64(page_id ++ lsn ++ page bytes)}
//
// The checksum is seeded with the page id and the WAL LSN of the
// after-image the slot persists, so a slot that checks out is known to be
// (a) uncorrupted, (b) the page it claims to be (a misdirected write to
// the wrong offset fails the id binding), and (c) the *version* the pager
// expects (a stale-but-intact slot fails the LSN binding during verified
// reads). DiskPager stamps trailers when it converges dirty pages and
// verifies them on every read path; the scrubber and fsck walk the slots
// offline. See disk_pager.h for who repairs what from where.
//
// Store metadata:
//
//   data.pdr header   := {u32 magic "PDRP", u32 version}
//   store state       := {u64 page_count, u64 frees, frees x u32 page id,
//                         u64 meta_len, meta_len bytes of app meta}
//   checkpoint.pdr    := {u32 magic "PDRC", u32 version, u64 epoch,
//                         u64 next_lsn, store state}
//                        ++ u64 fnv1a64(everything before it)
//
// The decoders return a well-formed object or throw CorruptionError naming
// the file, whatever the bytes: every count read from disk is checked
// against the bytes that remain before it sizes anything.

#ifndef PDR_STORAGE_PAGE_FORMAT_H_
#define PDR_STORAGE_PAGE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "pdr/common/errors.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/storage/pager.h"
#include "pdr/storage/serde.h"

namespace pdr {

inline constexpr uint32_t kPageTrailerMagic = 0x54524450u;  // "PDRT"
inline constexpr uint32_t kPageTrailerVersion = 1;

struct PageTrailer {
  uint32_t magic = kPageTrailerMagic;
  uint32_t version = kPageTrailerVersion;
  uint64_t lsn = 0;       ///< WAL LSN of the after-image this slot holds
  uint64_t checksum = 0;  ///< ComputePageChecksum(page, id, lsn)
};
static_assert(sizeof(PageTrailer) == 24, "trailer layout is on-disk format");

/// On-disk size of one page slot (page bytes + trailer).
inline constexpr size_t kSlotSize = kPageSize + sizeof(PageTrailer);

/// Byte offset of page `id`'s slot in data.pdr v2. The first kPageSize
/// bytes are the header zone (DataFileHeader at offset 0, rest reserved).
inline uint64_t SlotOffset(PageId id) {
  return kPageSize + static_cast<uint64_t>(id) * kSlotSize;
}

/// Content checksum bound to the page identity and version (see file
/// comment). FNV-1a-64 chained over page_id, lsn, then the page bytes.
inline uint64_t ComputePageChecksum(const Page& page, PageId id,
                                    uint64_t lsn) {
  uint64_t c = Fnv1a64(&id, sizeof(id));
  c = Fnv1a64(&lsn, sizeof(lsn), c);
  return Fnv1a64(page.bytes.data(), kPageSize, c);
}

inline PageTrailer MakePageTrailer(const Page& page, PageId id,
                                   uint64_t lsn) {
  PageTrailer t;
  t.lsn = lsn;
  t.checksum = ComputePageChecksum(page, id, lsn);
  return t;
}

/// Structural + content validation of a slot read back from disk.
inline bool PageTrailerValid(const PageTrailer& t, const Page& page,
                             PageId id) {
  return t.magic == kPageTrailerMagic && t.version == kPageTrailerVersion &&
         t.checksum == ComputePageChecksum(page, id, t.lsn);
}

/// The single chokepoint for surfacing an unrepairable integrity failure:
/// records the corruption micro-event, fires the flight recorder's
/// kOnCorruption dump trigger (a repro bundle before any handler unwinds,
/// mirroring CrashError's kOnCrash hook), then throws the typed error.
[[noreturn]] inline void ThrowCorruption(const std::string& file, PageId id,
                                         uint64_t offset, uint64_t expected,
                                         uint64_t actual) {
  FlightRecorder::Record(FrEvent::kCorruption, static_cast<int64_t>(id),
                         /*repaired=*/0);
  FlightRecorder::Global().TriggerDump(FlightRecorder::kOnCorruption,
                                       "corruption",
                                       FlightRecorder::CurrentQueryId());
  throw CorruptionError(file, id, offset, expected, actual);
}

inline constexpr uint32_t kDataMagic = 0x50524450u;  // "PDRP"
// v2: pages live in kSlotSize slots carrying an integrity trailer. v1
// (bare kPageSize pages, no trailer) is rejected — the formats are not
// distinguishable per page, so reading a v1 store as v2 would misreport
// every page as corrupt.
inline constexpr uint32_t kDataVersion = 2;
inline constexpr uint32_t kCkptMagic = 0x43524450u;  // "PDRC"
inline constexpr uint32_t kCkptVersion = 1;

struct DataFileHeader {
  uint32_t magic = kDataMagic;
  uint32_t version = kDataVersion;
};

/// Everything besides the page images needed to reconstruct the pager and
/// its application: carried by every WAL commit record and by the
/// checkpoint descriptor.
struct StoreState {
  uint64_t page_count = 0;
  std::vector<PageId> free_list;
  std::string app_meta;
};

struct CheckpointDescriptor {
  uint64_t epoch = 0;
  uint64_t next_lsn = 0;  ///< the WAL resumes at or after this LSN
  StoreState state;
};

inline std::string EncodeStoreState(uint64_t page_count,
                                    const std::vector<PageId>& free_list,
                                    std::string_view app_meta) {
  std::string out;
  PutPod(&out, page_count);
  PutPod(&out, static_cast<uint64_t>(free_list.size()));
  for (const PageId id : free_list) PutPod(&out, id);
  PutBlob(&out, app_meta);
  return out;
}

/// The checkpoint.pdr bytes around an EncodeStoreState() tuple.
inline std::string EncodeCheckpoint(uint64_t epoch, uint64_t next_lsn,
                                    std::string_view state) {
  std::string out;
  PutPod(&out, kCkptMagic);
  PutPod(&out, kCkptVersion);
  PutPod(&out, epoch);
  PutPod(&out, next_lsn);
  out.append(state);
  PutPod(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

/// Bounds-checked cursor over one metadata file's bytes: a read past the
/// end throws CorruptionError naming the file and the offset.
class MetaReader {
 public:
  MetaReader(std::string_view raw, const std::string& file)
      : raw_(raw), file_(file) {}

  template <typename T>
  T Get() {
    const std::string_view bytes = Take(sizeof(T));
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }

  std::string_view Take(uint64_t n) {
    if (remaining() < n) {
      ThrowCorruption(file_, kInvalidPageId, pos_, n, remaining());
    }
    const std::string_view out = raw_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  uint64_t remaining() const { return raw_.size() - pos_; }
  uint64_t pos() const { return pos_; }
  const std::string& file() const { return file_; }

 private:
  std::string_view raw_;
  const std::string& file_;
  uint64_t pos_ = 0;
};

inline StoreState ReadStoreState(MetaReader* reader) {
  StoreState state;
  state.page_count = reader->Get<uint64_t>();
  const uint64_t count_at = reader->pos();
  const uint64_t frees = reader->Get<uint64_t>();
  if (frees > reader->remaining() / sizeof(PageId)) {
    ThrowCorruption(reader->file(), kInvalidPageId, count_at,
                    reader->remaining() / sizeof(PageId), frees);
  }
  state.free_list.resize(frees);
  for (PageId& id : state.free_list) id = reader->Get<PageId>();
  state.app_meta = std::string(reader->Take(reader->Get<uint64_t>()));
  return state;
}

/// A WAL commit record's payload (`file` names the log in errors).
inline StoreState DecodeStoreState(std::string_view raw,
                                   const std::string& file) {
  MetaReader reader(raw, file);
  return ReadStoreState(&reader);
}

inline CheckpointDescriptor DecodeCheckpoint(std::string_view raw,
                                             const std::string& file) {
  if (raw.size() < sizeof(uint64_t)) {
    ThrowCorruption(file, kInvalidPageId, 0, sizeof(uint64_t), raw.size());
  }
  const size_t body = raw.size() - sizeof(uint64_t);
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, raw.data() + body, sizeof(stored_sum));
  const uint64_t computed_sum = Fnv1a64(raw.data(), body);
  if (computed_sum != stored_sum) {
    ThrowCorruption(file, kInvalidPageId, body, stored_sum, computed_sum);
  }
  MetaReader reader(raw.substr(0, body), file);
  const uint32_t magic = reader.Get<uint32_t>();
  const uint32_t version = reader.Get<uint32_t>();
  if (magic != kCkptMagic || version != kCkptVersion) {
    ThrowCorruption(file, kInvalidPageId, 0,
                    (uint64_t{kCkptVersion} << 32) | kCkptMagic,
                    (uint64_t{version} << 32) | magic);
  }
  CheckpointDescriptor ckpt;
  ckpt.epoch = reader.Get<uint64_t>();
  ckpt.next_lsn = reader.Get<uint64_t>();
  ckpt.state = ReadStoreState(&reader);
  return ckpt;
}

}  // namespace pdr

#endif  // PDR_STORAGE_PAGE_FORMAT_H_
