#include "pdr/storage/fsck.h"

#include <sys/stat.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pdr/storage/page_format.h"
#include "pdr/storage/storage_file.h"
#include "pdr/storage/wal.h"

namespace pdr {
namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void AppendJson(std::string* out, const char* key, int64_t value,
                bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
}

void AppendJsonBool(std::string* out, const char* key, bool value,
                    bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += value ? "true" : "false";
}

void AppendJsonString(std::string* out, const char* key,
                      const std::string& value, bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += "\"";
}

std::string Hex(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += digits[(v >> shift) & 0xF];
  }
  return out;
}

}  // namespace

std::string FsckReport::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendJsonString(&out, "dir", dir, &first);
  AppendJsonString(&out, "error", error, &first);
  AppendJsonBool(&out, "checkpoint_ok", checkpoint_ok, &first);
  AppendJsonBool(&out, "data_header_ok", data_header_ok, &first);
  AppendJsonBool(&out, "wal_torn_tail", wal_torn_tail, &first);
  AppendJsonBool(&out, "wal_interior_corruption", wal_interior_corruption,
                 &first);
  AppendJson(&out, "wal_batches", wal_batches, &first);
  AppendJson(&out, "wal_records_discarded", wal_records_discarded, &first);
  AppendJson(&out, "epoch", static_cast<int64_t>(epoch), &first);
  AppendJson(&out, "pages_total", pages_total, &first);
  AppendJson(&out, "pages_free", pages_free, &first);
  AppendJson(&out, "pages_ok", pages_ok, &first);
  AppendJson(&out, "pages_repairable", pages_repairable, &first);
  AppendJson(&out, "pages_repaired", pages_repaired, &first);
  AppendJson(&out, "pages_unrepairable", pages_unrepairable, &first);
  AppendJson(&out, "exit_code", exit_code(), &first);
  out += ",\"damaged\":[";
  for (size_t i = 0; i < damaged.size(); ++i) {
    const FsckDamagedPage& d = damaged[i];
    if (i > 0) out += ",";
    out += "{";
    bool dfirst = true;
    AppendJson(&out, "page", static_cast<int64_t>(d.id), &dfirst);
    AppendJson(&out, "offset", static_cast<int64_t>(d.offset), &dfirst);
    AppendJsonString(&out, "expected", Hex(d.expected), &dfirst);
    AppendJsonString(&out, "actual", Hex(d.actual), &dfirst);
    AppendJsonBool(&out, "redo_covered", d.redo_covered, &dfirst);
    AppendJsonBool(&out, "repaired", d.repaired, &dfirst);
    out += "}";
  }
  out += "]}";
  return out;
}

FsckReport RunFsck(const std::string& dir, const FsckOptions& options) {
  FsckReport report;
  report.dir = dir;

  const std::string ckpt_path = dir + "/checkpoint.pdr";
  const std::string data_path = dir + "/data.pdr";
  if (!FileExists(ckpt_path) && !FileExists(data_path)) {
    report.error = "no durable store in " + dir;
    return report;
  }

  // Checkpoint descriptor: atomically published, so any damage here is
  // at-rest. The last committed WAL batch (if any) supersedes its state,
  // exactly as recovery adopts it.
  StoreState state;
  bool have_state = false;
  std::string ckpt_raw;
  if (ReadFileIfExists(ckpt_path, &ckpt_raw)) {
    try {
      CheckpointDescriptor ckpt = DecodeCheckpoint(ckpt_raw, ckpt_path);
      report.epoch = ckpt.epoch;
      state = std::move(ckpt.state);
      report.checkpoint_ok = true;
      have_state = true;
    } catch (const CorruptionError&) {
      // damaged descriptor: checkpoint_ok stays false
    }
  }

  // WAL: committed batches both supersede the checkpoint state and supply
  // the redo images that make damaged slots repairable.
  Wal wal(dir + "/wal.log", nullptr);
  const Wal::ScanResult scan = wal.Scan();
  report.wal_torn_tail = scan.torn_tail;
  report.wal_interior_corruption = scan.interior_corruption;
  report.wal_batches = static_cast<int64_t>(scan.batches.size());
  report.wal_records_discarded = scan.records_discarded;
  std::map<PageId, const Wal::PageImage*> redo;  // later images win
  for (const Wal::Batch& batch : scan.batches) {
    for (const Wal::PageImage& pi : batch.pages) redo[pi.id] = &pi;
  }
  if (!scan.batches.empty()) {
    try {
      state = DecodeStoreState(scan.batches.back().commit_payload,
                               dir + "/wal.log");
      have_state = true;
    } catch (const CorruptionError&) {
      // a malformed commit payload supersedes nothing
    }
  }
  if (!have_state) {
    report.error = "store metadata untrusted: checkpoint descriptor "
                   "damaged and no committed WAL batch supersedes it";
    return report;
  }

  StorageFile data;
  data.Open(data_path, "fsck", nullptr);
  DataFileHeader header{0, 0};
  data.ReadAt(0, &header, sizeof(header));
  if (header.magic != kDataMagic || header.version != kDataVersion) {
    report.error = "data.pdr header untrusted: magic/version " +
                   Hex((uint64_t{header.version} << 32) | header.magic);
    return report;
  }
  report.data_header_ok = true;

  const std::set<PageId> free_set(state.free_list.begin(),
                                  state.free_list.end());
  report.pages_total = static_cast<int64_t>(state.page_count);
  std::vector<char> slot(kSlotSize);
  bool wrote = false;
  for (uint64_t id64 = 0; id64 < state.page_count; ++id64) {
    const PageId id = static_cast<PageId>(id64);
    if (free_set.count(id) != 0) {
      report.pages_free++;
      continue;
    }
    data.ReadAt(SlotOffset(id), slot.data(), kSlotSize);
    Page page;
    std::memcpy(page.bytes.data(), slot.data(), kPageSize);
    PageTrailer trailer;
    std::memcpy(&trailer, slot.data() + kPageSize, sizeof(trailer));
    if (PageTrailerValid(trailer, page, id)) {
      report.pages_ok++;
      continue;
    }
    FsckDamagedPage d;
    d.id = id;
    d.offset = SlotOffset(id);
    d.expected = trailer.checksum;
    d.actual = ComputePageChecksum(page, id, trailer.lsn);
    const auto it = redo.find(id);
    d.redo_covered = it != redo.end();
    if (!d.redo_covered) {
      report.pages_unrepairable++;
    } else if (options.repair) {
      // Rewrite the slot from the committed after-image, trailer bound to
      // the image's LSN — byte-identical to what ConvergeFiles stamps, so
      // the subsequent recovery's redo over the same image is a no-op.
      const Wal::PageImage& pi = *it->second;
      const PageTrailer fresh = MakePageTrailer(pi.image, id, pi.lsn);
      std::memcpy(slot.data(), pi.image.bytes.data(), kPageSize);
      std::memcpy(slot.data() + kPageSize, &fresh, sizeof(fresh));
      data.WriteAt(SlotOffset(id), slot.data(), kSlotSize);
      wrote = true;
      d.repaired = true;
      report.pages_repaired++;
    } else {
      report.pages_repairable++;
    }
    report.damaged.push_back(d);
  }
  if (wrote) data.Sync();
  return report;
}

}  // namespace pdr
