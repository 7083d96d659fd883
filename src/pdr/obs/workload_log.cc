#include "pdr/obs/workload_log.h"

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "pdr/obs/registry.h"
#include "pdr/resilience/executor.h"
#include "pdr/storage/serde.h"

namespace pdr {
namespace {

constexpr uint32_t kLogMagic = 0x4C524450u;     // "PDRL"
constexpr uint32_t kLogVersion = 1;
constexpr uint32_t kRecordMagic = 0x4345524Cu;  // "LREC"

constexpr uint8_t kTypeHeader = 1;
constexpr uint8_t kTypeUpdates = 2;
constexpr uint8_t kTypeTick = 3;

struct LogFileHeader {
  uint32_t magic = kLogMagic;
  uint32_t version = kLogVersion;
};
static_assert(sizeof(LogFileHeader) == 8);

struct RecordHeader {
  uint32_t magic = kRecordMagic;
  uint8_t type = 0;
  uint8_t pad[3] = {};
  uint32_t payload_len = 0;
  uint32_t pad2 = 0;  // keeps the u64 checksum naturally aligned
  uint64_t checksum = 0;
};
static_assert(sizeof(RecordHeader) == 24);

uint64_t RecordChecksum(uint8_t type, const std::string& payload) {
  uint64_t c = Fnv1a64(&type, sizeof(type));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  c = Fnv1a64(&len, sizeof(len), c);
  return Fnv1a64(payload.data(), payload.size(), c);
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

// Raw IEEE-754 rectangle bytes: any numeric divergence, however small,
// changes the transcript (bitwise identity, the same strength as the
// determinism tests' hexfloat convention). Raw bits instead of %a
// because the digest runs on every monitored tick — formatting four
// hexfloats per answer rect cost more than the rest of recording
// combined on dense answers (~100 µs/tick at a few hundred rects).
void AppendRegionBits(const char* name, const Region& region,
                      std::string* out) {
  AppendF(out, "%s=%zu ", name, region.size());
  for (const Rect& r : region.rects()) {
    PutPod(out, r.x_lo);
    PutPod(out, r.y_lo);
    PutPod(out, r.x_hi);
    PutPod(out, r.y_hi);
  }
  out->push_back('\n');
}

void PutMotionState(std::string* out, const MotionState& state) {
  PutPod(out, state.pos.x);
  PutPod(out, state.pos.y);
  PutPod(out, state.vel.x);
  PutPod(out, state.vel.y);
  PutPod(out, state.t_ref);
}

MotionState GetMotionState(ByteReader* reader) {
  MotionState state;
  state.pos.x = reader->Get<double>();
  state.pos.y = reader->Get<double>();
  state.vel.x = reader->Get<double>();
  state.vel.y = reader->Get<double>();
  state.t_ref = reader->Get<Tick>();
  return state;
}

std::string EncodeHeader(const WorkloadLogHeader& h) {
  std::string payload;
  PutPod(&payload, h.extent);
  PutPod(&payload, h.num_objects);
  PutPod(&payload, h.max_update_interval);
  PutPod(&payload, h.seed);
  PutPod(&payload, h.duration);
  PutPod(&payload, h.rho);
  PutPod(&payload, h.l);
  PutPod(&payload, h.lookahead);
  PutPod(&payload, h.every);
  PutPod(&payload, h.deadline_ms);
  PutPod(&payload, h.max_inflight);
  PutPod(&payload, h.degrade);
  PutPod(&payload, h.enable_exact);
  PutPod(&payload, h.enable_approx);
  PutPod(&payload, h.has_fallback);
  PutPod(&payload, h.threads);
  PutPod(&payload, h.histogram_side);
  PutPod(&payload, h.horizon);
  PutPod(&payload, h.buffer_pages);
  PutPod(&payload, h.io_ms);
  PutPod(&payload, h.index);
  PutPod(&payload, h.poly_side);
  PutPod(&payload, h.degree);
  PutPod(&payload, h.eval_grid);
  // Trailing optional fields: the FFT rung. Decoders guard on remaining
  // bytes, so pre-FFT logs (which stop at eval_grid) still parse and
  // pre-FFT readers simply ignore the tail they don't know about.
  PutPod(&payload, h.has_fft);
  PutPod(&payload, h.fft_grid);
  return payload;
}

WorkloadLogHeader DecodeHeader(ByteReader* reader) {
  WorkloadLogHeader h;
  h.extent = reader->Get<double>();
  h.num_objects = reader->Get<int32_t>();
  h.max_update_interval = reader->Get<int32_t>();
  h.seed = reader->Get<uint64_t>();
  h.duration = reader->Get<int32_t>();
  h.rho = reader->Get<double>();
  h.l = reader->Get<double>();
  h.lookahead = reader->Get<int32_t>();
  h.every = reader->Get<int32_t>();
  h.deadline_ms = reader->Get<double>();
  h.max_inflight = reader->Get<int32_t>();
  h.degrade = reader->Get<uint8_t>();
  h.enable_exact = reader->Get<uint8_t>();
  h.enable_approx = reader->Get<uint8_t>();
  h.has_fallback = reader->Get<uint8_t>();
  h.threads = reader->Get<int32_t>();
  h.histogram_side = reader->Get<int32_t>();
  h.horizon = reader->Get<int32_t>();
  h.buffer_pages = reader->Get<uint64_t>();
  h.io_ms = reader->Get<double>();
  h.index = reader->Get<uint8_t>();
  h.poly_side = reader->Get<int32_t>();
  h.degree = reader->Get<int32_t>();
  h.eval_grid = reader->Get<int32_t>();
  // Optional trailing FFT-rung fields (absent in pre-FFT captures).
  if (reader->remaining() >= sizeof(uint8_t) + sizeof(int32_t)) {
    h.has_fft = reader->Get<uint8_t>();
    h.fft_grid = reader->Get<int32_t>();
  }
  return h;
}

template <typename T>
void RequireHeaderRange(const char* field, T value, T lo, T hi,
                        const std::string& path) {
  if (value >= lo && value <= hi) return;
  throw std::runtime_error("workload log: header " + std::string(field) +
                           " = " + std::to_string(value) + " outside [" +
                           std::to_string(lo) + ", " + std::to_string(hi) +
                           "] in " + path);
}

void RequireHeaderPositive(const char* field, double value,
                           const std::string& path) {
  if (std::isfinite(value) && value > 0) return;
  throw std::runtime_error("workload log: header " + std::string(field) +
                           " = " + std::to_string(value) +
                           " is not finite and positive in " + path);
}

// Rejects a header no serving stack could be built from, before the
// replayer builds one: the ranges the engine constructors enforce, plus
// caps on every field that sizes an allocation or starts threads.
void ValidateHeader(const WorkloadLogHeader& h, const std::string& path) {
  constexpr int32_t kMaxSide = 4096;
  RequireHeaderPositive("extent", h.extent, path);
  RequireHeaderPositive("l", h.l, path);
  RequireHeaderRange("histogram_side", h.histogram_side, 1, kMaxSide, path);
  RequireHeaderRange("horizon", h.horizon, 0, int32_t{1} << 16, path);
  RequireHeaderRange("lookahead", h.lookahead, 0, h.horizon, path);
  RequireHeaderRange<uint64_t>("buffer_pages", h.buffer_pages, 4,
                               uint64_t{1} << 22, path);
  RequireHeaderRange("threads", h.threads, 0, 256, path);
  RequireHeaderRange<int>("index", h.index,
                          static_cast<int>(IndexKind::kTprTree),
                          static_cast<int>(IndexKind::kBxTree), path);
  RequireHeaderRange("poly_side", h.poly_side, 1, kMaxSide, path);
  RequireHeaderRange("degree", h.degree, 0, kChebMaxDegree, path);
  RequireHeaderRange("eval_grid", h.eval_grid, h.poly_side,
                     std::numeric_limits<int32_t>::max(), path);
  RequireHeaderRange("fft_grid", h.fft_grid, 1, kMaxSide, path);
}

// Last path component, for manifest entries.
std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string SanitizeReason(const std::string& reason) {
  std::string out;
  for (char c : reason) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out.empty() ? std::string("incident") : out;
}

void CopyFileOrThrow(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) {
    throw std::runtime_error("bundle: cannot read " + from);
  }
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    throw std::runtime_error("bundle: cannot write " + to);
  }
  char buf[1 << 16];
  size_t n;
  bool ok = true;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    if (std::fwrite(buf, 1, n, out) != n) {
      ok = false;
      break;
    }
  }
  std::fclose(in);
  if (std::fclose(out) != 0) ok = false;
  if (!ok) throw std::runtime_error("bundle: short write to " + to);
}

void MkdirOrThrow(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("bundle: cannot create " + dir + ": " +
                             std::strerror(errno));
  }
}

}  // namespace

uint64_t TickDigest(const PdrMonitor::Delta& delta) {
  std::string transcript;
  AppendF(&transcript, "now=%d q_t=%d rho=%a l=%a tier=%u reason=%u shed=%u\n",
          delta.now, delta.q_t, delta.explain.rho, delta.explain.l,
          static_cast<unsigned>(delta.tier),
          static_cast<unsigned>(delta.downgrade_reason),
          delta.shed ? 1u : 0u);
  AppendRegionBits("current", delta.current, &transcript);
  AppendRegionBits("appeared", delta.appeared, &transcript);
  AppendRegionBits("vanished", delta.vanished, &transcript);
  AppendRegionBits("maybe", delta.maybe_region, &transcript);
  AppendF(&transcript,
          "cells=%" PRId64 "/%" PRId64 "/%" PRId64 " fetched=%" PRId64
          " rects=%" PRId64 " bnb=%" PRId64 "/%" PRId64 "\n",
          delta.explain.accepted_cells, delta.explain.candidate_cells,
          delta.explain.rejected_cells, delta.explain.objects_fetched,
          delta.explain.dense_rects, delta.explain.bnb_nodes,
          delta.explain.bnb_pruned);
  return Fnv1a64(transcript.data(), transcript.size());
}

uint64_t ExplainSignatureHash(const ExplainRecord& explain) {
  const std::string sig = explain.DeterministicSignature();
  return Fnv1a64(sig.data(), sig.size());
}

WorkloadTickRecord TickRecordOf(const PdrMonitor::Delta& delta) {
  WorkloadTickRecord rec;
  rec.now = delta.now;
  rec.q_t = delta.q_t;
  rec.tier = static_cast<uint8_t>(delta.tier);
  rec.downgrade_reason = static_cast<uint8_t>(delta.downgrade_reason);
  rec.shed = delta.shed ? 1 : 0;
  rec.elapsed_ms = delta.elapsed_ms;
  rec.digest = TickDigest(delta);
  rec.sig_hash = ExplainSignatureHash(delta.explain);
  rec.epoch = delta.epoch;
  return rec;
}

WorkloadRecorder::WorkloadRecorder(const std::string& path,
                                   const WorkloadLogHeader& header)
    : path_(path), header_(header) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("workload log: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  LogFileHeader fh;
  if (std::fwrite(&fh, sizeof(fh), 1, file_) != 1) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("workload log: cannot write " + path);
  }
  stats_.bytes = sizeof(fh);
  AppendRecord(kTypeHeader, EncodeHeader(header_));
}

WorkloadRecorder::~WorkloadRecorder() {
  DisarmBundles();
  if (file_ != nullptr) std::fclose(file_);
}

void WorkloadRecorder::AppendRecord(uint8_t type, const std::string& payload) {
  RecordHeader rh;
  rh.type = type;
  rh.payload_len = static_cast<uint32_t>(payload.size());
  rh.checksum = RecordChecksum(type, payload);
  if (std::fwrite(&rh, sizeof(rh), 1, file_) != 1 ||
      (!payload.empty() &&
       std::fwrite(payload.data(), payload.size(), 1, file_) != 1)) {
    throw std::runtime_error("workload log: write failed on " + path_);
  }
  stats_.bytes += static_cast<int64_t>(sizeof(rh) + payload.size());
}

namespace {

std::string EncodeUpdates(Tick now, const std::vector<UpdateEvent>& updates) {
  std::string payload;
  PutPod(&payload, now);
  PutPod(&payload, static_cast<uint32_t>(updates.size()));
  for (const UpdateEvent& e : updates) {
    PutPod(&payload, e.id);
    const uint8_t flags = static_cast<uint8_t>((e.old_state ? 1 : 0) |
                                               (e.new_state ? 2 : 0));
    PutPod(&payload, flags);
    if (e.old_state) PutMotionState(&payload, *e.old_state);
    if (e.new_state) PutMotionState(&payload, *e.new_state);
  }
  return payload;
}

}  // namespace

void WorkloadRecorder::OnUpdates(Tick now,
                                 const std::vector<UpdateEvent>& updates) {
  if (updates.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  AppendRecord(kTypeUpdates, EncodeUpdates(now, updates));
  ++stats_.update_batches;
  stats_.updates += static_cast<int64_t>(updates.size());
}

void WorkloadRecorder::OnCommit(Tick now,
                                const std::vector<UpdateEvent>& updates,
                                uint64_t epoch) {
  std::string payload = EncodeUpdates(now, updates);
  PutPod(&payload, epoch);  // trailing field; absent in serialized logs
  std::lock_guard<std::mutex> lock(mu_);
  AppendRecord(kTypeUpdates, payload);
  ++stats_.update_batches;
  stats_.updates += static_cast<int64_t>(updates.size());
}

WorkloadTickRecord WorkloadRecorder::RecordTick(
    const PdrMonitor::Delta& delta) {
  const WorkloadTickRecord rec = TickRecordOf(delta);
  std::string payload;
  PutPod(&payload, rec.now);
  PutPod(&payload, rec.q_t);
  PutPod(&payload, rec.tier);
  PutPod(&payload, rec.downgrade_reason);
  PutPod(&payload, rec.shed);
  PutPod(&payload, rec.elapsed_ms);
  PutPod(&payload, rec.digest);
  PutPod(&payload, rec.sig_hash);
  // Trailing epoch only on snapshot answers: serialized captures keep
  // their exact pre-MVCC record bytes (and goldens).
  if (rec.epoch > 0) PutPod(&payload, rec.epoch);

  std::lock_guard<std::mutex> lock(mu_);
  AppendRecord(kTypeTick, payload);
  ++stats_.ticks;

  static Counter& ticks =
      MetricsRegistry::Global().GetCounter("pdr.workload_log.ticks");
  ticks.Increment();
  return rec;
}

void WorkloadRecorder::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

void WorkloadRecorder::ArmBundles(const std::string& bundle_dir) {
  MkdirOrThrow(bundle_dir);
  bundle_dir_ = bundle_dir;
  FlightRecorder::Global().SetDumpHook(
      [this](const FlightRecorder::DumpInfo& dump, const std::string& reason) {
        // Incident path: never let bundle I/O trouble mask the incident.
        try {
          WriteBundle(reason, dump);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "workload log: bundle write failed: %s\n",
                       e.what());
        }
      });
  hook_installed_ = true;
}

void WorkloadRecorder::DisarmBundles() {
  if (!hook_installed_) return;
  FlightRecorder::Global().SetDumpHook(nullptr);
  hook_installed_ = false;
  bundle_dir_.clear();
}

std::string WorkloadRecorder::WriteBundle(
    const std::string& reason, const FlightRecorder::DumpInfo& dump) {
  if (bundle_dir_.empty()) {
    throw std::runtime_error("bundle: ArmBundles was not called");
  }
  char name[128];
  std::snprintf(name, sizeof(name), "bundle_%03" PRId64 "_%s", stats_.bundles,
                SanitizeReason(reason).c_str());
  const std::string dir = bundle_dir_ + "/" + name;
  MkdirOrThrow(dir);

  Flush();
  CopyFileOrThrow(path_, dir + "/workload.wlog");
  std::string jsonl_name, trace_name;
  if (dump.ok) {
    jsonl_name = Basename(dump.jsonl_path);
    trace_name = Basename(dump.trace_path);
    CopyFileOrThrow(dump.jsonl_path, dir + "/" + jsonl_name);
    CopyFileOrThrow(dump.trace_path, dir + "/" + trace_name);
  }

  std::FILE* manifest = std::fopen((dir + "/MANIFEST.json").c_str(), "w");
  if (manifest == nullptr) {
    throw std::runtime_error("bundle: cannot write manifest in " + dir);
  }
  std::fprintf(manifest,
               "{\"type\":\"repro_bundle\",\"reason\":\"%s\","
               "\"workload_log\":\"workload.wlog\","
               "\"flight_jsonl\":\"%s\",\"flight_trace\":\"%s\","
               "\"ticks\":%" PRId64 ",\"updates\":%" PRId64
               ",\"log_bytes\":%" PRId64 "}\n",
               SanitizeReason(reason).c_str(), jsonl_name.c_str(),
               trace_name.c_str(), stats_.ticks, stats_.updates,
               stats_.bytes);
  std::fclose(manifest);

  ++stats_.bundles;
  static Counter& bundles =
      MetricsRegistry::Global().GetCounter("pdr.workload_log.bundles");
  bundles.Increment();
  return dir;
}

WorkloadLog WorkloadLog::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("workload log: cannot open " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);

  if (bytes.size() < sizeof(LogFileHeader)) {
    throw std::runtime_error("workload log: " + path + " is not a PDRL file");
  }
  LogFileHeader fh;
  std::memcpy(&fh, bytes.data(), sizeof(fh));
  if (fh.magic != kLogMagic) {
    throw std::runtime_error("workload log: bad magic in " + path);
  }
  if (fh.version != kLogVersion) {
    throw std::runtime_error("workload log: unsupported version in " + path);
  }

  WorkloadLog log;
  size_t pos = sizeof(fh);
  bool saw_header = false;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < sizeof(RecordHeader)) {
      log.torn_tail = true;  // a process died mid-append; keep the prefix
      break;
    }
    RecordHeader rh;
    std::memcpy(&rh, bytes.data() + pos, sizeof(rh));
    if (rh.magic != kRecordMagic) {
      throw std::runtime_error("workload log: corrupt record header in " +
                               path);
    }
    if (bytes.size() - pos - sizeof(rh) < rh.payload_len) {
      log.torn_tail = true;
      break;
    }
    const std::string payload =
        bytes.substr(pos + sizeof(rh), rh.payload_len);
    if (RecordChecksum(rh.type, payload) != rh.checksum) {
      // Interior corruption is not a torn tail: the record is fully
      // present and wrong. Refuse the whole log.
      throw std::runtime_error("workload log: checksum mismatch in " + path);
    }
    pos += sizeof(rh) + rh.payload_len;

    ByteReader reader(payload);
    switch (rh.type) {
      case kTypeHeader:
        log.header = DecodeHeader(&reader);
        ValidateHeader(log.header, path);
        saw_header = true;
        break;
      case kTypeUpdates: {
        WorkloadLogRecord rec;
        rec.kind = WorkloadLogRecord::Kind::kUpdates;
        rec.tick = reader.Get<Tick>();
        const uint32_t count = reader.Get<uint32_t>();
        // Every update takes at least an id and a flags byte, so a count
        // the payload cannot hold is corrupt; it must not size the reserve.
        if (count > reader.remaining() / (sizeof(ObjectId) + 1)) {
          throw std::runtime_error("workload log: updates record count " +
                                   std::to_string(count) +
                                   " exceeds its payload in " + path);
        }
        rec.updates.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          UpdateEvent e;
          e.tick = rec.tick;
          e.id = reader.Get<ObjectId>();
          const uint8_t flags = reader.Get<uint8_t>();
          if (flags == 0 || flags > 3) {
            throw std::runtime_error("workload log: update flags " +
                                     std::to_string(flags) +
                                     " not in [1, 3] in " + path);
          }
          if (flags & 1) e.old_state = GetMotionState(&reader);
          if (flags & 2) e.new_state = GetMotionState(&reader);
          rec.updates.push_back(std::move(e));
        }
        // Optional trailing epoch (concurrent captures only).
        if (reader.remaining() >= sizeof(uint64_t)) {
          rec.epoch = reader.Get<uint64_t>();
        }
        log.records.push_back(std::move(rec));
        break;
      }
      case kTypeTick: {
        WorkloadLogRecord rec;
        rec.kind = WorkloadLogRecord::Kind::kTick;
        rec.query.now = reader.Get<Tick>();
        rec.query.q_t = reader.Get<Tick>();
        rec.query.tier = reader.Get<uint8_t>();
        rec.query.downgrade_reason = reader.Get<uint8_t>();
        rec.query.shed = reader.Get<uint8_t>();
        rec.query.elapsed_ms = reader.Get<double>();
        rec.query.digest = reader.Get<uint64_t>();
        rec.query.sig_hash = reader.Get<uint64_t>();
        // Optional trailing epoch (snapshot answers only).
        if (reader.remaining() >= sizeof(uint64_t)) {
          rec.query.epoch = reader.Get<uint64_t>();
          rec.epoch = rec.query.epoch;
        }
        rec.tick = rec.query.now;
        log.records.push_back(std::move(rec));
        break;
      }
      default:
        throw std::runtime_error("workload log: unknown record type in " +
                                 path);
    }
  }
  if (!saw_header) {
    throw std::runtime_error("workload log: missing header record in " +
                             path);
  }
  log.bytes = static_cast<int64_t>(pos);
  return log;
}

std::string BundleWorkloadLog(const std::string& bundle_dir) {
  const std::string path = bundle_dir + "/workload.wlog";
  struct stat st;
  if (stat(path.c_str(), &st) != 0) {
    throw std::runtime_error("bundle: no workload.wlog in " + bundle_dir);
  }
  return path;
}

}  // namespace pdr
