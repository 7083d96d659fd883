// Workload log format tests: round-trip fidelity, the torn-tail /
// interior-corruption distinction, digest semantics, and repro bundles.
//
// The format contract mirrors the WAL's: an append may be torn by a dying
// process (Load returns the intact prefix, torn_tail set), but a fully
// present record that fails its checksum is interior corruption and the
// whole log is refused — a capture that lies would make every replay
// conclusion worthless.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pdr/core/monitor.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/workload_log.h"
#include "pdr/replay/replayer.h"
#include "pdr/storage/serde.h"

namespace pdr {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pdr_wlog_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

Dataset SmallDataset(uint64_t seed = 17) {
  WorkloadConfig config;
  config.WithExtent(300.0);
  config.num_objects = 120;
  config.max_update_interval = 6;
  config.seed = seed;
  return GenerateDataset(config, 10);
}

WorkloadLogHeader SmallHeader() {
  WorkloadLogHeader h;
  h.rho = 120.0 / (300.0 * 300.0);
  h.l = 40.0;
  h.lookahead = 3;
  h.every = 2;
  h.histogram_side = 20;
  h.horizon = 12;
  h.buffer_pages = 32;
  return h;
}

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(WorkloadLogTest, RecordedRunRoundTripsThroughLoad) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  const Dataset ds = SmallDataset();
  const WorkloadRecorder::Stats stats =
      RecordDataset(ds, path, SmallHeader());
  EXPECT_EQ(stats.ticks, 6);  // duration 10, cadence 2 -> ticks 0,2,...,10
  EXPECT_EQ(stats.updates, static_cast<int64_t>(ds.TotalUpdates()));
  EXPECT_GT(stats.bytes, 0);

  const WorkloadLog log = WorkloadLog::Load(path);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.bytes, stats.bytes);
  EXPECT_DOUBLE_EQ(log.header.extent, ds.config.extent);
  EXPECT_EQ(log.header.num_objects, ds.config.num_objects);
  EXPECT_EQ(log.header.seed, ds.config.seed);
  EXPECT_EQ(log.header.duration, ds.duration());
  EXPECT_DOUBLE_EQ(log.header.l, 40.0);
  EXPECT_EQ(log.header.every, 2);

  int64_t ticks = 0, updates = 0;
  for (const WorkloadLogRecord& rec : log.records) {
    if (rec.kind == WorkloadLogRecord::Kind::kTick) {
      ++ticks;
      EXPECT_EQ(rec.query.q_t, rec.query.now + 3);
      EXPECT_NE(rec.query.digest, 0u);
      EXPECT_NE(rec.query.sig_hash, 0u);
    } else {
      updates += static_cast<int64_t>(rec.updates.size());
      for (const UpdateEvent& e : rec.updates) EXPECT_EQ(e.tick, rec.tick);
    }
  }
  EXPECT_EQ(ticks, stats.ticks);
  EXPECT_EQ(updates, stats.updates);
}

TEST(WorkloadLogTest, ConcurrentEpochsRoundTripThroughLoad) {
  TempDir dir;
  const std::string path = dir.path() + "/mvcc.wlog";
  const Dataset ds = SmallDataset();
  {
    WorkloadRecorder recorder(path, SmallHeader());
    // Epoch 1: empty batch (written anyway — every epoch needs its
    // updates record); epoch 2: a real batch; plus one snapshot answer
    // pinned to each.
    recorder.OnCommit(0, {}, 1);
    PdrMonitor::Delta d1;
    d1.now = 0;
    d1.q_t = 3;
    d1.epoch = 1;
    recorder.RecordTick(d1);
    recorder.OnCommit(1, ds.ticks[0], 2);
    PdrMonitor::Delta d2;
    d2.now = 1;
    d2.q_t = 4;
    d2.epoch = 2;
    recorder.RecordTick(d2);
  }
  const WorkloadLog log = WorkloadLog::Load(path);
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records[0].kind, WorkloadLogRecord::Kind::kUpdates);
  EXPECT_EQ(log.records[0].epoch, 1u);
  EXPECT_TRUE(log.records[0].updates.empty());
  EXPECT_EQ(log.records[1].kind, WorkloadLogRecord::Kind::kTick);
  EXPECT_EQ(log.records[1].epoch, 1u);
  EXPECT_EQ(log.records[1].query.epoch, 1u);
  EXPECT_EQ(log.records[2].epoch, 2u);
  EXPECT_EQ(log.records[2].updates.size(), ds.ticks[0].size());
  EXPECT_EQ(log.records[3].query.epoch, 2u);
  EXPECT_TRUE(Replayer(log).concurrent());
}

TEST(WorkloadLogTest, SerializedLogsCarryNoEpochsAndStayByteStable) {
  // Epoch support is strictly additive: a serialized capture writes the
  // exact pre-MVCC record bytes (no trailing epoch field), loads with
  // every epoch zero, and is not classified as concurrent.
  TempDir dir;
  const std::string path = dir.path() + "/serial.wlog";
  RecordDataset(SmallDataset(), path, SmallHeader());
  const WorkloadLog log = WorkloadLog::Load(path);
  ASSERT_FALSE(log.records.empty());
  for (const WorkloadLogRecord& rec : log.records) {
    EXPECT_EQ(rec.epoch, 0u);
    if (rec.kind == WorkloadLogRecord::Kind::kTick) {
      EXPECT_EQ(rec.query.epoch, 0u);
    }
  }
  EXPECT_FALSE(Replayer(log).concurrent());
}

TEST(WorkloadLogTest, TornTailIsAcceptedAsPrefix) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  RecordDataset(SmallDataset(), path, SmallHeader());
  const WorkloadLog full = WorkloadLog::Load(path);

  // Chop into the final record, as a process dying mid-append would.
  const std::string bytes = ReadAll(path);
  const std::string torn_path = dir.path() + "/torn.wlog";
  WriteAll(torn_path, bytes.substr(0, bytes.size() - 9));

  const WorkloadLog torn = WorkloadLog::Load(torn_path);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.records.size() + 1, full.records.size());
  EXPECT_LT(torn.bytes, full.bytes);
}

TEST(WorkloadLogTest, InteriorCorruptionIsRejected) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  RecordDataset(SmallDataset(), path, SmallHeader());

  // Flip one payload byte in the middle of the file: the record is fully
  // present, so this must throw (checksum mismatch), never torn-tail.
  std::string bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x40;
  const std::string bad_path = dir.path() + "/bad.wlog";
  WriteAll(bad_path, bytes);
  EXPECT_THROW(WorkloadLog::Load(bad_path), std::runtime_error);
}

void ExpectLoadRejects(const std::string& path, const std::string& field) {
  try {
    WorkloadLog::Load(path);
    ADD_FAILURE() << path << " loaded; expected a rejection naming " << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadLogTest, OutOfRangeHeaderFieldsAreRejectedAtLoad) {
  // Each mutant would size an allocation, start threads or overflow a
  // cell count in the engines a replay builds; Load refuses it first.
  TempDir dir;
  const auto reject = [&](const char* field, auto mutate) {
    WorkloadLogHeader header = SmallHeader();
    mutate(header);
    const std::string path = dir.path() + "/" + field + ".wlog";
    { WorkloadRecorder recorder(path, header); }
    ExpectLoadRejects(path, field);
  };
  reject("histogram_side", [](auto& h) { h.histogram_side = 1 << 20; });
  reject("threads", [](auto& h) { h.threads = 100000; });
  reject("buffer_pages", [](auto& h) { h.buffer_pages = 1; });
  reject("index", [](auto& h) { h.index = 9; });
  reject("poly_side", [](auto& h) { h.poly_side = 0; });
  reject("fft_grid", [](auto& h) { h.fft_grid = 1 << 20; });
  reject("degree", [](auto& h) { h.degree = 99; });
  reject("lookahead", [](auto& h) { h.lookahead = h.horizon + 1; });
  reject("extent", [](auto& h) { h.extent = std::nan(""); });
}

// Overwrites `value` at `offset` into the payload of the log's first
// updates record and reseals the record's checksum the way the recorder
// computes it, so the decoder sees a well-formed record with one bad field.
void PatchUpdatesRecord(std::string* bytes, size_t offset,
                        const void* value, size_t size) {
  constexpr size_t kFileHeader = 8;
  constexpr size_t kRecordHeader = 24;  // magic, type, pad, len, pad, fnv
  uint32_t header_len = 0;
  std::memcpy(&header_len, bytes->data() + kFileHeader + 8,
              sizeof(header_len));
  const size_t rec = kFileHeader + kRecordHeader + header_len;
  const uint8_t type = static_cast<uint8_t>((*bytes)[rec + 4]);
  ASSERT_EQ(type, 2) << "second record is not the updates record";
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, bytes->data() + rec + 8, sizeof(payload_len));
  char* payload = bytes->data() + rec + kRecordHeader;
  std::memcpy(payload + offset, value, size);
  uint64_t checksum = Fnv1a64(&type, sizeof(type));
  checksum = Fnv1a64(&payload_len, sizeof(payload_len), checksum);
  checksum = Fnv1a64(payload, payload_len, checksum);
  std::memcpy(bytes->data() + rec + 16, &checksum, sizeof(checksum));
}

TEST(WorkloadLogTest, ResealedUpdatesRecordWithBadCountOrFlagsIsRejected) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  {
    WorkloadRecorder recorder(path, SmallHeader());
    recorder.OnUpdates(0, SmallDataset().ticks[0]);
  }
  ASSERT_NO_THROW(WorkloadLog::Load(path));
  const std::string bytes = ReadAll(path);

  // Payload: tick, count, then per update its id and flags byte.
  const std::string count_path = dir.path() + "/count.wlog";
  std::string count_bytes = bytes;
  const uint32_t count = 0xFFFFFFFFu;
  PatchUpdatesRecord(&count_bytes, sizeof(Tick), &count, sizeof(count));
  WriteAll(count_path, count_bytes);
  ExpectLoadRejects(count_path, "count");

  const std::string flags_path = dir.path() + "/flags.wlog";
  std::string flags_bytes = bytes;
  const uint8_t flags = 0;
  PatchUpdatesRecord(&flags_bytes,
                     sizeof(Tick) + sizeof(uint32_t) + sizeof(ObjectId),
                     &flags, sizeof(flags));
  WriteAll(flags_path, flags_bytes);
  ExpectLoadRejects(flags_path, "flags");
}

TEST(WorkloadLogTest, BadMagicAndMissingFileAreRejected) {
  TempDir dir;
  EXPECT_THROW(WorkloadLog::Load(dir.path() + "/absent.wlog"),
               std::runtime_error);
  const std::string junk = dir.path() + "/junk.wlog";
  WriteAll(junk, "this is not a workload log at all");
  EXPECT_THROW(WorkloadLog::Load(junk), std::runtime_error);
}

TEST(WorkloadLogTest, TickDigestCoversAnswerBitsButNotWallTime) {
  PdrMonitor::Delta delta;
  delta.now = 4;
  delta.q_t = 7;
  delta.current.Add(Rect(10.0, 10.0, 40.0, 40.0));
  delta.explain.rho = 0.01;
  delta.explain.l = 30.0;
  const uint64_t base = TickDigest(delta);

  // Wall time and I/O are execution details, not answer bits.
  PdrMonitor::Delta timed = delta;
  timed.elapsed_ms = 123.0;
  timed.explain.elapsed_ms = 123.0;
  timed.explain.pages_read_physical = 999;
  EXPECT_EQ(TickDigest(timed), base);

  // The tiniest answer perturbation must move the digest (raw-bits
  // transcript: one ulp is a different bit pattern).
  PdrMonitor::Delta nudged = delta;
  nudged.current = Region();
  nudged.current.Add(
      Rect(10.0, 10.0, std::nextafter(40.0, 41.0), 40.0));
  EXPECT_NE(TickDigest(nudged), base);

  PdrMonitor::Delta degraded = delta;
  degraded.tier = AnswerTier::kHistogram;
  EXPECT_NE(TickDigest(degraded), base);
}

TEST(WorkloadLogTest, WriteBundleProducesSelfContainedDirectory) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  const Dataset ds = SmallDataset();

  WorkloadLogHeader header = SmallHeader();
  header.extent = ds.config.extent;
  header.num_objects = ds.config.num_objects;
  WorkloadRecorder recorder(path, header);
  recorder.ArmBundles(dir.path() + "/bundles");

  // An explicit bundle write (no flight dump attached): manifest + log.
  const std::string bundle =
      recorder.WriteBundle("unit_test", FlightRecorder::DumpInfo{});
  EXPECT_NE(bundle.find("bundle_000_unit_test"), std::string::npos) << bundle;
  EXPECT_EQ(recorder.stats().bundles, 1);

  const std::string wlog = BundleWorkloadLog(bundle);
  const WorkloadLog log = WorkloadLog::Load(wlog);
  EXPECT_EQ(log.header.num_objects, ds.config.num_objects);
  const std::string manifest = ReadAll(bundle + "/MANIFEST.json");
  EXPECT_NE(manifest.find("\"type\":\"repro_bundle\""), std::string::npos);
  EXPECT_NE(manifest.find("\"reason\":\"unit_test\""), std::string::npos);

  EXPECT_THROW(BundleWorkloadLog(dir.path() + "/not_a_bundle"),
               std::runtime_error);
  recorder.DisarmBundles();
}

}  // namespace
}  // namespace pdr
