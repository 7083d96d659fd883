// Tests for the diagnostics layer: flight-recorder rings (single-thread
// semantics, overwrite, concurrent producers, the streaming drain),
// byte-stable golden dumps under the deterministic clock seam, dump
// triggers, the checkpoint event's payload, EXPLAIN provenance records,
// the SLO burn-rate monitor, and the Prometheus exporter.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pdr/core/fr_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/clock.h"
#include "pdr/obs/explain.h"
#include "pdr/obs/export.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/obs/slo.h"
#include "pdr/parallel/thread_pool.h"
#include "pdr/resilience/admission.h"
#include "pdr/resilience/executor.h"
#include "pdr/storage/disk_pager.h"

namespace pdr {
namespace {

// Renders through `fn(FILE*)` into a string via tmpfile().
template <typename Fn>
std::string RenderToString(Fn&& fn) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  fn(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<size_t>(size), '\0');
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!PdrObs::CompiledIn()) GTEST_SKIP() << "obs compiled out";
    FlightRecorder::Global().Reset();
    FlightRecorder::Options options;
    options.ring_capacity = 1 << 10;
    FlightRecorder::Global().Configure(options);
    FlightRecorder::SetEnabled(true);
  }
  void TearDown() override {
    if (!PdrObs::CompiledIn()) return;
    FlightRecorder::SetEnabled(false);
    FlightRecorder::Global().Reset();
    FlightRecorder::Global().Configure(FlightRecorder::Options{});
  }
};

TEST_F(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  LogicalClock clock(/*offset_ns=*/1000, /*step_ns=*/10);
  ScopedObsClock scoped(&clock);
  FlightRecorder::QueryScope scope(7);
  FlightRecorder::Record(FrEvent::kFilter, FlightRecorder::Pack(3, 4), 11);
  FlightRecorder::Record(FrEvent::kPageFault, 42, 1);
  const std::vector<MicroEvent> events = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FrEvent::kFilter);
  EXPECT_EQ(events[0].query_id, 7u);
  EXPECT_EQ(events[0].ts_ns, 1000);
  EXPECT_EQ(FlightRecorder::PackHi(events[0].a), 3);
  EXPECT_EQ(FlightRecorder::PackLo(events[0].a), 4);
  EXPECT_EQ(events[0].b, 11);
  EXPECT_EQ(events[1].kind, FrEvent::kPageFault);
  EXPECT_EQ(events[1].ts_ns, 1010);
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsEvents) {
  FlightRecorder::SetEnabled(false);
  FlightRecorder::Record(FrEvent::kPageFault, 1, 1);
  EXPECT_TRUE(FlightRecorder::Global().Snapshot().empty());
}

TEST_F(FlightRecorderTest, RingOverwriteKeepsNewestEvents) {
  FlightRecorder::Options options;
  options.ring_capacity = 16;
  FlightRecorder::Global().Configure(options);
  for (int i = 0; i < 100; ++i) {
    FlightRecorder::Record(FrEvent::kTaskRun, i);
  }
  const std::vector<MicroEvent> events = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 84 + static_cast<int64_t>(i));
  }
}

TEST_F(FlightRecorderTest, QueryScopeNestsAndRestores) {
  EXPECT_EQ(FlightRecorder::CurrentQueryId(), 0u);
  {
    FlightRecorder::QueryScope outer(5);
    EXPECT_EQ(FlightRecorder::CurrentQueryId(), 5u);
    {
      FlightRecorder::QueryScope inner(9);
      EXPECT_EQ(FlightRecorder::CurrentQueryId(), 9u);
    }
    EXPECT_EQ(FlightRecorder::CurrentQueryId(), 5u);
  }
  EXPECT_EQ(FlightRecorder::CurrentQueryId(), 0u);
}

TEST_F(FlightRecorderTest, ThreadPoolTasksInheritQueryId) {
  ThreadPool pool(2);
  {
    FlightRecorder::QueryScope scope(33);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(pool.Submit(
          [] { FlightRecorder::Record(FrEvent::kPageFault, 1, 0); }));
    }
    for (auto& f : futures) pool.Wait(f);
  }
  int attributed = 0;
  for (const MicroEvent& e : FlightRecorder::Global().Snapshot()) {
    if (e.kind == FrEvent::kPageFault) {
      EXPECT_EQ(e.query_id, 33u);
      ++attributed;
    }
  }
  EXPECT_EQ(attributed, 8);
}

// The golden dump: a fixed event sequence under the logical clock must
// render to these exact bytes, so dump formats only change deliberately.
TEST_F(FlightRecorderTest, GoldenChromeTraceDump) {
  LogicalClock clock(/*offset_ns=*/5000, /*step_ns=*/1500);
  ScopedObsClock scoped(&clock);
  FlightRecorder::QueryScope scope(3);
  FlightRecorder::Record(FrEvent::kQueryBegin, 70, 0);
  FlightRecorder::Record(FrEvent::kCellBegin, FlightRecorder::Pack(2, 5));
  FlightRecorder::Record(FrEvent::kSweep, FlightRecorder::Pack(4, 9),
                         FlightRecorder::Pack(3, 2));
  FlightRecorder::Record(FrEvent::kCellEnd, FlightRecorder::Pack(2, 5),
                         FlightRecorder::Pack(17, 2));
  FlightRecorder::Record(FrEvent::kQueryEnd, 17, 2);
  const std::vector<MicroEvent> events = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 5u);

  const std::string trace = RenderToString([&](std::FILE* f) {
    FlightRecorder::WriteChromeTrace(f, events, "golden", 3);
  });
  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"reason\":\"golden\","
      "\"query_id\":\"3\"},\"traceEvents\":[\n"
      "{\"name\":\"query\",\"cat\":\"pdr\",\"ph\":\"B\",\"ts\":5.000,"
      "\"pid\":1,\"tid\":0,\"args\":{\"qid\":3,\"detail\":{\"q_t\":70,"
      "\"rho\":\"0x0p+0\"}}},\n"
      "{\"name\":\"cell\",\"cat\":\"pdr\",\"ph\":\"B\",\"ts\":6.500,"
      "\"pid\":1,\"tid\":0,\"args\":{\"qid\":3,\"detail\":{\"col\":2,"
      "\"row\":5}}},\n"
      "{\"name\":\"sweep\",\"cat\":\"pdr\",\"ph\":\"i\",\"ts\":8.000,"
      "\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"qid\":3,\"detail\":{"
      "\"x_strips\":4,\"y_sweeps\":9,\"y_strips\":3,\"rects\":2}}},\n"
      "{\"name\":\"cell\",\"cat\":\"pdr\",\"ph\":\"E\",\"ts\":9.500,"
      "\"pid\":1,\"tid\":0},\n"
      "{\"name\":\"query\",\"cat\":\"pdr\",\"ph\":\"E\",\"ts\":11.000,"
      "\"pid\":1,\"tid\":0}\n"
      "]}\n";
  EXPECT_EQ(trace, expected);

  const std::string jsonl = RenderToString([&](std::FILE* f) {
    FlightRecorder::WriteJsonl(f, events, "golden", 3);
  });
  const std::string expected_jsonl =
      "{\"type\":\"fr_dump\",\"reason\":\"golden\",\"query_id\":3,"
      "\"events\":5}\n"
      "{\"type\":\"fr_event\",\"ts_ns\":5000,\"qid\":3,\"tid\":0,"
      "\"kind\":\"query_begin\",\"args\":{\"q_t\":70,\"rho\":\"0x0p+0\"}}\n"
      "{\"type\":\"fr_event\",\"ts_ns\":6500,\"qid\":3,\"tid\":0,"
      "\"kind\":\"cell_begin\",\"args\":{\"col\":2,\"row\":5}}\n"
      "{\"type\":\"fr_event\",\"ts_ns\":8000,\"qid\":3,\"tid\":0,"
      "\"kind\":\"sweep\",\"args\":{\"x_strips\":4,\"y_sweeps\":9,"
      "\"y_strips\":3,\"rects\":2}}\n"
      "{\"type\":\"fr_event\",\"ts_ns\":9500,\"qid\":3,\"tid\":0,"
      "\"kind\":\"cell_end\",\"args\":{\"col\":2,\"row\":5,\"objects\":17,"
      "\"rects\":2}}\n"
      "{\"type\":\"fr_event\",\"ts_ns\":11000,\"qid\":3,\"tid\":0,"
      "\"kind\":\"query_end\",\"args\":{\"objects\":17,\"dense_rects\":2}}\n";
  EXPECT_EQ(jsonl, expected_jsonl);
}

// An End whose Begin the ring overwrote degrades to an instant; a Begin
// with no End is closed synthetically at the last timestamp.
TEST_F(FlightRecorderTest, TraceRepairsUnbalancedPairs) {
  LogicalClock clock(100, 10);
  ScopedObsClock scoped(&clock);
  FlightRecorder::Record(FrEvent::kCellEnd, FlightRecorder::Pack(0, 0));
  FlightRecorder::Record(FrEvent::kQueryBegin, 5, 0);
  FlightRecorder::Record(FrEvent::kPageFault, 1, 1);
  const std::string trace = RenderToString([&](std::FILE* f) {
    FlightRecorder::WriteChromeTrace(f, FlightRecorder::Global().Snapshot(),
                                     "repair", 0);
  });
  // The orphan cell_end became an instant...
  EXPECT_NE(trace.find("\"name\":\"cell\",\"cat\":\"pdr\",\"ph\":\"i\""),
            std::string::npos);
  // ...and the dangling query Begin got a synthetic End at ts 120 ns.
  EXPECT_NE(trace.find("\"name\":\"query\",\"cat\":\"pdr\",\"ph\":\"E\","
                       "\"ts\":0.120"),
            std::string::npos);
}

// Concurrent producers hammer their rings (with overwrite) while the
// snapshot/dump path runs; the trace must stay schema-valid and nested.
// This test is in the TSan lane: the rings must be clean by construction.
TEST_F(FlightRecorderTest, ConcurrentProducersYieldValidNestedTrace) {
  FlightRecorder::Options options;
  options.ring_capacity = 128;  // force overwrite mid-flight
  FlightRecorder::Global().Configure(options);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        FlightRecorder::Record(FrEvent::kTickBegin, q, q + 10);
        FlightRecorder::QueryScope scope(
            static_cast<uint32_t>(t * 1000 + q + 1));
        FlightRecorder::Record(FrEvent::kQueryBegin, q, 0);
        for (int c = 0; c < 5; ++c) {
          FlightRecorder::Record(FrEvent::kCellBegin,
                                 FlightRecorder::Pack(c, q));
          FlightRecorder::Record(FrEvent::kSweep, 1, 1);
          FlightRecorder::Record(FrEvent::kCellEnd,
                                 FlightRecorder::Pack(c, q));
        }
        FlightRecorder::Record(FrEvent::kQueryEnd, 5, 1);
        FlightRecorder::Record(FrEvent::kTickEnd, 0, 1);
      }
    });
  }
  // Concurrent reader: snapshots while producers are mid-write must never
  // surface torn slots (validated below on the final snapshot too).
  std::vector<MicroEvent> mid = FlightRecorder::Global().Snapshot();
  for (auto& th : threads) th.join();

  const std::vector<MicroEvent> events = FlightRecorder::Global().Snapshot();
  ASSERT_FALSE(events.empty());
  // Timestamps are sorted and every event decodes to a known kind.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
  for (const MicroEvent& e : events) {
    EXPECT_STRNE(FrEventName(e.kind), "unknown");
    EXPECT_LT(static_cast<int>(e.tid), kThreads);
  }

  const std::string trace = RenderToString([&](std::FILE* f) {
    FlightRecorder::WriteChromeTrace(f, events, "concurrent", 0);
  });
  // Walk the emitted events: per-tid B/E balance may never go negative and
  // must end at zero (synthetic closes included).
  std::map<int, int> depth;
  size_t pos = 0;
  int parsed = 0;
  while ((pos = trace.find("\"ph\":\"", pos)) != std::string::npos) {
    const char ph = trace[pos + 6];
    const size_t tid_pos = trace.find("\"tid\":", pos);
    ASSERT_NE(tid_pos, std::string::npos);
    const int tid = std::stoi(trace.substr(tid_pos + 6));
    if (ph == 'B') ++depth[tid];
    if (ph == 'E') {
      --depth[tid];
      EXPECT_GE(depth[tid], 0);
    }
    ++parsed;
    pos += 6;
  }
  EXPECT_GT(parsed, 0);
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  // Ticks are slices too: the newest tick of every ring survives the
  // overwrite and renders as a Begin.
  EXPECT_NE(trace.find("\"name\":\"tick\",\"cat\":\"pdr\",\"ph\":\"B\""),
            std::string::npos);
}

// The streaming read: drains racing four producers return every event at
// most once, in per-ring order, and account for the rest as overwritten.
// This test is in the TSan lane.
TEST_F(FlightRecorderTest, DrainRacingProducersReturnsEachEventAtMostOnce) {
  FlightRecorder::Options options;
  options.ring_capacity = 64;  // force overwrite between drains
  FlightRecorder::Global().Configure(options);

  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 20000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &running] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        FlightRecorder::Record(FrEvent::kTaskRun, i, t);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::vector<MicroEvent> drained;
  int64_t overwritten = 0;
  const auto drain = [&] {
    FlightRecorder::DrainResult d = FlightRecorder::Global().Drain();
    EXPECT_GE(d.overwritten, 0);
    overwritten += d.overwritten;
    drained.insert(drained.end(), d.events.begin(), d.events.end());
  };
  while (running.load(std::memory_order_acquire) > 0) drain();
  for (auto& th : threads) th.join();
  drain();  // the tail recorded after the last racing drain

  // Per ring, the payload sequence strictly increases across all drains:
  // no event twice, none out of order, every ring owned by one producer.
  std::map<uint16_t, int64_t> last_seq;
  std::map<uint16_t, int64_t> producer_of;
  for (const MicroEvent& e : drained) {
    ASSERT_EQ(e.kind, FrEvent::kTaskRun);
    const auto [it, fresh] = producer_of.emplace(e.tid, e.b);
    EXPECT_EQ(it->second, e.b) << "tid " << e.tid;
    if (!fresh) {
      EXPECT_GT(e.a, last_seq[e.tid]) << "tid " << e.tid;
    }
    last_seq[e.tid] = e.a;
  }
  EXPECT_EQ(static_cast<int64_t>(drained.size()) + overwritten,
            int64_t{kThreads} * kEventsPerThread);
  // The final drain saw a quiescent ring: its newest event is the last.
  for (const auto& [tid, seq] : last_seq) {
    EXPECT_EQ(seq, kEventsPerThread - 1) << "tid " << tid;
  }
  // Drained means consumed; a snapshot still sees the rings.
  EXPECT_TRUE(FlightRecorder::Global().Drain().events.empty());
  EXPECT_FALSE(FlightRecorder::Global().Snapshot().empty());
}

// Configure() and Reset() while four producers record and another thread
// snapshots and drains: a ring a producer is writing into, or a reader
// copied, is retired rather than freed, and every event read back is one a
// producer wrote. This test is in the TSan lane; under ASan it fails with
// a heap-use-after-free if either retire path frees a live ring.
TEST_F(FlightRecorderTest, ReconfigureUnderLiveProducers) {
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> recorded{0};  // published every 64 events
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &stop, &recorded] {
      for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        FlightRecorder::Record(FrEvent::kTaskRun, i, t);
        if (i % 64 == 0) recorded.fetch_add(64, std::memory_order_relaxed);
      }
    });
  }
  // Every round starts only once producers have recorded since the last
  // one, so each Configure/Reset lands among live producers.
  const auto await_producers = [&recorded] {
    const int64_t seen = recorded.load(std::memory_order_relaxed);
    while (recorded.load(std::memory_order_relaxed) < seen + 4 * 64) {
      std::this_thread::yield();
    }
  };
  FlightRecorder& recorder = FlightRecorder::Global();
  std::atomic<int64_t> read{0}, foreign{0};
  const auto keep = [&](const std::vector<MicroEvent>& events) {
    for (const MicroEvent& e : events) {
      foreign += e.kind != FrEvent::kTaskRun || e.a < 0 || e.b < 0 ||
                 e.b >= kThreads;
    }
    read += static_cast<int64_t>(events.size());
  };
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      keep(recorder.Snapshot());
      keep(recorder.Drain().events);
    }
  });
  for (int round = 0; round < 100; ++round) {
    await_producers();
    FlightRecorder::Options options;
    options.ring_capacity = size_t{16} << (round % 4);
    recorder.Configure(options);
    keep(recorder.Snapshot());
    keep(recorder.Drain().events);
    recorder.Reset();
    keep(recorder.Drain().events);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  reader.join();

  EXPECT_GT(read.load(), 0);
  EXPECT_EQ(foreign.load(), 0);
  // Quiescent again: a fresh configuration records and reads normally.
  recorder.Configure(FlightRecorder::Options{});
  FlightRecorder::Record(FrEvent::kTaskRun, 7, 0);
  const std::vector<MicroEvent> after = recorder.Snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].a, 7);
}

// kCheckpoint's b is the page count that checkpoint logs, recorded before
// the WAL appends.
TEST_F(FlightRecorderTest, CheckpointEventCarriesPagesLogged) {
  char tmpl[] = "/tmp/pdr_fr_ckpt_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  {
    FrEngine fr({.extent = 200.0,
                 .histogram_side = 16,
                 .horizon = 20,
                 .buffer_pages = 16,
                 .storage_dir = dir});
    DiskPager* disk = fr.index().disk();
    ASSERT_NE(disk, nullptr);
    std::vector<int64_t> logged;
    int64_t before = disk->checkpoint_stats().pages_logged;
    for (const int n : {300, 40}) {
      for (const UpdateEvent& e : MakeClusteredInserts(n, 2, 200.0, 10.0, 0.2,
                                                       static_cast<uint64_t>(n))) {
        UpdateEvent shifted = e;
        shifted.id += static_cast<ObjectId>(logged.size()) * 1000;
        fr.Apply(shifted);
      }
      fr.Checkpoint();
      logged.push_back(disk->checkpoint_stats().pages_logged - before);
      before = disk->checkpoint_stats().pages_logged;
    }
    std::vector<int64_t> recorded;
    for (const MicroEvent& e : FlightRecorder::Global().Snapshot()) {
      if (e.kind == FrEvent::kCheckpoint) recorded.push_back(e.b);
    }
    EXPECT_EQ(recorded, logged);
    EXPECT_GT(logged[0], 0);
  }
  std::system(("rm -rf '" + dir + "'").c_str());
}

TEST_F(FlightRecorderTest, DumpHonorsTriggersAndMaxDumps) {
  char tmpl[] = "/tmp/pdr_fr_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  FlightRecorder::Options options;
  options.dump_dir = tmpl;
  options.triggers = FlightRecorder::kOnDeadlineMiss;
  options.max_dumps = 2;
  FlightRecorder::Global().Configure(options);
  FlightRecorder::Record(FrEvent::kPageFault, 1, 1);

  // Unarmed trigger: no dump.
  FlightRecorder::Global().TriggerDump(FlightRecorder::kOnCrash, "crash");
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), 0);

  FlightRecorder::Global().TriggerDump(FlightRecorder::kOnDeadlineMiss,
                                       "miss", 4);
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), 1);
  const std::string jsonl =
      std::string(tmpl) + "/fr_000_miss_q4.jsonl";
  const std::string trace =
      std::string(tmpl) + "/fr_000_miss_q4.trace.json";
  std::FILE* f = std::fopen(jsonl.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  f = std::fopen(trace.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  // The cap bounds disk usage during an incident storm.
  FlightRecorder::Global().TriggerDump(FlightRecorder::kOnDeadlineMiss, "m2");
  FlightRecorder::Global().TriggerDump(FlightRecorder::kOnDeadlineMiss, "m3");
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), 2);
}

// ---------------------------------------------------------------------------
// EXPLAIN provenance records

TEST(ExplainRecordTest, JsonAndTextNameTierStagesAndCounts) {
  ExplainRecord ex;
  ex.query_id = 12;
  ex.q_t = 70;
  ex.rho = 0.004;
  ex.l = 30.0;
  ex.tier = AnswerTier::kHistogram;
  ex.downgrade_reason = DowngradeReason::kDeadline;
  ex.timed_out = true;
  ex.budget_ms = 5.0;
  ex.elapsed_ms = 7.5;
  ex.stages.push_back({"exact", 5.2, false});
  ex.stages.push_back({"histogram", 2.1, true});
  ex.accepted_cells = 61;
  ex.rejected_cells = 5624;
  ex.candidate_cells = 4315;

  const std::string json = ex.ToJson();
  EXPECT_NE(json.find("\"tier\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"downgrade_reason\":\"deadline\""),
            std::string::npos);
  EXPECT_NE(json.find("\"candidate_cells\":4315"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"exact\""), std::string::npos);
  EXPECT_EQ(json.find("\"audit_precision\""), std::string::npos)
      << "unaudited record must omit audit fields";

  const std::string text = ex.ToText();
  EXPECT_NE(text.find("histogram"), std::string::npos);
  EXPECT_NE(text.find("deadline"), std::string::npos);
  EXPECT_NE(text.find("candidates=4315"), std::string::npos);

  ex.audited = true;
  ex.audit_precision = 0.75;
  EXPECT_NE(ex.ToJson().find("\"audit_precision\""), std::string::npos);
}

TEST(ExplainRecordTest, SignatureIgnoresTimingsAndQueryId) {
  ExplainRecord a;
  a.query_id = 1;
  a.q_t = 70;
  a.rho = 0.004;
  a.l = 30.0;
  a.tier = AnswerTier::kExact;
  a.stages.push_back({"filter", 1.0, true});
  a.stages.push_back({"refine", 2.0, true});
  a.accepted_cells = 61;
  a.candidate_cells = 4315;
  a.objects_fetched = 1000;

  ExplainRecord b = a;
  b.query_id = 999;             // new qid,
  b.stages[0].spent_ms = 17.0;  // different wall time,
  b.elapsed_ms = 100.0;         // different total,
  b.pages_read_physical = 55;   // different cache behavior:
  EXPECT_EQ(a.DeterministicSignature(), b.DeterministicSignature());

  b.candidate_cells = 4316;  // but any semantic count change shows.
  EXPECT_NE(a.DeterministicSignature(), b.DeterministicSignature());
}

// ---------------------------------------------------------------------------
// SLO burn-rate monitor

SloMonitor::Options TightSlo() {
  SloMonitor::Options options;
  options.latency_slo_ms = 10.0;
  options.target = 0.9;  // 10% error budget
  options.short_window = 4;
  options.long_window = 8;
  options.burn_alert = 2.0;
  return options;
}

TEST(SloMonitorTest, SingleSpikeDoesNotAlert) {
  SloMonitor slo(TightSlo());
  for (int i = 0; i < 100; ++i) {
    slo.OnSample(i == 50 ? 100.0 : 1.0, AnswerTier::kExact, false);
  }
  EXPECT_FALSE(slo.alerting());
  EXPECT_TRUE(slo.alerts().empty());
}

TEST(SloMonitorTest, SustainedBurnAlertsOncePerIncident) {
  SloMonitor slo(TightSlo());
  for (int i = 0; i < 20; ++i) slo.OnSample(1.0, AnswerTier::kExact, false);
  EXPECT_FALSE(slo.alerting());
  for (int i = 0; i < 20; ++i) slo.OnSample(50.0, AnswerTier::kExact, false);
  EXPECT_TRUE(slo.alerting());
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_EQ(slo.alerts()[0].signal, "latency");
  EXPECT_GE(slo.alerts()[0].burn_short, 2.0);

  // Recovery: enough good samples drain the long window below burn 1.
  for (int i = 0; i < 20; ++i) slo.OnSample(1.0, AnswerTier::kExact, false);
  EXPECT_FALSE(slo.alerting());

  // A second incident latches (and records) again.
  for (int i = 0; i < 20; ++i) slo.OnSample(50.0, AnswerTier::kExact, false);
  EXPECT_TRUE(slo.alerting());
  EXPECT_EQ(slo.alerts().size(), 2u);
}

TEST(SloMonitorTest, DegradedTierAndShedAreSeparateSignals) {
  SloMonitor slo(TightSlo());
  for (int i = 0; i < 20; ++i) {
    slo.OnSample(1.0, AnswerTier::kHistogram, false);
  }
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_EQ(slo.alerts()[0].signal, "degraded");
  for (int i = 0; i < 20; ++i) slo.OnSample(1.0, AnswerTier::kShed, true);
  ASSERT_EQ(slo.alerts().size(), 2u);
  EXPECT_EQ(slo.alerts()[1].signal, "shed");
}

TEST(SloMonitorTest, AuditQualityBelowFloorAlerts) {
  SloMonitor::Options options = TightSlo();
  options.min_audit_recall = 0.9;
  SloMonitor slo(options);
  for (int i = 0; i < 20; ++i) slo.OnAudit(1.0, 0.5);
  ASSERT_FALSE(slo.alerts().empty());
  EXPECT_EQ(slo.alerts()[0].signal, "audit");
}

TEST(SloMonitorTest, AlertHalvesAdmissionBoundAndRecoveryRestores) {
  AdmissionController admission(AdmissionController::Options{8});
  SloMonitor slo(TightSlo());
  slo.SetAdmission(&admission);
  int hook_calls = 0;
  slo.SetAlertHook([&hook_calls](const SloMonitor::Alert&) { ++hook_calls; });

  for (int i = 0; i < 20; ++i) slo.OnSample(50.0, AnswerTier::kExact, false);
  EXPECT_TRUE(slo.alerting());
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(admission.max_inflight(), 4);

  for (int i = 0; i < 20; ++i) slo.OnSample(1.0, AnswerTier::kExact, false);
  EXPECT_FALSE(slo.alerting());
  EXPECT_EQ(admission.max_inflight(), 8);
}

TEST(SloMonitorTest, BurnRatesAreQueryable) {
  SloMonitor slo(TightSlo());
  for (int i = 0; i < 8; ++i) slo.OnSample(50.0, AnswerTier::kExact, false);
  // All-bad windows: bad fraction 1.0 over a 0.1 budget = burn 10.
  EXPECT_DOUBLE_EQ(slo.BurnShort("latency"), 10.0);
  EXPECT_DOUBLE_EQ(slo.BurnLong("latency"), 10.0);
  EXPECT_DOUBLE_EQ(slo.BurnShort("nope"), 0.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(PrometheusExportTest, SanitizesNamesAndPreservesLabels) {
  if (!PdrObs::CompiledIn()) GTEST_SKIP() << "obs compiled out";
  PdrObs::SetEnabled(true);
  MetricsRegistry registry;
  registry.GetCounter("pdr.monitor.ticks").Add(41);
  registry
      .GetCounter(
          WithLabel("pdr.resilience.downgrade_reason", "reason", "deadline"))
      .Add(3);
  registry
      .GetCounter(WithLabel("pdr.resilience.downgrade_reason", "reason",
                            "quo\"te\\back"))
      .Add(1);
  registry.GetGauge("pdr.slo.burn_short{signal=\"latency\"}").Set(2.5);
  Histogram& h = registry.GetHistogram("pdr.monitor.tick_ms");
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));

  const std::string text = RenderToString([&](std::FILE* f) {
    WriteMetricsPrometheus(f, registry.TakeSnapshot());
  });

  EXPECT_NE(text.find("# TYPE pdr_monitor_ticks counter\n"
                      "pdr_monitor_ticks 41\n"),
            std::string::npos);
  // One TYPE line for the labeled family, then one series per label.
  EXPECT_NE(text.find("# TYPE pdr_resilience_downgrade_reason counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("pdr_resilience_downgrade_reason{reason=\"deadline\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find(
                "pdr_resilience_downgrade_reason{reason=\"quo\\\"te\\\\"
                "back\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE pdr_resilience_downgrade_reason counter",
                      text.find("# TYPE pdr_resilience_downgrade_reason "
                                "counter") +
                          1),
            std::string::npos)
      << "family TYPE line must not repeat";
  EXPECT_NE(text.find("pdr_slo_burn_short{signal=\"latency\"} 2.5"),
            std::string::npos);
  // Histograms export as summaries with merged quantile labels.
  EXPECT_NE(text.find("# TYPE pdr_monitor_tick_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("pdr_monitor_tick_ms{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pdr_monitor_tick_ms_sum 5050\n"), std::string::npos);
  EXPECT_NE(text.find("pdr_monitor_tick_ms_count 100\n"), std::string::npos);
  // Every metric name is sanitized: no line starts with a character
  // outside the Prometheus name charset, and no name keeps its dots.
  size_t line_start = 0;
  while (line_start < text.size()) {
    const size_t name_end = text.find_first_of(" {", line_start);
    ASSERT_NE(name_end, std::string::npos);
    const std::string name = text.substr(line_start, name_end - line_start);
    if (name != "#") {
      EXPECT_EQ(name.find('.'), std::string::npos) << name;
    }
    const size_t nl = text.find('\n', line_start);
    if (nl == std::string::npos) break;
    line_start = nl + 1;
  }
}

}  // namespace
}  // namespace pdr
