// End-to-end smoke test for the pdr_tool CLI, run against the real
// binary (path injected by CMake as PDR_TOOL_BIN). Covers the strict
// argument contract — unknown commands, unknown flags, stray
// positionals, and missing required flags all print usage and exit 2 —
// plus a gen/info/query round trip, the deadline-bounded query path, and
// the `--trace` stream (flight-recorder dump blocks drained per query or
// tick).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "json_util.h"
#include "pdr/obs/obs.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/page_format.h"

namespace pdr {
namespace {

#ifndef PDR_TOOL_BIN
#error "PDR_TOOL_BIN must be defined to the pdr_tool binary path"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr interleaved
};

RunResult RunTool(const std::string& args) {
  const std::string cmd = std::string(PDR_TOOL_BIN) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

// `ls DIR` output (one name per line).
std::string ListDir(const std::string& dir) {
  std::string files;
  FILE* pipe = popen(("ls " + dir).c_str(), "r");
  if (pipe == nullptr) return files;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) files.append(buf, n);
  pclose(pipe);
  return files;
}

// A parsed `--trace FILE`: the flight-recorder events of every dump block
// in file order, the block count, and the metrics snapshot's counters.
// Every line must parse as JSON (the parser fails the test otherwise).
struct TraceFile {
  std::vector<JsonValue> events;
  int blocks = 0;
  std::map<std::string, double> counters;

  std::string Kind(size_t i) const { return events[i].Find("kind")->str(); }
  double Arg(size_t i, const char* name) const {
    return events[i].Find("args")->Find(name)->number();
  }
  double Qid(size_t i) const { return events[i].Find("qid")->number(); }
  int Count(const std::string& kind) const {
    int n = 0;
    for (size_t i = 0; i < events.size(); ++i) n += Kind(i) == kind;
    return n;
  }
};

TraceFile ReadTrace(const std::string& path) {
  TraceFile trace;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue doc = JsonParser(line).Parse();
    if (doc.Find("type") == nullptr) {
      ADD_FAILURE() << "untyped trace line: " << line;
      continue;
    }
    const std::string type = doc.Find("type")->str();
    if (type == "fr_dump") {
      ++trace.blocks;
    } else if (type == "fr_event") {
      trace.events.push_back(doc);
    } else if (type == "counter") {
      trace.counters[doc.Find("name")->str()] = doc.Find("value")->number();
    }
  }
  return trace;
}

// The integer printed right after `label` in `text` (-1 when absent).
long long NumberAfter(const std::string& text, const std::string& label) {
  const size_t at = text.find(label);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + label.size()));
}

class CliTest : public ::testing::Test {
 protected:
  // One tiny dataset shared by every test in the suite.
  static void SetUpTestSuite() {
    char tmpl[] = "/tmp/pdr_cli_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    dir_ = new std::string(dir);
    dataset_ = new std::string(*dir_ + "/ds.bin");
    const RunResult gen =
        RunTool("gen --out " + *dataset_ +
            " --objects 80 --extent 200 --duration 8 --interval 4 --seed 5");
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
  }

  static void TearDownTestSuite() {
    std::system(("rm -rf '" + *dir_ + "'").c_str());
    delete dataset_;
    delete dir_;
  }

  static const std::string& dataset() { return *dataset_; }
  static std::string TempPath(const std::string& name) {
    return *dir_ + "/" + name;
  }

 private:
  static std::string* dir_;
  static std::string* dataset_;
};

std::string* CliTest::dir_ = nullptr;
std::string* CliTest::dataset_ = nullptr;

TEST_F(CliTest, NoArgumentsPrintsUsageAndExits2) {
  const RunResult r = RunTool("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage"), std::string::npos) << r.output;
}

TEST_F(CliTest, UnknownCommandIsRejected) {
  const RunResult r = RunTool("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage"), std::string::npos) << r.output;
}

TEST_F(CliTest, UnknownFlagIsRejectedPerCommand) {
  // --qt is valid for query but not for monitor; each command owns its
  // own flag set.
  const RunResult r = RunTool("monitor --in " + dataset() + " --qt 3");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --qt for 'monitor'"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, StrayPositionalIsRejected) {
  const RunResult r = RunTool("info " + dataset());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unexpected argument"), std::string::npos)
      << r.output;
}

TEST_F(CliTest, MissingRequiredFlagIsRejected) {
  EXPECT_EQ(RunTool("query --varrho 2").exit_code, 2);
  EXPECT_EQ(RunTool("gen --objects 10").exit_code, 2);
  EXPECT_EQ(RunTool("save --in " + dataset()).exit_code, 2);  // needs --wal-dir
}

TEST_F(CliTest, MissingDatasetFileFailsCleanly) {
  const RunResult r = RunTool("info --in /nonexistent/ds.bin");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error"), std::string::npos) << r.output;
}

TEST_F(CliTest, GenInfoQueryRoundTrip) {
  const RunResult info = RunTool("info --in " + dataset());
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("objects   : 80"), std::string::npos)
      << info.output;

  const RunResult query =
      RunTool("query --in " + dataset() + " --varrho 2 --l 25 --engine fr");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("FR (tpr):"), std::string::npos) << query.output;
}

TEST_F(CliTest, DeadlineBoundedQueryReportsTierAndBudget) {
  const RunResult r =
      RunTool("query --in " + dataset() + " --varrho 2 --l 25 --deadline-ms 5000");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tier="), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("ms budget"), std::string::npos) << r.output;
}

TEST_F(CliTest, PreExpiredDeadlineDegradesToHistogram) {
  const RunResult r = RunTool("query --in " + dataset() +
                          " --varrho 2 --l 25 --deadline-ms 0.0001");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tier=histogram (timed out)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("certainly dense"), std::string::npos) << r.output;
}

TEST_F(CliTest, DeadlineWithoutDegradeFailsTheQuery) {
  const RunResult r = RunTool("query --in " + dataset() +
                          " --varrho 2 --l 25 --deadline-ms 0.0001 "
                          "--degrade 0");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error"), std::string::npos) << r.output;
}

TEST_F(CliTest, MonitorRunsWithDeadlineAndAdmission) {
  const RunResult r = RunTool("monitor --in " + dataset() +
                          " --varrho 2 --l 25 --lookahead 2 --every 4 "
                          "--deadline-ms 5000 --max-inflight 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("dense"), std::string::npos) << r.output;
}

TEST_F(CliTest, ExplainNamesTierStagesAndCounts) {
  const RunResult text =
      RunTool("explain --in " + dataset() + " --varrho 2 --l 25");
  EXPECT_EQ(text.exit_code, 0) << text.output;
  EXPECT_NE(text.output.find("tier:     exact"), std::string::npos)
      << text.output;
  EXPECT_NE(text.output.find("filter:"), std::string::npos) << text.output;
  EXPECT_NE(text.output.find("stages:"), std::string::npos) << text.output;

  const RunResult json = RunTool("explain --in " + dataset() +
                             " --varrho 2 --l 25 --format json");
  EXPECT_EQ(json.exit_code, 0) << json.output;
  EXPECT_NE(json.output.find("\"tier\":\"exact\""), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"candidate_cells\":"), std::string::npos)
      << json.output;
}

TEST_F(CliTest, ExplainDeadlineMissNamesDowngradeReasonAndWritesDump) {
  char tmpl[] = "/tmp/pdr_cli_fr_XXXXXX";
  const char* flight_dir = mkdtemp(tmpl);
  ASSERT_NE(flight_dir, nullptr);
  const RunResult r = RunTool("explain --in " + dataset() +
                          " --varrho 2 --l 25 --deadline-ms 0.0001 "
                          "--flight-dir " + flight_dir);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("reason:   deadline"), std::string::npos)
      << r.output;
  if (PdrObs::CompiledIn()) {
    // The miss left a Perfetto-loadable dump pair behind.
    const std::string listing = ListDir(flight_dir);
    EXPECT_NE(listing.find("deadline_miss"), std::string::npos) << listing;
    EXPECT_NE(listing.find(".trace.json"), std::string::npos) << listing;
  }
  std::system((std::string("rm -rf '") + flight_dir + "'").c_str());
}

// `query --trace F`: one dump block per query, drained from the flight
// recorder's rings, whose events reproduce the printed answer's counts —
// serially and with the refinement fanned out over worker rings — and
// carry the query's id: the dataset replay in front of it is dropped.
TEST_F(CliTest, QueryTraceDrainsOneQueryPerBlock) {
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(std::string("--threads ") + threads);
    const std::string path = TempPath("query_trace.jsonl");
    std::remove(path.c_str());
    const RunResult r =
        RunTool("query --in " + dataset() + " --varrho 2 --l 25 --engine fr "
                "--threads " + threads + " --trace " + path);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const long long reads = NumberAfter(r.output, "ms I/O (");
    const long long accepted = NumberAfter(r.output, "cells a/c/r = ");
    ASSERT_GE(reads, 0) << r.output;
    ASSERT_GE(accepted, 0) << r.output;
    const std::string acr = r.output.substr(r.output.find("a/c/r = ") + 8);
    const long long candidates = NumberAfter(acr, "/");
    const long long rejected =
        NumberAfter(acr.substr(acr.find('/') + 1), "/");
    const TraceFile trace = ReadTrace(path);
    EXPECT_EQ(trace.blocks, 1);
    if (!PdrObs::CompiledIn()) continue;
    EXPECT_NE(r.output.find("(0 events overwritten)"), std::string::npos)
        << r.output;

    ASSERT_EQ(trace.Count("query_begin"), 1);
    ASSERT_EQ(trace.Count("query_end"), 1);
    // The dataset replay's events were dropped before the query ran.
    for (size_t i = 0; i < trace.events.size(); ++i) {
      EXPECT_NE(trace.Qid(i), 0) << trace.Kind(i);
    }
    EXPECT_EQ(trace.Count("cell_begin"), candidates);
    EXPECT_EQ(trace.Count("cell_end"), candidates);
    EXPECT_EQ(trace.Count("range_query"),
              trace.counters.at("pdr.tpr.range_queries"));
    long long range_reads = 0;
    size_t begin = 0, end = 0;
    for (size_t i = 0; i < trace.events.size(); ++i) {
      const std::string kind = trace.Kind(i);
      if (kind == "range_query") range_reads += trace.Arg(i, "physical");
      if (kind == "query_begin") begin = i;
      if (kind == "query_end") end = i;
      if (kind == "filter") {
        EXPECT_EQ(trace.Arg(i, "accepted"), accepted);
        EXPECT_EQ(trace.Arg(i, "candidates"), candidates);
        EXPECT_EQ(trace.Arg(i, "rejected"), rejected);
      }
    }
    EXPECT_EQ(range_reads, reads);
    ASSERT_LT(begin, end);
    const double qid = trace.Qid(begin);
    EXPECT_NE(qid, 0);
    std::map<double, int> tids;
    for (size_t i = begin; i <= end; ++i) {
      EXPECT_EQ(trace.Qid(i), qid) << trace.Kind(i);
      ++tids[trace.events[i].Find("tid")->number()];
    }
    if (std::string(threads) == "4") {
      EXPECT_GT(tids.size(), 1u) << "refinement ran on worker rings";
    }
  }

  // A replay that alone would wrap the 65,536-event ring (12,000 objects
  // over 120 ticks: ~80k ingest events) is dropped before the query, so
  // the block holds only the query and nothing is overwritten.
  const std::string data = TempPath("replay_overflow.bin");
  const RunResult gen = RunTool("gen --out " + data +
                                " --objects 12000 --duration 120 --seed 3");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const std::string path = TempPath("replay_overflow.jsonl");
  std::remove(path.c_str());
  const RunResult r = RunTool("query --in " + data +
                              " --varrho 2 --l 30 --engine fr --trace " + path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const TraceFile trace = ReadTrace(path);
  EXPECT_EQ(trace.blocks, 1);
  if (!PdrObs::CompiledIn()) return;
  EXPECT_NE(r.output.find("(0 events overwritten)"), std::string::npos)
      << r.output;
  ASSERT_EQ(trace.Count("query_begin"), 1);
  EXPECT_EQ(trace.Kind(0), "query_begin");
  for (size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_NE(trace.Qid(i), 0) << trace.Kind(i);
  }
}

// `monitor --trace F`: every evaluated tick is one block holding one
// tick_begin/tick_end pair around exactly one query pair.
TEST_F(CliTest, MonitorTraceEnclosesOneQueryPerTick) {
  const std::string path = TempPath("monitor_trace.jsonl");
  std::remove(path.c_str());
  const RunResult r = RunTool("monitor --in " + dataset() +
                              " --varrho 2 --l 25 --lookahead 2 --every 2 "
                              "--trace " + path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  int ticks = 0;  // one "t=..." line per evaluated tick
  for (size_t at = 0; at < r.output.size();
       at = r.output.find('\n', at) + 1) {
    ticks += r.output.compare(at, 2, "t=") == 0;
    if (r.output.find('\n', at) == std::string::npos) break;
  }
  ASSERT_GT(ticks, 1) << r.output;
  const TraceFile trace = ReadTrace(path);
  EXPECT_EQ(trace.blocks, ticks);
  if (!PdrObs::CompiledIn()) return;
  EXPECT_NE(r.output.find("(0 events overwritten)"), std::string::npos)
      << r.output;
  EXPECT_EQ(trace.Count("tick_begin"), ticks);
  EXPECT_EQ(trace.Count("tick_end"), ticks);
  int open_tick = 0, queries_in_tick = 0, open_query = 0;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const std::string kind = trace.Kind(i);
    if (kind == "tick_begin") {
      EXPECT_EQ(open_tick, 0);
      open_tick = 1;
      queries_in_tick = 0;
    } else if (kind == "query_begin") {
      EXPECT_EQ(open_tick, 1);
      EXPECT_EQ(open_query, 0);
      open_query = 1;
      ++queries_in_tick;
    } else if (kind == "query_end") {
      EXPECT_EQ(open_query, 1);
      open_query = 0;
    } else if (kind == "tick_end") {
      EXPECT_EQ(open_tick, 1);
      EXPECT_EQ(open_query, 0);
      EXPECT_EQ(queries_in_tick, 1);
      open_tick = 0;
    }
  }
  EXPECT_EQ(open_tick, 0);
}

// `--trace` and `--flight-dir` together: the deadline miss still writes
// its dump pair, and the trace holds the ladder's tier events.
TEST_F(CliTest, QueryTraceWithFlightDirKeepsDumpsAndTierEvents) {
  char tmpl[] = "/tmp/pdr_cli_fr_XXXXXX";
  const char* flight_dir = mkdtemp(tmpl);
  ASSERT_NE(flight_dir, nullptr);
  const std::string path = TempPath("deadline_trace.jsonl");
  std::remove(path.c_str());
  const RunResult r = RunTool("query --in " + dataset() +
                              " --varrho 2 --l 25 --deadline-ms 1e-3 "
                              "--trace " + path + " --flight-dir " +
                              flight_dir);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(timed out)"), std::string::npos) << r.output;
  const TraceFile trace = ReadTrace(path);
  EXPECT_EQ(trace.blocks, 1);
  if (PdrObs::CompiledIn()) {
    const std::string listing = ListDir(flight_dir);
    EXPECT_NE(listing.find(".trace.json"), std::string::npos) << listing;
    // fr_000_deadline_miss_q<ID>.jsonl: the trace's tier events are the
    // dumped query's.
    const long long qid = NumberAfter(listing, "deadline_miss_q");
    ASSERT_GT(qid, 0) << listing;
    EXPECT_GT(trace.Count("tier_enter"), 0);
    EXPECT_GT(trace.Count("cancelled"), 0);
    for (size_t i = 0; i < trace.events.size(); ++i) {
      const std::string kind = trace.Kind(i);
      if (kind == "tier_enter" || kind == "cancelled") {
        EXPECT_EQ(trace.Qid(i), qid) << kind;
      }
    }
  }
  std::system((std::string("rm -rf '") + flight_dir + "'").c_str());
}

TEST_F(CliTest, StatsPrometheusFormatIsScrapable) {
  const RunResult r = RunTool("stats --in " + dataset() +
                          " --varrho 2 --l 25 --format prometheus");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("# TYPE pdr_fr_queries counter"), std::string::npos)
      << r.output;
  // Exposition names never contain dots.
  EXPECT_EQ(r.output.find("pdr.fr"), std::string::npos) << r.output;
}

TEST_F(CliTest, RecordReplayRoundTripVerifiesBitIdentical) {
  char tmpl[] = "/tmp/pdr_cli_wlog_XXXXXX";
  const char* wdir = mkdtemp(tmpl);
  ASSERT_NE(wdir, nullptr);
  const std::string log = std::string(wdir) + "/run.wlog";

  const RunResult rec = RunTool("record --in " + dataset() + " --log " + log +
                            " --varrho 2 --l 25 --lookahead 2 --every 2");
  EXPECT_EQ(rec.exit_code, 0) << rec.output;
  EXPECT_NE(rec.output.find("recorded " + log), std::string::npos)
      << rec.output;

  // Verify at the recorded width and at an explicit parallel override —
  // the capture's whole point is that both are bit-identical.
  for (const std::string threads : {"", " --threads 4"}) {
    const RunResult verify =
        RunTool("replay --log " + log + " --verify" + threads);
    EXPECT_EQ(verify.exit_code, 0) << verify.output;
    EXPECT_NE(verify.output.find("ticks bit-identical"), std::string::npos)
        << verify.output;
  }

  const RunResult bench =
      RunTool("replay --log " + log + " --bench --jsonl -");
  EXPECT_EQ(bench.exit_code, 0) << bench.output;
  EXPECT_NE(bench.output.find("\"series\":\"replay_bench\""),
            std::string::npos)
      << bench.output;
  EXPECT_NE(bench.output.find("\"p99_ms\":"), std::string::npos)
      << bench.output;

  std::system((std::string("rm -rf '") + wdir + "'").c_str());
}

TEST_F(CliTest, RecordReplayKeepTheStrictFlagContract) {
  // Unknown flags exit 2 with the per-command message, like every other
  // command.
  const RunResult rec = RunTool("record --in " + dataset() + " --frobnicate");
  EXPECT_EQ(rec.exit_code, 2);
  EXPECT_NE(rec.output.find("unknown flag --frobnicate for 'record'"),
            std::string::npos)
      << rec.output;
  const RunResult rep = RunTool("replay --log /tmp/x.wlog --qt 3");
  EXPECT_EQ(rep.exit_code, 2);
  EXPECT_NE(rep.output.find("unknown flag --qt for 'replay'"),
            std::string::npos)
      << rep.output;

  // record needs both inputs; replay needs exactly one source.
  EXPECT_EQ(RunTool("record --in " + dataset()).exit_code, 2);
  EXPECT_EQ(RunTool("replay").exit_code, 2);
  const RunResult both =
      RunTool("replay --log /tmp/a.wlog --bundle /tmp/b");
  EXPECT_EQ(both.exit_code, 2);
  EXPECT_NE(both.output.find("exactly one of --log/--bundle"),
            std::string::npos)
      << both.output;

  // A missing log is a runtime error (exit 1), not a usage error.
  const RunResult missing = RunTool("replay --log /nonexistent/run.wlog");
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_NE(missing.output.find("error"), std::string::npos) << missing.output;
}

TEST_F(CliTest, MonitorRejectsDeadlineWithAudit) {
  const RunResult r = RunTool("monitor --in " + dataset() +
                          " --audit-rate 0.5 --deadline-ms 100");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("FR-primary"), std::string::npos) << r.output;
}

TEST_F(CliTest, MonitorRejectsDegreeBeyondTableBound) {
  // A PA degree past the fixed per-order tables is an option error (exit
  // 1), not a stack overflow; the same run at the default degree succeeds.
  char tmpl[] = "/tmp/pdr_cli_degree_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string data = std::string(dir) + "/d.bin";
  const RunResult gen = RunTool("gen --out " + data +
                                " --objects 300 --duration 20 --seed 3");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const std::string monitor = "monitor --in " + data +
                              " --varrho 3 --l 30 --every 1 --lookahead 5"
                              " --audit-rate 0.5 --degree ";
  const RunResult bad = RunTool(monitor + "40");
  const RunResult good = RunTool(monitor + "5");
  std::system(("rm -rf '" + std::string(dir) + "'").c_str());
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(bad.output.find("error:"), std::string::npos) << bad.output;
  EXPECT_EQ(good.exit_code, 0) << good.output;
}

TEST_F(CliTest, ConcurrentMonitorReportsConsistentDigests) {
  const RunResult r = RunTool("monitor --in " + dataset() +
                          " --varrho 2 --l 25 --lookahead 2 --concurrent 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("epochs committed"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("cross-reader per-epoch digests consistent"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, ConcurrentMonitorSurvivesTreeCondense) {
  // A denser, longer stream than the shared dataset: updates empty whole
  // TPR leaves, so the MVCC tree condenses nodes through its external
  // pager.
  char tmpl[] = "/tmp/pdr_cli_condense_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string data = std::string(dir) + "/ds.bin";
  const RunResult gen = RunTool("gen --out " + data +
                                " --objects 1000 --extent 200 --duration 60"
                                " --interval 4 --seed 11");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const RunResult r = RunTool("monitor --in " + data +
                              " --varrho 3 --l 30 --lookahead 5"
                              " --concurrent 1");
  std::system(("rm -rf '" + std::string(dir) + "'").c_str());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cross-reader per-epoch digests consistent"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, ConcurrentMonitorReaderErrorExitsOneWithTheMessage) {
  // The default --lookahead 10 lies past the dataset's horizon H = 2U = 8:
  // every snapshot query throws on its reader thread, whichever epoch it
  // pins. The error must reach main (exit 1, "error: ..."), not
  // std::terminate (exit 134).
  const RunResult r = RunTool("monitor --in " + dataset() +
                              " --varrho 3 --l 30 --concurrent 1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: fr query at t="), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("outside horizon"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("(H=8)"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("terminate"), std::string::npos) << r.output;
}

TEST_F(CliTest, ConcurrentMonitorRefusesFlagsItDoesNotImplement) {
  // Refused before any work starts, so no directory or file is created.
  for (const std::string flag :
       {"--deadline-ms", "--audit-rate", "--every", "--wal-dir", "--report",
        "--slo-ms", "--flight-dir"}) {
    const RunResult r = RunTool("monitor --in " + dataset() +
                                " --varrho 2 --l 25 --lookahead 2"
                                " --concurrent 1 " + flag + " 1");
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("error: " + flag + " is not supported"),
              std::string::npos)
        << r.output;
  }
}

TEST_F(CliTest, ConcurrentMonitorHonorsThreads) {
  const RunResult r = RunTool("monitor --in " + dataset() +
                              " --varrho 2 --l 25 --lookahead 2"
                              " --concurrent 2 --threads 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cross-reader per-epoch digests consistent"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, FsckCleanStoreExitsZero) {
  char tmpl[] = "/tmp/pdr_cli_fsck_XXXXXX";
  const char* wdir = mkdtemp(tmpl);
  ASSERT_NE(wdir, nullptr);
  const std::string store = std::string(wdir) + "/store";

  const RunResult save =
      RunTool("save --in " + dataset() + " --wal-dir " + store);
  ASSERT_EQ(save.exit_code, 0) << save.output;

  const RunResult fsck = RunTool("fsck --wal-dir " + store);
  EXPECT_EQ(fsck.exit_code, 0) << fsck.output;
  EXPECT_NE(fsck.output.find("checkpoint ok"), std::string::npos)
      << fsck.output;
  EXPECT_NE(fsck.output.find("0 unrepairable"), std::string::npos)
      << fsck.output;
  std::system((std::string("rm -rf '") + wdir + "'").c_str());
}

TEST_F(CliTest, FsckUnrepairableDamageExitsThreeAndReportsJson) {
  char tmpl[] = "/tmp/pdr_cli_fsck_XXXXXX";
  const char* wdir = mkdtemp(tmpl);
  ASSERT_NE(wdir, nullptr);
  const std::string store = std::string(wdir) + "/store";
  ASSERT_EQ(RunTool("save --in " + dataset() + " --wal-dir " + store)
                .exit_code,
            0);
  // Cold bit-rot on a cleanly saved store: the WAL is empty, so nothing
  // can reconstruct the page.
  ASSERT_TRUE(FlipBitInFile(store + "/data.pdr", SlotOffset(0) + 99, 3));

  const RunResult fsck = RunTool("fsck --wal-dir " + store);
  EXPECT_EQ(fsck.exit_code, 3) << fsck.output;
  EXPECT_NE(fsck.output.find("UNREPAIRABLE"), std::string::npos)
      << fsck.output;

  const RunResult json = RunTool("fsck --wal-dir " + store + " --json");
  EXPECT_EQ(json.exit_code, 3) << json.output;
  EXPECT_NE(json.output.find("\"exit_code\":3"), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"pages_unrepairable\":1"), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"redo_covered\":false"), std::string::npos)
      << json.output;

  // The damaged store also refuses to recover through the normal path.
  const RunResult recover =
      RunTool("recover --in " + dataset() + " --wal-dir " + store);
  EXPECT_EQ(recover.exit_code, 1) << recover.output;
  std::system((std::string("rm -rf '") + wdir + "'").c_str());
}

TEST_F(CliTest, FsckRepairHealsRedoCoveredDamageThenRecoverSucceeds) {
  char tmpl[] = "/tmp/pdr_cli_fsck_XXXXXX";
  const char* wdir = mkdtemp(tmpl);
  ASSERT_NE(wdir, nullptr);
  const std::string store = std::string(wdir) + "/store";
  ASSERT_EQ(::mkdir(store.c_str(), 0775), 0);

  // A store crashed mid-converge: checkpoint 2's batch is committed in
  // the WAL but no slot write happened, then cold damage lands on a
  // covered slot. (Built through the library — the CLI has no crash
  // injection — then verified and repaired through the real binary.)
  const auto fill = [](DiskPager* pager, int phase) {
    for (PageId id = 0; id < 4; ++id) {
      if (phase == 0) EXPECT_EQ(pager->Allocate(), id);
      Page p;
      for (size_t b = 0; b < kPageSize; ++b) {
        p.bytes[b] =
            static_cast<std::byte>((phase * 211 + id * 131 + b * 7) & 0xFF);
      }
      pager->WritePage(id, p);
    }
  };
  int64_t crash_at = -1;
  {
    FaultInjector counter;
    char rt[] = "/tmp/pdr_cli_fsck_XXXXXX";
    const char* rdir = mkdtemp(rt);
    ASSERT_NE(rdir, nullptr);
    DiskPager pager(rdir, &counter);
    fill(&pager, 0);
    pager.Checkpoint("a");
    fill(&pager, 1);  // re-dirty the same pages
    const size_t before = counter.op_log().size();
    pager.Checkpoint("b");
    bool synced = false;
    for (size_t i = before; i < counter.op_log().size(); ++i) {
      if (counter.op_log()[i] == "wal.sync") synced = true;
      if (synced && counter.op_log()[i] == "data.write") {
        crash_at = static_cast<int64_t>(i);
        break;
      }
    }
    std::system((std::string("rm -rf '") + rdir + "'").c_str());
  }
  ASSERT_GE(crash_at, 0);
  {
    FaultInjector injector;
    injector.Arm(crash_at, CrashMode::kClean);
    DiskPager pager(store, &injector);
    fill(&pager, 0);
    pager.Checkpoint("a");
    fill(&pager, 1);
    EXPECT_THROW(pager.Checkpoint("b"), CrashError);
  }
  ASSERT_TRUE(FlipBitInFile(store + "/data.pdr", SlotOffset(2) + 77, 1));

  // Report-only: the damage is visible but covered by the WAL.
  const RunResult dry = RunTool("fsck --wal-dir " + store);
  EXPECT_EQ(dry.exit_code, 0) << dry.output;
  EXPECT_NE(dry.output.find("repairable from WAL"), std::string::npos)
      << dry.output;

  // Repair heals the slot in place; a second pass finds nothing damaged.
  const RunResult repair = RunTool("fsck --wal-dir " + store + " --repair");
  EXPECT_EQ(repair.exit_code, 0) << repair.output;
  EXPECT_NE(repair.output.find("(repaired)"), std::string::npos)
      << repair.output;
  const RunResult clean = RunTool("fsck --wal-dir " + store + " --json");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("\"damaged\":[]"), std::string::npos)
      << clean.output;

  // And the store opens: recovery replays the committed batch on top of
  // the healed slots and surfaces checkpoint-b state.
  DiskPager recovered(store);
  EXPECT_TRUE(recovered.recovered());
  EXPECT_EQ(recovered.recovered_meta(), "b");
  for (PageId id = 0; id < 4; ++id) {
    Page got;
    recovered.ReadPage(id, &got);
    EXPECT_EQ(got.bytes[0],
              static_cast<std::byte>((211 + id * 131) & 0xFF))
        << "page " << id;
  }
  std::system((std::string("rm -rf '") + wdir + "'").c_str());
}

TEST_F(CliTest, MonitorScrubBudgetRequiresWalDir) {
  const RunResult r =
      RunTool("monitor --in " + dataset() + " --scrub-budget 4");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--scrub-budget needs --wal-dir"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, DurableMonitorScrubsAndCheckpoints) {
  char tmpl[] = "/tmp/pdr_cli_fsck_XXXXXX";
  const char* wdir = mkdtemp(tmpl);
  ASSERT_NE(wdir, nullptr);
  const std::string store = std::string(wdir) + "/store";
  const RunResult r = RunTool("monitor --in " + dataset() +
                              " --varrho 2 --l 25 --lookahead 2 --wal-dir " +
                              store + " --checkpoint-every 2 --scrub-budget 8");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("durable :"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("scrub   :"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 unrepairable"), std::string::npos) << r.output;

  const RunResult fsck = RunTool("fsck --wal-dir " + store);
  EXPECT_EQ(fsck.exit_code, 0) << fsck.output;
  std::system((std::string("rm -rf '") + wdir + "'").c_str());
}

TEST_F(CliTest, ConcurrentRecordReplaysBitIdentical) {
  char tmpl[] = "/tmp/pdr_cli_mvcc_XXXXXX";
  const char* wdir = mkdtemp(tmpl);
  ASSERT_NE(wdir, nullptr);
  const std::string log = std::string(wdir) + "/mvcc.wlog";

  const RunResult rec = RunTool("record --in " + dataset() + " --log " + log +
                            " --varrho 2 --l 25 --lookahead 2 --every 2"
                            " --concurrent 2");
  EXPECT_EQ(rec.exit_code, 0) << rec.output;
  EXPECT_NE(rec.output.find("(concurrent)"), std::string::npos) << rec.output;

  for (const std::string threads : {"", " --threads 4"}) {
    const RunResult verify =
        RunTool("replay --log " + log + " --verify --digests" + threads);
    EXPECT_EQ(verify.exit_code, 0) << verify.output;
    EXPECT_NE(verify.output.find("ticks bit-identical"), std::string::npos)
        << verify.output;
    EXPECT_NE(verify.output.find("digest t="), std::string::npos)
        << verify.output;
  }
  std::system((std::string("rm -rf '") + wdir + "'").c_str());
}

}  // namespace
}  // namespace pdr
