// Differential-testing harness for the parallel query paths.
//
// Hundreds of seeded random scenarios assert that (a) the FR engine's
// answer is bit-identical across execution policies — serial, 2, 4, and 8
// threads — down to the exact rectangle sequence and every derived
// counter, (b) the answer matches the brute-force oracle as a point set,
// and (c) the PA engine and its shadow-audit metrics are likewise
// policy-independent and internally consistent.
//
// On failure the harness *shrinks*: it halves the object count while the
// scenario still fails and reports the seed plus the minimal failing
// size, so a reproduction is one line:
//   differential_test --gtest_filter=... (seed and size in the message).

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/oracle.h"
#include "pdr/core/pa_engine.h"
#include "pdr/fft/fft_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/snapshot_query.h"
#include "pdr/obs/audit.h"
#include "pdr/obs/workload_log.h"
#include "pdr/parallel/exec_policy.h"
#include "pdr/replay/replayer.h"
#include "pdr/resilience/executor.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;
const int kPolicies[] = {2, 4, 8};

// Exact bitwise comparison of two rectangle sequences (no tolerance: the
// parallel merge is defined to reproduce the serial sequence).
bool SameRects(const Region& a, const Region& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "rect count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const Rect& ra = a.rects()[i];
    const Rect& rb = b.rects()[i];
    if (ra.x_lo != rb.x_lo || ra.y_lo != rb.y_lo || ra.x_hi != rb.x_hi ||
        ra.y_hi != rb.y_hi) {
      std::ostringstream os;
      os << "rect " << i << ": " << ra.ToString() << " vs " << rb.ToString();
      *why = os.str();
      return false;
    }
  }
  return true;
}

struct FrScenario {
  uint64_t seed = 0;
  int objects = 0;
  bool clustered = false;
  int clusters = 1;
  double rho = 0.0;
  double l = 20.0;
  Tick q_t = 0;
};

FrScenario MakeFrScenario(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  FrScenario s;
  s.seed = seed;
  s.objects = static_cast<int>(rng.UniformInt(40, 250));
  s.clustered = rng.NextDouble() < 0.5;
  s.clusters = static_cast<int>(rng.UniformInt(1, 4));
  s.l = rng.Uniform(12.0, 30.0);
  const double rho_scale = rng.Uniform(0.5, 8.0);
  s.rho = rho_scale * s.objects / (kExtent * kExtent);
  s.q_t = static_cast<Tick>(rng.UniformInt(0, 5));
  return s;
}

std::vector<UpdateEvent> FrWorkload(const FrScenario& s, int objects) {
  return s.clustered
             ? MakeClusteredInserts(objects, s.clusters, kExtent, 8.0, 0.3,
                                    s.seed)
             : MakeUniformInserts(objects, kExtent, 1.5, s.seed);
}

// Runs one scenario at the given object count; false (with a reason) on
// any serial/parallel or FR/oracle disagreement.
bool RunFrScenario(const FrScenario& s, int objects, std::string* why) {
  FrEngine fr({.extent = kExtent,
               .histogram_side = 16,
               .horizon = 20,
               .buffer_pages = 64});
  Oracle oracle(kExtent);
  for (const UpdateEvent& e : FrWorkload(s, objects)) {
    fr.Apply(e);
    oracle.Apply(e);
  }

  // Cold, like every policy run below, so physical reads compare too.
  const auto serial = fr.Query(s.q_t, s.rho, s.l, /*cold_cache=*/true);

  // Oracle check: same point set (decompositions may differ).
  const Region truth = oracle.DenseRegions(s.q_t, s.rho, s.l);
  const double sym = SymmetricDifferenceArea(serial.region, truth);
  if (std::fabs(sym) > 1e-6) {
    *why = "FR vs oracle symmetric difference " + std::to_string(sym);
    return false;
  }

  // Policy check: bit-identical result and counters at every width.
  for (int threads : kPolicies) {
    fr.SetExecPolicy(ExecPolicy::Parallel(threads));
    const auto par = fr.Query(s.q_t, s.rho, s.l, /*cold_cache=*/true);
    std::string detail;
    if (!SameRects(serial.region, par.region, &detail)) {
      *why = "threads=" + std::to_string(threads) + ": " + detail;
      return false;
    }
    if (par.objects_fetched != serial.objects_fetched ||
        par.candidate_cells != serial.candidate_cells ||
        par.accepted_cells != serial.accepted_cells ||
        par.rejected_cells != serial.rejected_cells ||
        par.sweep.dense_rects != serial.sweep.dense_rects ||
        par.sweep.x_strips != serial.sweep.x_strips ||
        par.sweep.y_sweeps != serial.sweep.y_sweeps ||
        par.cost.io.logical_reads != serial.cost.io.logical_reads ||
        par.cost.io.physical_reads != serial.cost.io.physical_reads) {
      *why = "threads=" + std::to_string(threads) + ": counter mismatch";
      return false;
    }
  }
  fr.SetExecPolicy(ExecPolicy::Serial());
  return true;
}

// Shrinks a failing scenario by halving the object count while it still
// fails; reports the minimal failing size with the original seed.
void ShrinkAndFail(const FrScenario& s, const std::string& first_why) {
  int failing = s.objects;
  std::string why = first_why;
  while (failing > 1) {
    const int half = failing / 2;
    std::string half_why;
    if (RunFrScenario(s, half, &half_why)) break;
    failing = half;
    why = half_why;
  }
  ADD_FAILURE() << "seed=" << s.seed << " objects=" << failing
                << " (shrunk from " << s.objects << ") rho=" << s.rho
                << " l=" << s.l << " q_t=" << s.q_t
                << (s.clustered ? " clustered" : " uniform") << ": " << why;
}

TEST(DifferentialTest, FrSerialParallelOracleAgreeAcross160Seeds) {
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    const FrScenario s = MakeFrScenario(seed);
    std::string why;
    if (!RunFrScenario(s, s.objects, &why)) ShrinkAndFail(s, why);
  }
}

// PA scenarios: the approximate engine must also be policy-independent,
// and its shadow-audit verdict (scored against an exact FR replay) must
// be internally consistent and identical at every thread count.
TEST(DifferentialTest, PaSerialParallelAndAuditAgreeAcross40Seeds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 0x51ed270cULL + 7);
    const int objects = static_cast<int>(rng.UniformInt(40, 250));
    const double l = 25.0;
    const double rho = rng.Uniform(0.5, 4.0) * objects / (kExtent * kExtent);

    PaEngine pa({.extent = kExtent,
                 .poly_side = 4,
                 .degree = 5,
                 .horizon = 10,
                 .l = l,
                 .eval_grid = 64});
    FrEngine fr({.extent = kExtent,
                 .histogram_side = 16,
                 .horizon = 20,
                 .buffer_pages = 64});
    Oracle oracle(kExtent);
    for (const UpdateEvent& e :
         MakeClusteredInserts(objects, 2, kExtent, 10.0, 0.2, seed)) {
      pa.Apply(e);
      fr.Apply(e);
      oracle.Apply(e);
    }

    const auto serial = pa.Query(0, rho);
    ShadowAuditor auditor(&fr, &oracle, {.sample_rate = 1.0, .l = l});
    const AuditVerdict verdict = auditor.Audit(0, rho, serial.region);

    // Audit-metric bounds: precision/recall are area ratios in [0, 1],
    // the overlap can exceed neither side, and Agrees() must coincide
    // with a zero symmetric difference.
    EXPECT_GE(verdict.precision, 0.0) << "seed=" << seed;
    EXPECT_LE(verdict.precision, 1.0 + 1e-9) << "seed=" << seed;
    EXPECT_GE(verdict.recall, 0.0) << "seed=" << seed;
    EXPECT_LE(verdict.recall, 1.0 + 1e-9) << "seed=" << seed;
    EXPECT_GE(verdict.false_reject_frac, -1e-9) << "seed=" << seed;
    EXPECT_LE(verdict.false_reject_frac, 1.0 + 1e-9) << "seed=" << seed;
    EXPECT_LE(verdict.overlap_area,
              std::min(verdict.pa_area, verdict.fr_area) + 1e-6)
        << "seed=" << seed;
    EXPECT_NEAR(verdict.pa_area, serial.region.Area(), 1e-6)
        << "seed=" << seed;

    for (int threads : kPolicies) {
      pa.SetExecPolicy(ExecPolicy::Parallel(threads));
      const auto par = pa.Query(0, rho);
      std::string detail;
      if (!SameRects(serial.region, par.region, &detail)) {
        ADD_FAILURE() << "PA seed=" << seed << " threads=" << threads << ": "
                      << detail;
        continue;
      }
      EXPECT_EQ(par.bnb.nodes_visited, serial.bnb.nodes_visited)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(par.bnb.accepted_boxes, serial.bnb.accepted_boxes)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(par.bnb.pruned_boxes, serial.bnb.pruned_boxes)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(par.bnb.point_evals, serial.bnb.point_evals)
          << "seed=" << seed << " threads=" << threads;
      // The audit scores areas, so identical regions must produce an
      // identical verdict.
      const AuditVerdict v2 = auditor.Audit(0, rho, par.region);
      EXPECT_EQ(v2.precision, verdict.precision)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(v2.recall, verdict.recall)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// Resilience differential property: with no deadline pressure the ladder
// is a pass-through — a generously-budgeted ResilientExecutor (serial and
// parallel) reproduces the plain engine's answer bit for bit, rectangle
// sequence and counters included, across many seeded scenarios.
TEST(DifferentialTest, GenerousDeadlineBitIdenticalToUnboundedAcross40Seeds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const FrScenario s = MakeFrScenario(seed);
    FrEngine fr({.extent = kExtent,
                 .histogram_side = 16,
                 .horizon = 20,
                 .buffer_pages = 64});
    for (const UpdateEvent& e : FrWorkload(s, s.objects)) fr.Apply(e);

    const auto plain = fr.Query(s.q_t, s.rho, s.l);
    ResilientExecutor exec(&fr, nullptr, {.deadline_ms = 1e9});
    const TieredResult bounded = exec.Query(s.q_t, s.rho, s.l);
    ASSERT_EQ(bounded.tier, AnswerTier::kExact) << "seed=" << seed;
    EXPECT_FALSE(bounded.timed_out) << "seed=" << seed;
    std::string why;
    if (!SameRects(plain.region, bounded.region, &why)) {
      ADD_FAILURE() << "seed=" << seed << " serial ladder: " << why;
    }

    for (int threads : kPolicies) {
      fr.SetExecPolicy(ExecPolicy::Parallel(threads));
      const TieredResult par = exec.Query(s.q_t, s.rho, s.l);
      ASSERT_EQ(par.tier, AnswerTier::kExact)
          << "seed=" << seed << " threads=" << threads;
      if (!SameRects(plain.region, par.region, &why)) {
        ADD_FAILURE() << "seed=" << seed << " threads=" << threads << ": "
                      << why;
      }
      EXPECT_EQ(par.cost.io.logical_reads, plain.cost.io.logical_reads)
          << "seed=" << seed << " threads=" << threads;
      // The same page sequence from the same pool state: the serial ladder
      // query left the pool where each later repetition leaves it.
      EXPECT_EQ(par.cost.io.physical_reads, bounded.cost.io.physical_reads)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------
// FFT-rung differential lane: with the exact rung disabled and an
// FftDensityEngine attached, the ladder must answer at tier kFft with a
// certain/maybe sandwich around the exact FR answer (the documented error
// bound, DESIGN.md §15), and the answer must be bit-identical — full
// hexfloat transcript — no matter how many threads the FR engine runs on
// (the FFT rung never touches the pool). Shrink-on-failure as above.
// ---------------------------------------------------------------------

std::string FftTranscript(const TieredResult& r) {
  std::ostringstream os;
  os << "tier=" << AnswerTierName(r.tier)
     << " reason=" << DowngradeReasonName(r.downgrade_reason) << " cells="
     << r.explain.accepted_cells << '/' << r.explain.candidate_cells << '/'
     << r.explain.rejected_cells << " region=" << std::hexfloat;
  for (const Rect& rect : r.region.rects()) {
    os << '[' << rect.x_lo << ',' << rect.y_lo << ',' << rect.x_hi << ','
       << rect.y_hi << ']';
  }
  os << " maybe=";
  for (const Rect& rect : r.maybe_region.rects()) {
    os << '[' << rect.x_lo << ',' << rect.y_lo << ',' << rect.x_hi << ','
       << rect.y_hi << ']';
  }
  return os.str();
}

bool RunFftRungScenario(const FrScenario& s, int objects, std::string* why) {
  FrEngine fr({.extent = kExtent,
               .histogram_side = 16,
               .horizon = 20,
               .buffer_pages = 64});
  FftDensityEngine fft({.extent = kExtent, .grid = 64, .horizon = 20});
  for (const UpdateEvent& e : FrWorkload(s, objects)) {
    fr.Apply(e);
    fft.Apply(e);
  }

  const Region exact = fr.Query(s.q_t, s.rho, s.l).region;
  ResilientExecutor exec(&fr, nullptr, {.enable_exact = false}, &fft);
  const TieredResult serial = exec.Query(s.q_t, s.rho, s.l);
  if (serial.tier != AnswerTier::kFft) {
    *why = std::string("tier ") + AnswerTierName(serial.tier) + " != fft";
    return false;
  }
  if (serial.downgrade_reason != DowngradeReason::kDisabled) {
    *why = std::string("reason ") +
           DowngradeReasonName(serial.downgrade_reason) + " != disabled";
    return false;
  }

  // The documented bound: accepts subset exact subset accepts+candidates
  // (containment by area; the raster's closed edges differ from the
  // report grid's half-open edges on a measure-zero set).
  const double below = RegionDifference(serial.region, exact).Area();
  if (below > 1e-6) {
    *why = "fft accepts escape exact FR by area " + std::to_string(below);
    return false;
  }
  const double above = RegionDifference(exact, serial.maybe_region).Area();
  if (above > 1e-6) {
    *why = "exact FR escapes fft maybe region by area " +
           std::to_string(above);
    return false;
  }

  // Thread-count invariance, transcript-exact: the FR engine's pool width
  // must not perturb the FFT rung in any bit.
  const std::string want = FftTranscript(serial);
  for (int threads : kPolicies) {
    fr.SetExecPolicy(ExecPolicy::Parallel(threads));
    const std::string got = FftTranscript(exec.Query(s.q_t, s.rho, s.l));
    if (got != want) {
      *why = "threads=" + std::to_string(threads) +
             ": transcript diverged\n  want " + want + "\n  got  " + got;
      return false;
    }
  }
  fr.SetExecPolicy(ExecPolicy::Serial());
  return true;
}

void FftShrinkAndFail(const FrScenario& s, const std::string& first_why) {
  int failing = s.objects;
  std::string why = first_why;
  while (failing > 1) {
    const int half = failing / 2;
    std::string half_why;
    if (RunFftRungScenario(s, half, &half_why)) break;
    failing = half;
    why = half_why;
  }
  ADD_FAILURE() << "seed=" << s.seed << " objects=" << failing
                << " (shrunk from " << s.objects << ") rho=" << s.rho
                << " l=" << s.l << " q_t=" << s.q_t
                << (s.clustered ? " clustered" : " uniform") << ": " << why;
}

TEST(DifferentialTest, FftRungSandwichesExactFrAcross200Seeds) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const FrScenario s = MakeFrScenario(seed);
    std::string why;
    if (!RunFftRungScenario(s, s.objects, &why)) FftShrinkAndFail(s, why);
  }
}

// EXPLAIN provenance property: the deterministic part of the plan record
// (tier, stage names and completion flags, candidate/accept/reject and
// sweep counters — everything except wall-clock timings, IO, and the
// query id) is identical whether the engine ran serially or on 2/4/8
// worker threads. A thread-dependent signature would make EXPLAIN output
// useless for regression diffing, so this is asserted across many seeds.
TEST(DifferentialTest, ExplainSignatureEquivalentAcrossThreadCounts) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const FrScenario s = MakeFrScenario(seed);
    FrEngine fr({.extent = kExtent,
                 .histogram_side = 16,
                 .horizon = 20,
                 .buffer_pages = 64});
    for (const UpdateEvent& e : FrWorkload(s, s.objects)) fr.Apply(e);

    ResilientExecutor exec(&fr, nullptr, {.deadline_ms = 1e9});
    const TieredResult serial = exec.Query(s.q_t, s.rho, s.l);
    ASSERT_EQ(serial.tier, AnswerTier::kExact) << "seed=" << seed;
    const std::string want = serial.explain.DeterministicSignature();
    EXPECT_NE(want.find("tier=exact"), std::string::npos) << want;

    for (int threads : kPolicies) {
      fr.SetExecPolicy(ExecPolicy::Parallel(threads));
      const TieredResult par = exec.Query(s.q_t, s.rho, s.l);
      EXPECT_EQ(par.explain.DeterministicSignature(), want)
          << "seed=" << seed << " threads=" << threads;
    }
    fr.SetExecPolicy(ExecPolicy::Serial());
  }
}

// Workload-capture differential property: a recorded monitoring run
// replays bit-identically — every tick digest and EXPLAIN signature hash
// — at 2, 4, and 8 threads. This is the replay feature's whole claim
// (any captured incident becomes a cross-thread-count differential test),
// so it gets the same seeded-sweep treatment as the query paths above.
TEST(DifferentialTest, ReplayVerifyBitIdenticalAcrossThreadCounts) {
  char tmpl[] = "/tmp/pdr_diff_replay_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    WorkloadConfig config;
    config.WithExtent(kExtent);
    config.num_objects = 100 + static_cast<int>(seed) * 20;
    config.max_update_interval = 5;
    config.seed = seed * 31 + 7;
    const Dataset ds = GenerateDataset(config, 8);

    WorkloadLogHeader header;
    header.rho = 2.0 * config.num_objects / (kExtent * kExtent);
    header.l = 25.0;
    header.lookahead = 2;
    header.every = 2;
    header.histogram_side = 16;
    header.horizon = 10;
    header.buffer_pages = 64;
    const std::string path =
        std::string(dir) + "/seed" + std::to_string(seed) + ".wlog";
    RecordDataset(ds, path, header);

    const Replayer replayer = Replayer::FromFile(path);
    for (int threads : kPolicies) {
      ReplayOptions options;
      options.threads = threads;
      const ReplayResult result = replayer.Run(options);
      EXPECT_TRUE(result.ok())
          << "seed=" << seed << " threads=" << threads << ": "
          << result.mismatch_count << " of " << result.ticks
          << " ticks diverged";
    }
  }
  std::system(("rm -rf '" + std::string(dir) + "'").c_str());
}

// Calibrated quality floor on one fixed, heavily clustered workload: PA
// with a fine evaluation grid must find most of the truly dense area and
// not hallucinate much. Loose bounds — this guards against gross
// regressions in the PA-vs-FR agreement, not approximation noise.
TEST(DifferentialTest, PaQualityFloorOnClusteredWorkload) {
  const double l = 25.0;
  PaEngine pa({.extent = kExtent,
               .poly_side = 4,
               .degree = 6,
               .horizon = 10,
               .l = l,
               .eval_grid = 128});
  FrEngine fr({.extent = kExtent,
               .histogram_side = 16,
               .horizon = 20,
               .buffer_pages = 64});
  Oracle oracle(kExtent);
  for (const UpdateEvent& e :
       MakeClusteredInserts(600, 2, kExtent, 12.0, 0.1, 2027)) {
    pa.Apply(e);
    fr.Apply(e);
    oracle.Apply(e);
  }
  const double rho = 1.5 * 600 / (kExtent * kExtent);
  const auto result = pa.Query(0, rho);
  ShadowAuditor auditor(&fr, &oracle, {.sample_rate = 1.0, .l = l});
  const AuditVerdict verdict = auditor.Audit(0, rho, result.region);
  ASSERT_GT(verdict.fr_area, 0.0) << "workload not dense enough to score";
  EXPECT_GE(verdict.recall, 0.3) << "PA missed most of the dense area";
  EXPECT_GE(verdict.precision, 0.3) << "PA mostly hallucinated density";
}

// ---------------------------------------------------------------------
// MVCC differential: seeded mixed update/query schedules, snapshot reads
// vs serialized execution, at serial / 2 / 4 / 8 reader threads, with the
// same shrink-on-failure reporting as the FR harness above. The deep
// per-interleaving transcript harness lives in mvcc_interleave_test.cc;
// this section sweeps many more schedules with a cheaper digest.
// ---------------------------------------------------------------------

const int kMvccReaderCounts[] = {0, 2, 4, 8};  // 0 = serial (inline)

std::string MvccTranscript(const FrEngine::QueryResult& r, Tick q_t) {
  std::ostringstream os;
  os << "q_t=" << q_t << " cells=" << r.accepted_cells << '/'
     << r.candidate_cells << '/' << r.rejected_cells << " fetched="
     << r.objects_fetched << " dense=" << r.sweep.dense_rects
     << " logical=" << r.cost.io.logical_reads << " region=" << std::hexfloat;
  for (const Rect& rect : r.region.rects()) {
    os << '[' << rect.x_lo << ',' << rect.y_lo << ',' << rect.x_hi << ','
       << rect.y_hi << ']';
  }
  return os.str();
}

struct MvccScenario {
  uint64_t seed = 0;
  int objects = 0;
  Tick duration = 0;
  double rho = 0.0;
  double l = 20.0;
};

MvccScenario MakeMvccScenario(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 13);
  MvccScenario s;
  s.seed = seed;
  s.objects = static_cast<int>(rng.UniformInt(60, 200));
  s.duration = static_cast<Tick>(rng.UniformInt(6, 14));
  s.l = rng.Uniform(15.0, 30.0);
  s.rho = rng.Uniform(1.0, 6.0) * s.objects / (kExtent * kExtent);
  return s;
}

// One scenario at one reader count: per tick the writer applies the
// seeded batch, commits an epoch, records the serialized transcript for
// each scheduled query, and pins a snapshot the readers race later
// commits to answer. False (with a reason) on the first divergence.
bool RunMvccScenario(const MvccScenario& s, int objects, int readers,
                     std::string* why) {
  mvcc::SnapshotManager snapshots;
  FrEngine fr({.extent = kExtent,
               .histogram_side = 16,
               .horizon = 24,
               .buffer_pages = 64,
               .max_update_interval = 6,
               .snapshots = &snapshots});
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = objects;
  config.max_update_interval = 6;
  config.seed = s.seed * 101 + 3;
  const Dataset ds = GenerateDataset(config, s.duration);
  Rng rng(s.seed * 0x9E3779B97F4A7C15ULL + 29);

  struct Work {
    mvcc::Snapshot snap;
    Tick q_t = 0;
    std::string expected;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Work> queue;
  bool writer_done = false;
  std::string failure;

  auto run_one = [&](Work& w) {
    const mvcc::Epoch epoch = w.snap.epoch();
    const std::string got =
        MvccTranscript(mvcc::SnapshotFrQuery(fr, w.snap, w.q_t, s.rho, s.l),
                       w.q_t);
    w.snap.Release();
    if (got != w.expected) {
      std::lock_guard<std::mutex> lock(mu);
      if (failure.empty()) {
        failure = "epoch " + std::to_string(epoch) + " diverged: want " +
                  w.expected + " got " + got;
      }
    }
  };
  auto reader_loop = [&] {
    for (;;) {
      Work w;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || writer_done; });
        if (queue.empty()) return;
        w = std::move(queue.front());
        queue.pop_front();
      }
      run_one(w);
    }
  };
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) pool.emplace_back(reader_loop);

  for (Tick now = 0; now <= ds.duration(); ++now) {
    fr.AdvanceTo(now);
    for (const UpdateEvent& e : ds.ticks[now]) fr.Apply(e);
    fr.Commit();
    const int queries = static_cast<int>(rng.UniformInt(0, 2));
    for (int q = 0; q < queries; ++q) {
      Work w;
      w.q_t = now + static_cast<Tick>(rng.UniformInt(0, 5));
      w.expected = MvccTranscript(fr.Query(w.q_t, s.rho, s.l), w.q_t);
      w.snap = snapshots.Pin();
      if (readers == 0) {
        run_one(w);
      } else {
        {
          std::lock_guard<std::mutex> lock(mu);
          queue.push_back(std::move(w));
        }
        cv.notify_one();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    writer_done = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();
  if (!failure.empty()) {
    *why = "readers=" + std::to_string(readers) + ": " + failure;
    return false;
  }
  return true;
}

void ShrinkAndFailMvcc(const MvccScenario& s, int readers,
                       const std::string& first_why) {
  int failing = s.objects;
  std::string why = first_why;
  while (failing > 1) {
    const int half = failing / 2;
    std::string half_why;
    if (RunMvccScenario(s, half, readers, &half_why)) break;
    failing = half;
    why = half_why;
  }
  ADD_FAILURE() << "mvcc seed=" << s.seed << " objects=" << failing
                << " (shrunk from " << s.objects << ") rho=" << s.rho
                << " l=" << s.l << " duration=" << s.duration << ": " << why;
}

TEST(DifferentialTest, MvccSnapshotsMatchSerializedAcrossSeededSchedules) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const MvccScenario s = MakeMvccScenario(seed);
    // Serial for every schedule; threaded sweeps rotate the reader count
    // per seed to keep the suite fast without losing width coverage.
    std::string why;
    if (!RunMvccScenario(s, s.objects, /*readers=*/0, &why)) {
      ShrinkAndFailMvcc(s, 0, why);
      continue;
    }
    const int readers = kMvccReaderCounts[1 + (seed % 3)];
    if (!RunMvccScenario(s, s.objects, readers, &why)) {
      ShrinkAndFailMvcc(s, readers, why);
    }
  }
}

// Concurrent captures are replay-verifiable like serialized ones: a
// RecordConcurrentDataset log must verify bit-identically at every
// replay thread count (the concurrent verify path re-derives serialized
// references per epoch; options.threads must not change the verdict).
TEST(DifferentialTest, MvccConcurrentCaptureVerifiesAcrossThreadCounts) {
  char tmpl[] = "/tmp/pdr_diff_mvcc_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    WorkloadConfig config;
    config.WithExtent(kExtent);
    config.num_objects = 90 + static_cast<int>(seed) * 25;
    config.max_update_interval = 5;
    config.seed = seed * 53 + 11;
    const Dataset ds = GenerateDataset(config, 8);

    WorkloadLogHeader header;
    header.rho = 2.0 * config.num_objects / (kExtent * kExtent);
    header.l = 25.0;
    header.lookahead = 2;
    header.every = 2;
    header.histogram_side = 16;
    header.horizon = 10;
    header.buffer_pages = 64;
    const std::string path =
        std::string(dir) + "/mvcc" + std::to_string(seed) + ".wlog";
    RecordConcurrentDataset(ds, path, header, /*queries_per_tick=*/2);

    const Replayer replayer = Replayer::FromFile(path);
    ASSERT_TRUE(replayer.concurrent());
    for (int threads : {1, 2, 4, 8}) {
      ReplayOptions options;
      options.threads = threads;
      const ReplayResult result = replayer.Run(options);
      EXPECT_TRUE(result.ok())
          << "mvcc seed=" << seed << " threads=" << threads << ": "
          << result.mismatch_count << " of " << result.ticks
          << " ticks diverged";
    }
  }
  std::system(("rm -rf '" + std::string(dir) + "'").c_str());
}

}  // namespace
}  // namespace pdr
