// Run-to-run determinism of parallel query execution.
//
// A fig8-style workload (clustered objects, a sweep of rho thresholds and
// query ticks) is executed twice at hardware thread count and once
// serially; every answer — rectangle sequences and all non-timing
// counters — is serialized to a transcript string and the transcripts are
// byte-compared. Parallel execution must be deterministic across runs AND
// identical to serial execution; only wall-clock timings may differ.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pdr/core/fr_engine.h"
#include "pdr/core/pa_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/parallel/exec_policy.h"
#include "transcript_util.h"

namespace pdr {
namespace {

using test_util::AppendRegion;

constexpr double kExtent = 400.0;
constexpr int kObjects = 800;

// Everything except timing: region bits, filter counts, sweep counters,
// logical and physical I/O. The fetch runs on the calling thread before the
// sweeps fan out, so the buffer pool sees the same page sequence at every
// thread count.
std::string FrTranscript(const ExecPolicy& exec) {
  FrEngine fr({.extent = kExtent,
               .histogram_side = 20,
               .horizon = 20,
               .buffer_pages = 128,
               .exec = exec});
  for (const UpdateEvent& e :
       MakeClusteredInserts(kObjects, 3, kExtent, 15.0, 0.2, 88)) {
    fr.Apply(e);
  }
  std::ostringstream os;
  for (double rho_scale : {0.5, 1.0, 2.0, 4.0}) {
    for (Tick q_t : {Tick{0}, Tick{5}, Tick{10}}) {
      const double rho = rho_scale * kObjects / (kExtent * kExtent);
      const auto r = fr.Query(q_t, rho, 30.0);
      os << "q_t=" << q_t << " rho_scale=" << rho_scale << " cells="
         << r.accepted_cells << '/' << r.candidate_cells << '/'
         << r.rejected_cells << " fetched=" << r.objects_fetched
         << " sweep=" << r.sweep.x_strips << '/' << r.sweep.y_sweeps << '/'
         << r.sweep.y_strips << '/' << r.sweep.dense_rects
         << " logical=" << r.cost.io.logical_reads
         << " physical=" << r.cost.io.physical_reads << " region=";
      AppendRegion(r.region, &os);
    }
  }
  return os.str();
}

std::string PaTranscript(const ExecPolicy& exec) {
  PaEngine pa({.extent = kExtent,
               .poly_side = 5,
               .degree = 5,
               .horizon = 10,
               .l = 30.0,
               .eval_grid = 128,
               .exec = exec});
  for (const UpdateEvent& e :
       MakeClusteredInserts(kObjects, 3, kExtent, 15.0, 0.2, 88)) {
    pa.Apply(e);
  }
  std::ostringstream os;
  for (double rho_scale : {0.5, 1.0, 2.0}) {
    for (Tick q_t : {Tick{0}, Tick{4}, Tick{8}}) {
      const double rho = rho_scale * kObjects / (kExtent * kExtent);
      const auto r = pa.Query(q_t, rho);
      os << "q_t=" << q_t << " rho_scale=" << rho_scale << " bnb="
         << r.bnb.nodes_visited << '/' << r.bnb.accepted_boxes << '/'
         << r.bnb.pruned_boxes << '/' << r.bnb.point_evals << " region=";
      AppendRegion(r.region, &os);
    }
  }
  return os.str();
}

TEST(DeterminismTest, FrParallelRunsAreByteIdentical) {
  const std::string run1 = FrTranscript(ExecPolicy::Parallel(0));
  const std::string run2 = FrTranscript(ExecPolicy::Parallel(0));
  EXPECT_EQ(run1, run2) << "parallel FR transcript differs between runs";
}

TEST(DeterminismTest, FrParallelMatchesSerial) {
  const std::string serial = FrTranscript(ExecPolicy::Serial());
  const std::string parallel = FrTranscript(ExecPolicy::Parallel(0));
  EXPECT_EQ(serial, parallel) << "parallel FR transcript differs from serial";
}

TEST(DeterminismTest, PaParallelRunsAreByteIdentical) {
  const std::string run1 = PaTranscript(ExecPolicy::Parallel(0));
  const std::string run2 = PaTranscript(ExecPolicy::Parallel(0));
  EXPECT_EQ(run1, run2) << "parallel PA transcript differs between runs";
}

TEST(DeterminismTest, PaParallelMatchesSerial) {
  const std::string serial = PaTranscript(ExecPolicy::Serial());
  const std::string parallel = PaTranscript(ExecPolicy::Parallel(0));
  EXPECT_EQ(serial, parallel) << "parallel PA transcript differs from serial";
}

}  // namespace
}  // namespace pdr
