// Ablation: the refinement index. Section 4 notes the framework can adopt
// any predictive moving-object index; this bench runs the same FR queries
// on the TPR-tree and on the B^x-tree and compares maintenance cost,
// query I/O, candidates fetched, and total cost.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace pdr;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::Banner(env, "bench_ablation_index",
                "ablation: TPR-tree vs B^x-tree refinement backend");

  const int objects = env.ScaledObjects(100000);
  const double l = 30.0;
  std::printf("dataset: CH100K-scaled = %d objects, l=%g\n", objects, l);
  const bench::SteadyWorkload workload =
      bench::MakeSteadyWorkload(env, objects);

  FrEngine::Options tpr_options = bench::FrOptionsFor(env, objects);
  FrEngine::Options bx_options = tpr_options;
  bx_options.index = IndexKind::kBxTree;
  bx_options.max_update_interval = env.paper.max_update_interval;

  FrEngine fr_tpr(tpr_options);
  FrEngine fr_bx(bx_options);
  SinkAdapter<FrEngine> tpr_sink(&fr_tpr);
  SinkAdapter<FrEngine> bx_sink(&fr_bx);
  const auto timings = Replay(workload.dataset, {&tpr_sink, &bx_sink});
  std::printf("maintenance (histogram + index): TPR %.1f us/update, "
              "Bx %.1f us/update\n",
              timings[0].UsPerUpdate(), timings[1].UsPerUpdate());
  std::printf("index pages: TPR %zu, Bx %zu\n", fr_tpr.index().node_count(),
              fr_bx.index().node_count());

  const Tick q_t = workload.now + env.paper.prediction_window / 2;
  auto* bx = dynamic_cast<BxTree*>(&fr_bx.index());
  bench::SeriesPrinter table(
      "ablation_index",
      {"varrho", "tpr_io", "bx_io", "returned", "bx_scanned",
       "tpr_total_ms", "bx_total_ms", "answer_diff"});
  for (int varrho : env.paper.rel_thresholds) {
    const double rho = env.Rho(objects, varrho);
    const int64_t scanned_before = bx->scanned_records();
    const auto a = fr_tpr.Query(q_t, rho, l, /*cold_cache=*/true);
    const auto b = fr_bx.Query(q_t, rho, l, /*cold_cache=*/true);
    table.Row({static_cast<double>(varrho),
               static_cast<double>(a.cost.io_reads()),
               static_cast<double>(b.cost.io_reads()),
               static_cast<double>(a.objects_fetched),
               static_cast<double>(bx->scanned_records() - scanned_before),
               a.cost.TotalMs(), b.cost.TotalMs(),
               SymmetricDifferenceArea(a.region, b.region)});
  }
  std::printf(
      "\nExpected: answer_diff ~ 0 (both indexes yield the same exact PDR "
      "answer). The B^x-tree's query enlargement scans every live "
      "partition over a window grown by the maximum speeds, so each "
      "candidate cluster's range query reads several times the TPR-tree's "
      "pages (bx_io >> tpr_io) and the TPR-tree is the better refinement "
      "backend at the paper's buffer sizes — matching the paper's choice. "
      "B^x updates are cheaper (B+-tree vs R-tree maintenance).\n");
  return 0;
}
