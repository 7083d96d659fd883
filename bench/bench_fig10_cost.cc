// Reproduces Fig. 10(a) and 10(b): total query cost (CPU + simulated I/O
// at 10 ms per random page read).
//
//  * 10(a): total cost vs varrho on CH100K for PA and FR, l in {30, 60}.
//    Expected shape: PA an order of magnitude (or more) below FR — FR
//    pays TPR-tree range-query I/O per candidate cluster plus plane-sweep
//    CPU per candidate cell; PA evaluates in-memory polynomials only.
//  * 10(b): total cost vs dataset size (CH10K/CH100K/CH500K) at l = 30,
//    varrho = 1. Expected shape: FR cost grows roughly linearly with N,
//    PA cost is nearly flat (it depends on coefficient count, not N).

#include <cstdio>
#include <memory>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace pdr;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::Banner(env, "bench_fig10_cost",
                "Fig. 10(a) cost vs varrho, Fig. 10(b) cost vs dataset size");

  // ---- Fig. 10(a): CH100K, cost vs varrho ------------------------------
  {
    const int objects = env.ScaledObjects(100000);
    std::printf("dataset: CH100K-scaled = %d objects\n", objects);
    const bench::SteadyWorkload workload =
        bench::MakeSteadyWorkload(env, objects);
    FrEngine fr(bench::FrOptionsFor(env, objects));
    PaEngine pa30(bench::PaOptionsFor(env, 30.0));
    PaEngine pa60(bench::PaOptionsFor(env, 60.0));
    ReplayInto(workload.dataset, -1, &fr, &pa30, &pa60);

    const std::vector<Tick> ticks = workload.QueryTicks(env.paper, 3);
    bench::SeriesPrinter cost(
        "fig10a_total_cost",
        {"l", "varrho", "PA_ms", "FR_ms", "FR_cpu_ms", "FR_io_ms"});
    for (double l : env.paper.l_values) {
      PaEngine& pa = l == 30.0 ? pa30 : pa60;
      for (int varrho : env.paper.rel_thresholds) {
        const double rho = env.Rho(objects, varrho);
        CostBreakdown fr_cost, pa_cost;
        for (Tick q_t : ticks) {
          fr_cost += fr.Query(q_t, rho, l, /*cold_cache=*/true).cost;
          pa_cost += pa.Query(q_t, rho).cost;
        }
        const double n = ticks.size();
        cost.Row({l, static_cast<double>(varrho), pa_cost.TotalMs() / n,
                  fr_cost.TotalMs() / n, fr_cost.cpu_ms / n,
                  fr_cost.io_ms / n});
      }
    }
  }

  // ---- Fig. 10(b): cost vs dataset size --------------------------------
  {
    bench::SeriesPrinter scaling(
        "fig10b_cost_vs_dataset",
        {"objects", "PA_ms", "FR_ms", "FR_io_reads"});
    const double l = 30.0;
    for (int paper_n : env.paper.object_counts) {
      const int objects = env.ScaledObjects(paper_n);
      const bench::SteadyWorkload workload =
          bench::MakeSteadyWorkload(env, objects);
      FrEngine fr(bench::FrOptionsFor(env, objects));
      PaEngine pa(bench::PaOptionsFor(env, l));
      ReplayInto(workload.dataset, -1, &fr, &pa);
      const double rho = env.Rho(objects, 1);
      const std::vector<Tick> ticks = workload.QueryTicks(env.paper, 3);
      CostBreakdown fr_cost, pa_cost;
      for (Tick q_t : ticks) {
        fr_cost += fr.Query(q_t, rho, l, /*cold_cache=*/true).cost;
        pa_cost += pa.Query(q_t, rho).cost;
      }
      const double n = ticks.size();
      scaling.Row({static_cast<double>(objects), pa_cost.TotalMs() / n,
                   fr_cost.TotalMs() / n,
                   static_cast<double>(fr_cost.io_reads()) / n});
    }
  }
  std::printf(
      "\nExpected shape: PA orders of magnitude cheaper than FR; FR grows "
      "~linearly with N while PA stays nearly flat.\n");
  return 0;
}
