// Extension bench: deadline-aware execution under load (DESIGN.md §11).
// Prices the resilience stack's two knobs on a steady workload:
//
//   resilience_load      p99 latency, shed rate, and answer-tier mix as
//                        the offered load (client threads against a fixed
//                        admission bound) grows — the overload story;
//   resilience_deadline  tier mix and p99 as the per-query budget shrinks
//                        at fixed load — the degradation-ladder story.
//
// Expected shapes: under overload the shed rate absorbs the excess while
// p99 of *admitted* queries stays flat (shedding, not queueing); as the
// budget shrinks the mix slides exact -> approx -> histogram and p99
// tracks the budget plus one bounded work quantum.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

using namespace pdr;

struct LoadResult {
  int64_t answered = 0;
  int64_t shed = 0;
  double p99_ms = 0.0;
  int64_t tiers[3] = {0, 0, 0};  // exact, approx, histogram

  double ShedRate() const {
    const int64_t offered = answered + shed;
    return offered > 0 ? static_cast<double>(shed) / offered : 0.0;
  }
  double TierPct(int t) const {
    return answered > 0 ? 100.0 * tiers[t] / answered : 0.0;
  }
};

// `threads` clients each fire `per_client` deadline-bounded queries at its
// own engine replica through one shared admission controller. A null
// `pas` attaches no PA fallback.
LoadResult RunLoad(std::vector<std::unique_ptr<FrEngine>>* frs,
                   std::vector<std::unique_ptr<PaEngine>>* pas,
                   const std::vector<Tick>& query_ticks, double rho, double l,
                   int threads, int per_client, int max_inflight,
                   const ResilienceOptions& opts) {
  AdmissionController admission({.max_inflight = max_inflight});
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> tiers[3] = {{0}, {0}, {0}};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      ResilientExecutor exec(
          (*frs)[static_cast<size_t>(t)].get(),
          pas != nullptr ? (*pas)[static_cast<size_t>(t)].get() : nullptr,
          opts);
      auto& mine = latencies[static_cast<size_t>(t)];
      mine.reserve(static_cast<size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        AdmissionController::Permit permit = admission.TryAdmit();
        if (!permit.ok()) {
          shed.fetch_add(1);
          std::this_thread::yield();
          continue;
        }
        const Tick q_t = query_ticks[static_cast<size_t>(i) %
                                     query_ticks.size()];
        const auto start = std::chrono::steady_clock::now();
        const TieredResult result = exec.Query(q_t, rho, l);
        mine.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
        tiers[static_cast<int>(result.tier)].fetch_add(1);
        answered.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  LoadResult out;
  out.answered = answered.load();
  out.shed = shed.load();
  for (int i = 0; i < 3; ++i) out.tiers[i] = tiers[i].load();
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    out.p99_ms = all[static_cast<size_t>(0.99 * (all.size() - 1))];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::Banner(env, "bench_resilience",
                "extension: deadline-aware execution under load");

  const int objects = env.ScaledObjects(100000);
  const bench::SteadyWorkload workload =
      bench::MakeSteadyWorkload(env, objects);
  const double rho = env.Rho(objects, 1);
  const double l = 30.0;
  const int kMaxClients = 8;
  const int kPerClient = env.full ? 120 : 40;
  const int kMaxInflight = 2;
  std::printf("dataset: CH100K-scaled = %d objects, clients x %d queries "
              "through %d admission slots\n",
              objects, kPerClient, kMaxInflight);

  // One engine replica per client thread, fed the identical stream; built
  // once and reused across every load point.
  std::vector<std::unique_ptr<FrEngine>> frs;
  std::vector<std::unique_ptr<PaEngine>> pas;
  for (int t = 0; t < kMaxClients; ++t) {
    auto fr_opts = bench::FrOptionsFor(env, objects);
    frs.push_back(std::make_unique<FrEngine>(fr_opts));
    pas.push_back(
        std::make_unique<PaEngine>(bench::PaOptionsFor(env, l)));
    ReplayInto(workload.dataset, -1, frs.back().get());
    ReplayInto(workload.dataset, -1, pas.back().get());
  }
  const std::vector<Tick> query_ticks =
      workload.QueryTicks(env.paper, 16);

  {
    bench::SeriesPrinter table(
        "resilience_load",
        {"clients", "offered", "answered", "shed_rate", "p99_ms",
         "exact_pct", "approx_pct", "hist_pct"});
    const double deadline_ms = 250.0;
    for (const int clients : {1, 2, 4, 8}) {
      const LoadResult r =
          RunLoad(&frs, &pas, query_ticks, rho, l, clients, kPerClient,
                  kMaxInflight, {.deadline_ms = deadline_ms});
      table.Row({static_cast<double>(clients),
                 static_cast<double>(r.answered + r.shed),
                 static_cast<double>(r.answered), r.ShedRate(), r.p99_ms,
                 r.TierPct(0), r.TierPct(1), r.TierPct(2)});
    }
    table.Note("fixed 250 ms budget; excess load sheds instead of queueing");
  }

  {
    bench::SeriesPrinter table(
        "resilience_deadline",
        {"deadline_ms", "answered", "shed_rate", "p99_ms", "exact_pct",
         "approx_pct", "hist_pct"});
    const int clients = 4;
    for (const double deadline_ms : {1e9, 50.0, 5.0, 0.5, 0.01}) {
      const LoadResult r =
          RunLoad(&frs, &pas, query_ticks, rho, l, clients, kPerClient,
                  kMaxInflight, {.deadline_ms = deadline_ms});
      table.Row({deadline_ms, static_cast<double>(r.answered), r.ShedRate(),
                 r.p99_ms, r.TierPct(0), r.TierPct(1), r.TierPct(2)});
    }
    table.Note(
        "4 clients; shrinking budgets slide the mix down the ladder "
        "(exact -> approx -> histogram)");
  }

  {
    // Per-rung cost, each tier pinned via the exact-rung toggle and, for
    // the floor, no PA fallback: what one answer costs at each quality
    // level. (The ladder itself spends the whole budget on the exact rung
    // before falling back, so the cheaper rungs only surface under
    // pressure; this series prices them alone.)
    bench::SeriesPrinter table("resilience_tiers",
                               {"tier", "answered", "p99_ms"});
    for (int tier = 0; tier < 3; ++tier) {
      const LoadResult r = RunLoad(
          &frs, tier < 2 ? &pas : nullptr, query_ticks, rho, l,
          /*threads=*/2, kPerClient, kMaxInflight,
          {.deadline_ms = 1e9, .enable_exact = tier == 0});
      table.Row({static_cast<double>(tier), static_cast<double>(r.answered),
                 r.p99_ms});
    }
    table.Note("0=exact, 1=approx, 2=histogram; generous budget, 2 clients");
  }

  std::printf(
      "\nExpected: growing offered load raises the shed rate while the p99 "
      "of admitted queries stays near the single-client figure (admission "
      "control sheds rather than queues); shrinking budgets move answers "
      "down the tier ladder while p99 stays bounded by the budget plus one "
      "histogram-floor work quantum.\n");
  return 0;
}
