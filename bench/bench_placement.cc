// Micro-benchmark for the placement subsystem (DESIGN.md §13): the routing
// decision must stay O(1) nanosecond-scale (it sits on every invoke), while a
// full K-medoids rebalance is the amortized background cost. Emits
// BENCH_placement.json with route-decision latency, warm-hit invoke latency,
// and per-rebalance cost percentiles. The CI smoke run doubles as a
// correctness check that routing and rebalancing survive at cluster scale.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/platform.h"
#include "src/placement/manager.h"

namespace optimus {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Run(bool smoke) {
  const AnalyticCostModel costs;
  const std::vector<Model> models = benchutil::EndToEndModels();
  telemetry::MetricsRegistry registry;
  telemetry::Histogram& route_ns =
      registry.GetHistogram("bench_route_decision_nanos", {},
                           "Placement-table routing decision latency (ns)");
  telemetry::Histogram& rebalance_seconds =
      registry.GetHistogram("bench_rebalance_seconds", {},
                           "Full K-medoids placement recompute latency (s)");
  telemetry::Histogram& warm_invoke_seconds =
      registry.GetHistogram("bench_warm_invoke_seconds", {},
                           "End-to-end warm-hit invoke latency through routing (s)");

  // --- Routing-decision latency over a realistically sized table. ------------
  PlacementManagerOptions manager_options;
  manager_options.num_nodes = 8;
  PlacementManager manager(manager_options, &costs, nullptr);
  std::vector<const Model*> model_ptrs;
  for (const Model& model : models) {
    manager.AddFunction(model, model_ptrs);
    model_ptrs.push_back(&model);
  }
  const int route_batches = smoke ? 20 : 2000;
  constexpr int kRoutesPerBatch = 256;
  long long sink = 0;
  for (int batch = 0; batch < route_batches; ++batch) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRoutesPerBatch; ++i) {
      sink += manager.Route(models[static_cast<size_t>(i) % models.size()].name());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    route_ns.Observe(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
        kRoutesPerBatch);
  }

  // --- Rebalance cost: the full §5.1 K-medoids solve over the zoo. ------------
  const auto history = manager.DemandHistory();
  const int rebalances = smoke ? 3 : 30;
  for (int i = 0; i < rebalances; ++i) {
    const double start = NowSeconds();
    if (!manager.Rebalance(model_ptrs, history, "manual")) {
      std::fprintf(stderr, "bench_placement: rebalance failed\n");
      return 1;
    }
    rebalance_seconds.Observe(NowSeconds() - start);
  }

  // --- Warm-hit invoke latency through the table-driven router. ---------------
  PlatformOptions options;
  options.num_nodes = 4;
  options.containers_per_node = 4;
  options.warm_plan_cache = false;  // Routing bench; skip deploy-time planning.
  OptimusPlatform platform(&costs, options);
  platform.Deploy("vgg11", models[0]);
  const std::vector<float> input(8, 0.5f);
  platform.Invoke("vgg11", input, 0.0);  // Cold; the container stays resident.
  const uint64_t locks_before = platform.NodeLockAcquisitions();
  const int warm_invokes = smoke ? 50 : 1000;
  for (int i = 0; i < warm_invokes; ++i) {
    const double start = NowSeconds();
    platform.Invoke("vgg11", input, 1.0);
    warm_invoke_seconds.Observe(NowSeconds() - start);
  }
  // Each warm hit locks its node twice: to lease the container, and to
  // return it.
  const uint64_t locks = platform.NodeLockAcquisitions() - locks_before;
  if (locks != 2 * static_cast<uint64_t>(warm_invokes)) {
    std::fprintf(stderr, "bench_placement: warm hits took %llu locks for %d invokes\n",
                 static_cast<unsigned long long>(locks), warm_invokes);
    return 1;
  }

  benchutil::PrintHeader("Placement subsystem micro-benchmark");
  std::printf("functions=%zu nodes=%d version=%llu (sink=%lld)\n", models.size(),
              manager_options.num_nodes,
              static_cast<unsigned long long>(manager.Version()), sink);
  benchutil::DumpRegistryPercentiles(registry, "placement");
  return 0;
}

}  // namespace
}  // namespace optimus

int main(int argc, char** argv) {
  return optimus::Run(optimus::benchutil::SmokeMode(argc, argv));
}
