// Scenario: a multi-tenant image-classification service.
//
// Twelve CNN functions (VGG / ResNet / DenseNet / MobileNet / Inception /
// Xception variants) share a two-node cluster under a bursty Azure-like
// arrival pattern. The example runs the same workload through all four
// systems (OpenWhisk, Pagurus, Tetris, Optimus) and prints the service-time
// and start-type comparison, then zooms into one request that Optimus served
// by transforming an idle neighbor's model.

#include <cstdio>
#include <optional>

#include "src/sim/simulator.h"
#include "src/workload/azure.h"
#include "src/zoo/registry.h"

int main() {
  using namespace optimus;

  // The service's model catalog: the CNN half of the representative zoo.
  const ModelRegistry registry = RepresentativeModels();
  std::vector<Model> models;
  std::vector<std::string> names;
  for (const std::string& name : RepresentativeModelNames()) {
    const Model model = registry.Build(name);
    if (model.family() != "bert") {
      names.push_back(name);
      models.push_back(model);
    }
  }
  std::printf("image-classification catalog: %zu models\n", models.size());

  AzureTraceOptions trace_options;
  trace_options.horizon_seconds = 2.0 * 3600;
  trace_options.seed = 99;
  const Trace trace = GenerateAzureTrace(names, trace_options);
  std::printf("workload: %zu requests over 2 hours (Azure-like patterns)\n\n", trace.size());

  const AnalyticCostModel costs;
  std::printf("%-12s %12s %8s %11s %8s\n", "system", "service(s)", "cold%", "transform%",
              "warm%");
  // The earliest-arriving request Optimus served by transformation. The
  // observer sees requests in serve order, so keep the lowest ordinal.
  std::optional<RequestRecord> transformed;
  const RequestObserver keep_first_transform = [&](const RequestRecord& record) {
    if (record.start == StartType::kTransform &&
        (!transformed || record.ordinal < transformed->ordinal)) {
      transformed = record;
    }
  };
  for (const SystemType system : {SystemType::kOpenWhisk, SystemType::kPagurus,
                                  SystemType::kTetris, SystemType::kOptimus}) {
    SimConfig config;
    config.system = system;
    config.num_nodes = 2;
    config.containers_per_node = 4;
    config.placement.kind =
        system == SystemType::kOptimus ? BalancerKind::kModelSharing : BalancerKind::kHash;
    const SimResult result = RunSimulation(
        models, trace, config, costs,
        system == SystemType::kOptimus ? keep_first_transform : RequestObserver());
    std::printf("%-12s %12.3f %7.2f%% %10.2f%% %7.2f%%\n", SystemTypeName(system),
                result.AvgServiceTime(), 100.0 * result.FractionOf(StartType::kCold),
                100.0 * result.FractionOf(StartType::kTransform),
                100.0 * result.FractionOf(StartType::kWarm));
  }

  // Show one transformed request end to end.
  if (transformed) {
    const RequestRecord& record = *transformed;
    std::printf(
        "\nexample transformed request: function=%s arrived t=%.1fs\n"
        "  wait %.3fs + init %.3fs + transform %.3fs + compute %.3fs = %.3fs total\n",
        trace[record.ordinal].function.c_str(), record.arrival, record.wait, record.init,
        record.load, record.compute, record.ServiceTime());
  }
  return 0;
}
