// Ablation: the §5.1 model sharing-aware load balancer.
//
// Runs the Optimus system under the Azure-like workload with each placement
// strategy (hash, load-based, model-sharing K-medoids) and sweeps the
// gamma weights of the combined distance. The model-sharing balancer should
// lower average service time by giving transformation donors structurally
// closer models and complementary demand.
//
// Writes BENCH_ablation_balancer.json: `placement_service_ratio` is
// model-sharing's mean service time over each baseline's (label `vs`). The
// simulation runs in virtual time, so both ratios are exact, and
// bench/thresholds.json gates the §5.1 ranking on them.

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"

namespace optimus {
namespace {

int Run() {
  const AnalyticCostModel costs;
  const auto models = benchutil::EndToEndModels();
  const auto names = benchutil::NamesOf(models);
  const Trace trace = benchutil::AzureWorkload(names);

  benchutil::PrintHeader("Ablation: placement strategy under Optimus (Azure-like workload)");
  std::printf("%-32s %12s %10s %12s\n", "balancer", "service(s)", "cold%", "transform%");
  benchutil::PrintRule(70);

  std::map<BalancerKind, double> service;
  for (const BalancerKind kind :
       {BalancerKind::kHash, BalancerKind::kLoadBased, BalancerKind::kModelSharing}) {
    SimConfig config = benchutil::BaseSimConfig(SystemType::kOptimus);
    config.placement.kind = kind;
    const SimResult result = RunSimulation(models, trace, config, costs);
    service[kind] = result.AvgServiceTime();
    std::printf("%-32s %12.3f %9.2f%% %11.2f%%\n", BalancerKindName(kind),
                result.AvgServiceTime(), 100.0 * result.FractionOf(StartType::kCold),
                100.0 * result.FractionOf(StartType::kTransform));
  }

  benchutil::PrintHeader("Ablation: gamma sweep for the model-sharing balancer");
  std::printf("%-16s %-16s %12s %10s\n", "gamma_distance", "gamma_corr", "service(s)", "cold%");
  benchutil::PrintRule(58);
  const double gammas[][2] = {{1.0, 0.0}, {0.8, 0.2}, {0.6, 0.4}, {0.4, 0.6}, {0.0, 1.0}};
  for (const auto& gamma : gammas) {
    SimConfig config = benchutil::BaseSimConfig(SystemType::kOptimus);
    config.placement.kind = BalancerKind::kModelSharing;
    config.placement.gamma_distance = gamma[0];
    config.placement.gamma_correlation = gamma[1];
    const SimResult result = RunSimulation(models, trace, config, costs);
    std::printf("%-16.2f %-16.2f %12.3f %9.2f%%\n", gamma[0], gamma[1], result.AvgServiceTime(),
                100.0 * result.FractionOf(StartType::kCold));
  }

  std::vector<benchutil::ScalarSeries> series;
  for (const BalancerKind baseline : {BalancerKind::kHash, BalancerKind::kLoadBased}) {
    series.push_back({"placement_service_ratio",
                      {{"vs", BalancerKindId(baseline)}},
                      {service[BalancerKind::kModelSharing] / service[baseline]}});
  }
  return benchutil::DumpScalarSeries(series, "ablation_balancer") ? 0 : 1;
}

}  // namespace
}  // namespace optimus

int main() { return optimus::Run(); }
