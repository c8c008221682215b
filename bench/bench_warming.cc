// Forecast-driven warming benchmark: does predictive pre-transformation
// actually cut cold/transform starts on a bursty trace, and at what
// speculation cost?
//
// Two simulations over the same all-bursty Azure-style trace (ISSUE: bursty
// functions are where reactive keep-alive loses — the burst front always pays
// the startup tax). The reactive run is the seed Optimus pipeline; the warming
// run layers the §17 forecaster + policy on a 120 s cycle. Reported series:
//
//   warming_cold_start_rate{mode}     cold+transform fraction per mode
//   cold_start_rate_reduction         reactive rate / warming rate (>1 good) —
//                                     hardware-independent, gated in CI
//   warming_waste_fraction            wasted pre-warms / pre-warms issued
//   warming_lead_seconds              pre-warm-to-first-hit lead time
//
// `--smoke` shrinks the horizon so CI catches bit-rot without minutes of
// simulated hours.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/workload/azure.h"

namespace optimus {
namespace {

struct ModeResult {
  std::string mode;
  SimResult result;
};

double ColdStartRate(const SimResult& result) {
  return result.FractionOf(StartType::kCold) + result.FractionOf(StartType::kTransform);
}

ModeResult RunMode(const std::string& mode, const std::vector<Model>& models,
                   const Trace& trace, bool warming, bool aggressive) {
  SimConfig config = benchutil::BaseSimConfig(SystemType::kOptimus);
  // More slots than the end-to-end benches: on a saturated cluster every
  // cold start is capacity-driven and speculation only steals donors, so the
  // warming comparison needs slack — the regime the §17 budget targets.
  config.num_nodes = 4;
  config.containers_per_node = 6;
  if (warming) {
    config.warming.enabled = true;
    config.warming.interval = 120.0;
    if (aggressive) {
      // Spend the slack: order floor low enough to cover the Zipf tail and a
      // per-cycle budget wide enough to re-warm every expired function.
      config.warming.budget.max_orders_per_cycle = 16;
      config.warming.budget.max_orders_per_node = 8;
      config.warming.budget.min_predicted_rate = 0.1;
    }
  }
  const AnalyticCostModel costs;
  return {mode, RunSimulation(models, trace, config, costs)};
}

int Run(bool smoke) {
  const std::vector<Model> models = benchutil::EndToEndModels();

  AzureTraceOptions options;
  // The sim runs in virtual time (milliseconds of wall clock either way), so
  // smoke only halves the horizon — fewer bursts than that and the reduction
  // measurement drowns in burst-arrival noise.
  options.horizon_seconds = smoke ? 2.0 * 3600 : 4.0 * 3600;
  options.seed = 11;
  options.force_pattern = 1;  // all bursty: the pattern warming exists for
  const Trace trace = GenerateAzureTrace(benchutil::NamesOf(models), options);

  std::vector<ModeResult> runs;
  runs.push_back(RunMode("reactive", models, trace, /*warming=*/false, false));
  runs.push_back(RunMode("default_budget", models, trace, /*warming=*/true, false));
  runs.push_back(RunMode("aggressive", models, trace, /*warming=*/true, true));

  benchutil::PrintHeader("forecast-driven warming vs reactive keep-alive (bursty trace)");
  std::printf("%-16s %10s %10s %10s %10s %10s %10s %10s\n", "mode", "requests", "cold_rate",
              "warm_frac", "prewarms", "hits", "waste", "p95_s");
  benchutil::PrintRule(95);
  for (const ModeResult& run : runs) {
    std::printf("%-16s %10zu %10.4f %10.4f %10zu %10zu %10zu %10.3f\n", run.mode.c_str(),
                static_cast<size_t>(run.result.total_requests), ColdStartRate(run.result),
                run.result.FractionOf(StartType::kWarm), run.result.WarmingPrewarms(),
                run.result.warming_hits, run.result.warming_waste,
                run.result.ServiceTimePercentile(0.95));
  }

  const SimResult& best = runs.back().result;
  const double reactive_rate = ColdStartRate(runs[0].result);
  const double warming_rate = ColdStartRate(best);
  // Ratio of rates survives CI-runner speed differences; floor the
  // denominator so a perfect warming run does not divide by zero.
  const double reduction = reactive_rate / std::max(warming_rate, 1e-9);
  const size_t prewarms = best.WarmingPrewarms();
  const double waste_fraction =
      prewarms == 0
          ? 0.0
          : static_cast<double>(best.warming_waste) / static_cast<double>(prewarms);
  std::printf("cold-start rate: reactive %.4f -> aggressive warming %.4f "
              "(%.2fx reduction, waste %.2f)\n",
              reactive_rate, warming_rate, reduction, waste_fraction);

  std::vector<benchutil::ScalarSeries> series;
  for (const ModeResult& run : runs) {
    series.push_back(
        {"warming_cold_start_rate", {{"mode", run.mode}}, {ColdStartRate(run.result)}});
  }
  series.push_back({"cold_start_rate_reduction", {}, {reduction}});
  series.push_back({"warming_waste_fraction", {}, {waste_fraction}});
  if (!best.warming_lead_seconds.empty()) {
    series.push_back({"warming_lead_seconds", {}, best.warming_lead_seconds});
  }
  return benchutil::DumpScalarSeries(series, "warming") ? 0 : 1;
}

}  // namespace
}  // namespace optimus

int main(int argc, char** argv) {
  const bool smoke = optimus::benchutil::SmokeMode(argc, argv);
  return optimus::Run(smoke);
}
