// Streaming-core scale benchmark (DESIGN.md §18): a million-request,
// thousand-node, hundred-thousand-function simulation in bounded memory.
//
// The workload is a streaming Poisson mix (PoissonProcessSource) over
// functions that alias a small zoo of distinct model structures — the
// million-function regime: distinct names and demand streams, shared
// architectures. The bench runs the SAME cluster at two request scales
// (identical functions and nodes, different horizons) in one process and
// reports, per scale, simulated events per wall second and peak RSS. Because
// the streaming core keeps O(nodes + functions) state — one pending arrival,
// lazily scheduled cycles, histogram + reservoir accounting instead of
// per-request records — peak RSS must NOT grow with the request count: the
// `sim_rss_growth_mb` series (large-scale peak minus small-scale peak) is
// gated near zero in bench/thresholds.json. A regression that reintroduces
// O(requests) state (records on the scale path, eager event scheduling)
// shows up as tens to hundreds of MB of growth.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/function_table.h"
#include "src/workload/trace_source.h"

namespace optimus {
namespace {

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct ScaleParams {
  size_t num_functions = 0;
  int num_nodes = 0;
  double small_horizon = 0.0;  // Seconds of simulated time, small scale.
  double large_horizon = 0.0;  // Seconds of simulated time, large scale.
};

struct ScaleRun {
  uint64_t requests = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  double cold_frac = 0.0;
  double p95_service = 0.0;
};

ScaleRun RunScale(const SimWorkload& workload, FunctionTable* functions, size_t num_functions,
                  const SimConfig& config, const CostModel& costs, double horizon) {
  PoissonProcessSource::Options source_options;
  source_options.horizon_seconds = horizon;
  source_options.seed = 41;
  PoissonProcessSource source(functions, num_functions, "fn_", source_options);

  const auto start = std::chrono::steady_clock::now();
  const SimResult result = RunSimulationStream(workload, &source, config, costs);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ScaleRun run;
  run.requests = result.total_requests;
  run.wall_seconds = wall;
  run.requests_per_sec =
      wall > 0.0 ? static_cast<double>(result.total_requests) / wall : 0.0;
  run.peak_rss_mb = PeakRssMb();
  run.cold_frac = result.FractionOf(StartType::kCold);
  run.p95_service = result.ServiceTimePercentile(0.95);
  return run;
}

void Run(bool smoke) {
  // Few distinct structures, many functions: every function aliases one of
  // these models round-robin, so the simulation carries 100k demand streams
  // over a handful of architectures.
  const std::vector<Model> all = benchutil::EndToEndModels();
  const std::vector<Model> models(all.begin(), all.begin() + std::min<size_t>(all.size(), 8));

  // Smoke keeps an 8x request spread so an O(requests) memory regression
  // still moves the growth gauge by tens of MB even at CI scale.
  const ScaleParams params = smoke
                                 ? ScaleParams{8000, 120, /*small=*/120.0, /*large=*/960.0}
                                 : ScaleParams{100000, 1000, /*small=*/180.0, /*large=*/720.0};

  AnalyticCostModel costs;
  SimConfig config = benchutil::BaseSimConfig(SystemType::kOptimus);
  config.num_nodes = params.num_nodes;
  config.containers_per_node = 8;

  // One shared function table across both scales — the cluster and function
  // universe are identical; only the request count differs.
  FunctionTable functions;
  {
    PoissonProcessSource::Options warmup;
    warmup.horizon_seconds = 0.0;  // Intern the names without arrivals.
    PoissonProcessSource intern_only(&functions, params.num_functions, "fn_", warmup);
  }
  SimWorkload workload;
  workload.models = &models;
  workload.functions = &functions;
  workload.function_model.reserve(params.num_functions);
  for (size_t fn = 0; fn < params.num_functions; ++fn) {
    workload.function_model.push_back(static_cast<int32_t>(fn % models.size()));
  }

  benchutil::PrintHeader("streaming simulator scale: bounded memory across request scales");
  std::printf("functions=%zu nodes=%d models=%zu\n", params.num_functions, params.num_nodes,
              models.size());
  std::printf("%-8s %12s %12s %14s %12s %8s %8s\n", "scale", "requests", "wall(s)", "req/s",
              "peakRSS(MB)", "cold%", "p95(s)");
  benchutil::PrintRule(84);

  // Small scale first: ru_maxrss is monotone, so the large scale's extra peak
  // is exactly the growth attributable to the larger request count.
  const ScaleRun small =
      RunScale(workload, &functions, params.num_functions, config, costs, params.small_horizon);
  std::printf("%-8s %12llu %12.2f %14.0f %12.1f %7.1f%% %8.3f\n", "small",
              static_cast<unsigned long long>(small.requests), small.wall_seconds,
              small.requests_per_sec, small.peak_rss_mb, 100.0 * small.cold_frac,
              small.p95_service);
  const ScaleRun large =
      RunScale(workload, &functions, params.num_functions, config, costs, params.large_horizon);
  std::printf("%-8s %12llu %12.2f %14.0f %12.1f %7.1f%% %8.3f\n", "large",
              static_cast<unsigned long long>(large.requests), large.wall_seconds,
              large.requests_per_sec, large.peak_rss_mb, 100.0 * large.cold_frac,
              large.p95_service);

  const double growth_mb = large.peak_rss_mb - small.peak_rss_mb;
  std::printf("peak-RSS growth small -> large (%.1fx requests): %.1f MB\n",
              small.requests > 0
                  ? static_cast<double>(large.requests) / static_cast<double>(small.requests)
                  : 0.0,
              growth_mb);

  std::vector<benchutil::ScalarSeries> series;
  series.push_back({"sim_requests_per_sec", {{"scale", "small"}}, {small.requests_per_sec}});
  series.push_back({"sim_requests_per_sec", {{"scale", "large"}}, {large.requests_per_sec}});
  series.push_back({"sim_peak_rss_mb", {{"scale", "small"}}, {small.peak_rss_mb}});
  series.push_back({"sim_peak_rss_mb", {{"scale", "large"}}, {large.peak_rss_mb}});
  series.push_back({"sim_rss_growth_mb", {}, {growth_mb}});
  benchutil::DumpScalarSeries(series, "sim_scale");
}

}  // namespace
}  // namespace optimus

int main(int argc, char** argv) {
  optimus::Run(optimus::benchutil::SmokeMode(argc, argv));
  return 0;
}
