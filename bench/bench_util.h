// Shared helpers for the figure/table reproduction benchmarks: fixed-width
// table printing and the common experiment configuration.

#ifndef OPTIMUS_BENCH_BENCH_UTIL_H_
#define OPTIMUS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/placement/placement.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"
#include "src/workload/azure.h"
#include "src/workload/poisson.h"
#include "src/zoo/registry.h"

namespace optimus {
namespace benchutil {

// CI smoke mode: benchmarks invoked with `--smoke` shrink their workloads to
// tiny iteration counts, so CI can catch benchmark bit-rot (build breaks,
// crashes, assertion failures) without burning minutes on full runs.
inline bool SmokeMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--smoke")) {
      return true;
    }
  }
  return false;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

// The function set used by the end-to-end experiments (Figs. 13, 14, 16):
// twelve CNNs spanning the Imgclsmob-style families plus the ten-variation
// BERT zoo, mirroring §8.1's workloads.
inline std::vector<Model> EndToEndModels() {
  const ModelRegistry registry = RepresentativeModels();
  std::vector<Model> models;
  for (const std::string& name : RepresentativeModelNames()) {
    models.push_back(registry.Build(name));
  }
  return models;
}

inline std::vector<std::string> NamesOf(const std::vector<Model>& models) {
  std::vector<std::string> names;
  names.reserve(models.size());
  for (const Model& model : models) {
    names.push_back(model.name());
  }
  return names;
}

// Cluster configuration shared by the end-to-end benches.
inline SimConfig BaseSimConfig(SystemType system) {
  SimConfig config;
  config.system = system;
  config.num_nodes = 2;
  config.containers_per_node = 6;
  // Optimus ships the §5.1 model sharing-aware balancer; the baselines use
  // the hash placement of existing serverless platforms.
  config.placement.kind =
      system == SystemType::kOptimus ? BalancerKind::kModelSharing : BalancerKind::kHash;
  return config;
}

inline Trace PoissonWorkload(const std::vector<std::string>& functions) {
  PoissonTraceOptions options;
  options.horizon_seconds = 4.0 * 3600;
  options.seed = 2024;
  return GenerateMixedPoissonTrace(functions, options);
}

inline Trace AzureWorkload(const std::vector<std::string>& functions) {
  AzureTraceOptions options;
  options.horizon_seconds = 4.0 * 3600;
  options.seed = 2024;
  return GenerateAzureTrace(functions, options);
}

constexpr SystemType kAllSystems[] = {SystemType::kOpenWhisk, SystemType::kPagurus,
                                      SystemType::kTetris, SystemType::kOptimus};

inline std::string JsonEscapeString(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      escaped.push_back('\\');
    }
    escaped.push_back(c);
  }
  return escaped;
}

// BENCH_*.json schema version. scripts/bench_check.py refuses files whose
// schema it does not understand, so bump this when the layout changes.
//   optimus-bench/2: {"schema","git_sha","bench","series":[{name,labels,
//                     count,mean,p50,p95,p99,max}]}
inline constexpr const char kBenchSchema[] = "optimus-bench/2";

// Git SHA stamped into every BENCH_*.json so a perf-trajectory artifact can
// be traced back to the exact commit. CI exports OPTIMUS_GIT_SHA; local runs
// without it record "unknown".
inline std::string BenchGitSha() {
  const char* sha = std::getenv("OPTIMUS_GIT_SHA");
  return sha != nullptr && *sha != '\0' ? std::string(sha) : std::string("unknown");
}

inline void WriteBenchJsonHeader(std::ofstream& out, const std::string& bench_name) {
  out << "{\"schema\":\"" << kBenchSchema << "\",\"git_sha\":\""
      << JsonEscapeString(BenchGitSha()) << "\",\"bench\":\"" << JsonEscapeString(bench_name)
      << "\",\"series\":[";
}

// One exact-sample metric series for DumpScalarSeries. The telemetry
// histograms bucket logarithmically (≤25% relative width) — fine for serving
// tails, too coarse for microbenchmark regressions — so micro benches record
// raw samples and report exact order statistics.
struct ScalarSeries {
  std::string name;
  telemetry::Labels labels;
  std::vector<double> samples;
};

// Exact percentile (linear interpolation between order statistics).
inline double ExactPercentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

inline void WriteSeriesEntry(std::ofstream& out, bool* first, const std::string& name,
                             const telemetry::Labels& labels, unsigned long long count,
                             double mean, double p50, double p95, double p99, double max) {
  if (!*first) {
    out << ",";
  }
  *first = false;
  out << "{\"name\":\"" << JsonEscapeString(name) << "\",\"labels\":{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << "\"" << JsonEscapeString(labels[i].first) << "\":\""
        << JsonEscapeString(labels[i].second) << "\"";
  }
  char stats[256];
  std::snprintf(stats, sizeof(stats),
                "},\"count\":%llu,\"mean\":%.9g,\"p50\":%.9g,\"p95\":%.9g,\"p99\":%.9g,"
                "\"max\":%.9g}",
                count, mean, p50, p95, p99, max);
  out << stats;
}

// Dumps exact-sample scalar series into BENCH_<bench_name>.json (same
// envelope as DumpRegistryPercentiles, but percentiles are computed from the
// raw samples, not histogram buckets). Returns true when the file was written.
inline bool DumpScalarSeries(const std::vector<ScalarSeries>& series,
                             const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "DumpScalarSeries: cannot open %s\n", path.c_str());
    return false;
  }
  WriteBenchJsonHeader(out, bench_name);
  bool first = true;
  for (const ScalarSeries& entry : series) {
    if (entry.samples.empty()) {
      continue;
    }
    std::vector<double> sorted = entry.samples;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double sample : sorted) {
      sum += sample;
    }
    WriteSeriesEntry(out, &first, entry.name, entry.labels,
                     static_cast<unsigned long long>(sorted.size()),
                     sum / static_cast<double>(sorted.size()), ExactPercentile(sorted, 0.5),
                     ExactPercentile(sorted, 0.95), ExactPercentile(sorted, 0.99),
                     sorted.back());
  }
  out << "]}\n";
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// Dumps every histogram series in `registry` — count, mean, p50/p95/p99, max —
// into BENCH_<bench_name>.json, so the perf trajectory records tail latency,
// not just means. Returns true when the file was written.
inline bool DumpRegistryPercentiles(const telemetry::MetricsRegistry& registry,
                                    const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "DumpRegistryPercentiles: cannot open %s\n", path.c_str());
    return false;
  }
  WriteBenchJsonHeader(out, bench_name);
  bool first = true;
  registry.VisitHistograms([&out, &first](const std::string& name,
                                          const telemetry::Labels& labels,
                                          const telemetry::HistogramSnapshot& snapshot) {
    if (snapshot.count == 0) {
      return;  // Unexercised series carry no signal.
    }
    WriteSeriesEntry(out, &first, name, labels, static_cast<unsigned long long>(snapshot.count),
                     snapshot.Mean(), snapshot.Percentile(0.5), snapshot.Percentile(0.95),
                     snapshot.Percentile(0.99), snapshot.max_seconds);
  });
  out << "]}\n";
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace benchutil
}  // namespace optimus

#endif  // OPTIMUS_BENCH_BENCH_UTIL_H_
