// sim_azure: the trace-source-to-SimResult path in virtual time — src/sim,
// src/workload, src/placement, src/warming and src/baselines with no sockets
// and no tensors. 768 functions alias the first 8 representative models on 64
// nodes x 8 containers running Optimus with model-sharing placement and
// warming; node 1 is revoked at a third of the horizon and revived at two
// thirds. Four traces are simulated in turn for the timed length; a trace
// simulated again must produce identical counts.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/e2e/workloads.h"
#include "src/sim/simulator.h"
#include "src/workload/azure.h"
#include "src/workload/function_table.h"
#include "src/workload/trace_source.h"
#include "src/zoo/registry.h"

namespace optimus {
namespace e2e {

namespace {

constexpr size_t kFunctions = 768;
constexpr size_t kModels = 8;
// Traces per run, each generated from its own seed derived from --seed:
// averaging over several traces keeps throughput from hanging on one
// trace's mix of popular functions.
constexpr uint64_t kTraces = 4;
// Virtual seconds per trace.
constexpr double kHorizon = 3600.0;
constexpr double kSmokeHorizon = 900.0;
// Latency samples are the wall time per this many simulated requests. With
// chunks of 100 the p95 hung on a few slow stretches of each trace
// (IQR/median 0.10-0.13 over 10 seeds); with chunks of 1000 it was 0.06.
constexpr uint64_t kChunk = 1000;

// Times every pull from the wrapped source (the source's own cost) and the
// wall time between every kChunk-th pull (the cost of simulating a chunk).
class TimingSource final : public TraceSource {
 public:
  explicit TimingSource(TraceSource* inner) : inner_(inner) {}

  bool Next(Arrival* out) override {
    const uint64_t start = telemetry::MonotonicNanos();
    const bool more = inner_->Next(out);
    const uint64_t end = telemetry::MonotonicNanos();
    next_ns_ += end - start;
    if (mark_ns_ == 0) {
      mark_ns_ = end;  // Chunks start at the first pull, after simulator set-up.
    } else if (more && ++pulled_ % kChunk == 0) {
      chunk_ms_.push_back(static_cast<double>(end - mark_ns_) * 1e-6);
      mark_ns_ = end;
    }
    return more;
  }
  double Horizon() const override { return inner_->Horizon(); }
  uint64_t SizeHint() const override { return inner_->SizeHint(); }

  uint64_t next_ns() const { return next_ns_; }
  const std::vector<double>& chunk_ms() const { return chunk_ms_; }

 private:
  TraceSource* inner_;
  uint64_t next_ns_ = 0;
  uint64_t mark_ns_ = 0;
  uint64_t pulled_ = 0;
  std::vector<double> chunk_ms_;
};

struct SimInputs {
  std::vector<Model> models;
  FunctionTable functions;
  SimWorkload workload;
  std::vector<Trace> traces;
};

void BuildInputs(uint64_t seed, double horizon, SimInputs* inputs) {
  const ModelRegistry registry = RepresentativeModels();
  const std::vector<std::string> names = RepresentativeModelNames();
  for (size_t i = 0; i < kModels; ++i) {
    inputs->models.push_back(registry.Build(names[i]));
  }
  std::vector<std::string> functions;
  for (size_t fn = 0; fn < kFunctions; ++fn) {
    functions.push_back("fn_" + std::to_string(fn));
    inputs->functions.Intern(functions.back());  // Ids follow the index.
    inputs->workload.function_model.push_back(static_cast<int32_t>(fn % kModels));
  }
  inputs->workload.models = &inputs->models;
  inputs->workload.functions = &inputs->functions;
  for (uint64_t k = 0; k < kTraces; ++k) {
    AzureTraceOptions options;
    options.horizon_seconds = horizon;
    options.seed = seed * kTraces + k;
    options.peak_rate = 2.0;
    inputs->traces.push_back(GenerateAzureTrace(functions, options));
  }
}

// Everything a pass must reproduce exactly.
struct Counts {
  uint64_t total = 0;
  std::array<uint64_t, 3> starts{};
  size_t prewarms = 0, hits = 0, waste = 0, unused = 0;
  size_t revocations = 0, revives = 0, churn_rebalances = 0, rehomed = 0;
  double service_p99_s = 0.0;

  bool operator==(const Counts&) const = default;
};

Counts CountsOf(const SimResult& sim) {
  Counts counts;
  counts.total = sim.total_requests;
  counts.starts = sim.start_counts;
  counts.prewarms = sim.WarmingPrewarms();
  counts.hits = sim.warming_hits;
  counts.waste = sim.warming_waste;
  counts.unused = sim.warming_unused;
  counts.revocations = sim.revocations;
  counts.revives = sim.revives;
  counts.churn_rebalances = sim.churn_rebalances;
  counts.rehomed = sim.rehomed_requests;
  counts.service_p99_s = sim.ServiceTimePercentile(0.99);
  return counts;
}

}  // namespace

Result RunSimWorkload(const RunOptions& options) {
  Result result;
  result.workload = options.workload;
  const double horizon = options.smoke ? kSmokeHorizon : kHorizon;
  const double seconds = options.smoke ? 0.5 : options.seconds;

  // Set-up (model build and trace generation), repeated; the last is kept.
  // The host is calibrated before and after each set-up and each timed pass,
  // and the gated times are scaled to the reference host speed (HostSpeed).
  const bool single_setup = options.traced || options.smoke;
  HostSpeed host;
  std::vector<double> setup_s;
  std::vector<double> scaled_setup_s;
  std::unique_ptr<SimInputs> inputs;
  while (setup_s.empty() || (!single_setup && AnotherSetUp(setup_s))) {
    inputs.reset();
    const uint64_t start = telemetry::MonotonicNanos();
    inputs = std::make_unique<SimInputs>();
    BuildInputs(options.seed, horizon, inputs.get());
    setup_s.push_back(static_cast<double>(telemetry::MonotonicNanos() - start) * 1e-9);
    scaled_setup_s.push_back(setup_s.back() * host.Scale());
  }

  SimConfig config;
  config.system = SystemType::kOptimus;
  config.num_nodes = 64;
  config.containers_per_node = 8;
  config.placement.kind = BalancerKind::kModelSharing;
  config.records = RecordMode::kOff;
  config.warming.enabled = true;
  config.warming.interval = 60.0;
  config.churn.push_back({horizon / 3.0, 1, /*revive=*/false, /*grace=*/30.0});
  config.churn.push_back({2.0 * horizon / 3.0, 1, /*revive=*/true, 0.0});
  const AnalyticCostModel costs;

  std::vector<double> chunk_ms;  // Scaled.
  uint64_t wall_ns = 0, next_ns = 0, simulated = 0;
  double scaled_wall_s = 0.0;
  const auto simulate = [&](size_t k, bool timed) {
    TraceVectorSource source(inputs->traces[k], &inputs->functions);
    TimingSource timing(&source);
    const uint64_t start = telemetry::MonotonicNanos();
    const SimResult sim = RunSimulationStream(inputs->workload, &timing, config, costs);
    const uint64_t pass_ns = telemetry::MonotonicNanos() - start;
    const double scale = host.Scale();
    if (timed) {
      wall_ns += pass_ns;
      scaled_wall_s += static_cast<double>(pass_ns) * 1e-9 * scale;
      next_ns += timing.next_ns();
      simulated += sim.total_requests;
      for (const double ms : timing.chunk_ms()) {
        chunk_ms.push_back(ms * scale);
      }
    }
    ++result.attempted;
    return CountsOf(sim);
  };
  // An untimed pass first: the first simulation in a process runs markedly
  // slower (allocator growth, cold caches). Its counts are the reference the
  // timed passes of that trace must reproduce.
  const Counts warmup = simulate(0, false);
  // Then cycles through every trace until the timed length is used up; a
  // cycle starts only when it should still end in time, and every later pass
  // of a trace must reproduce its first counts exactly.
  std::vector<Counts> first;
  int cycles = 0;
  while (cycles == 0 || static_cast<double>(wall_ns) * 1e-9 * (cycles + 1) / cycles <= seconds) {
    for (size_t k = 0; k < inputs->traces.size(); ++k) {
      const Counts counts = simulate(k, true);
      if (cycles == 0) {
        first.push_back(counts);
      }
      if (!(counts == (k == 0 ? warmup : first[k]))) {
        ++result.failed;
        result.Violation("trace " + std::to_string(k) + " simulated differently in cycle " +
                         std::to_string(cycles + 1));
      }
    }
    ++cycles;
  }
  std::fprintf(stderr, "sim_azure: %d cycles over %zu traces\n", cycles, inputs->traces.size());

  // Conservation checks on each trace's counts; per-layer counts sum them.
  Counts sum;
  double service_p99_s = 0.0;
  for (size_t k = 0; k < first.size(); ++k) {
    const Counts& counts = first[k];
    const uint64_t started = counts.starts[0] + counts.starts[1] + counts.starts[2];
    if (started != counts.total || counts.total != inputs->traces[k].size()) {
      result.Violation("warm + transform + cold != total_requests on trace " + std::to_string(k));
    }
    if (counts.prewarms != counts.hits + counts.waste + counts.unused) {
      result.Violation("prewarms != hits + waste + unused on trace " + std::to_string(k));
    }
    if (counts.revocations != 1 || counts.revives != 1) {
      result.Violation("the node 1 revoke/revive pair did not run on trace " + std::to_string(k));
    }
    sum.total += counts.total;
    for (size_t i = 0; i < 3; ++i) {
      sum.starts[i] += counts.starts[i];
    }
    sum.prewarms += counts.prewarms;
    sum.hits += counts.hits;
    sum.waste += counts.waste;
    sum.churn_rebalances += counts.churn_rebalances;
    sum.rehomed += counts.rehomed;
    service_p99_s += counts.service_p99_s / static_cast<double>(first.size());
  }

  const double total = static_cast<double>(simulated);
  const double per_chunk = static_cast<double>(kChunk) * 1e-6;  // ns/request -> ms/chunk.
  std::sort(scaled_setup_s.begin(), scaled_setup_s.end());
  std::sort(chunk_ms.begin(), chunk_ms.end());
  result.EndToEnd("setup_s", "s", benchutil::ExactPercentile(scaled_setup_s, 0.5));
  result.EndToEnd("throughput_rps", "1/s", total / scaled_wall_s);
  result.EndToEnd("latency_mean_ms", "ms", Mean(chunk_ms));
  result.EndToEnd("latency_p50_ms", "ms", benchutil::ExactPercentile(chunk_ms, 0.5));
  result.EndToEnd("latency_p95_ms", "ms", benchutil::ExactPercentile(chunk_ms, 0.95));
  result.Layer("latency_p99_ms", "ms", benchutil::ExactPercentile(chunk_ms, 0.99));
  result.EndToEnd("peak_rss_mb", "MB", PeakRssMb());

  result.Layer("workload.next_ms", "ms", static_cast<double>(next_ns) / total * per_chunk);
  result.Layer("sim.core_ms", "ms", static_cast<double>(wall_ns - next_ns) / total * per_chunk);
  for (size_t k = 0; k < 3; ++k) {
    result.Layer(std::string("starts.") + kStartKinds[k], "count",
                 static_cast<double>(sum.starts[k]));
  }
  result.Layer("nonwarm_share", "ratio",
               Ratio(static_cast<double>(sum.starts[1] + sum.starts[2]),
                     static_cast<double>(sum.total)));
  result.Layer("warming.prewarms", "count", static_cast<double>(sum.prewarms));
  result.Layer("warming.hit_ratio", "ratio",
               Ratio(static_cast<double>(sum.hits), static_cast<double>(sum.prewarms)));
  result.Layer("warming.waste", "count", static_cast<double>(sum.waste));
  result.Layer("placement.churn_rebalances", "count", static_cast<double>(sum.churn_rebalances));
  result.Layer("sim.rehomed_requests", "count", static_cast<double>(sum.rehomed));
  result.Layer("sim_service_p99_s", "s", service_p99_s);
  result.Layer("host.calibration_ms", "ms", host.mean_ms());
  return result;
}

}  // namespace e2e
}  // namespace optimus
