// Streaming discrete-event cluster simulator for end-to-end serverless ML
// inference experiments (paper §8.3-§8.5; DESIGN.md §18).
//
// Requests flow through the lifecycle the paper's Figure 1 describes:
// dispatch to a node (via the load balancer), container acquisition
// (warm start / transformation / cold start per the system's policy),
// sandbox+runtime init, model load or transformation, inference compute.
// Virtual time comes from the calibrated cost model, so results are
// deterministic and machine-independent.
//
// The core is *streaming*: arrivals are pulled one at a time from a
// TraceSource (only the next arrival lives in the event queue), warming
// cycles and churn events schedule their successors lazily from their
// handlers, and accounting is one set of running counters plus a
// log-bucketed service-time histogram, folded in as each request is served.
// Simulation memory is therefore O(nodes + functions + histogram buckets) —
// independent of request count — which is what lets bench_sim_scale push
// ≥1M requests over ≥1000 nodes in one pass. A caller that needs
// per-request detail passes a RequestObserver, which sees each served
// request's RequestRecord once, in serve order.

#ifndef OPTIMUS_SRC_SIM_SIMULATOR_H_
#define OPTIMUS_SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/baselines/systems.h"
#include "src/placement/placement.h"
#include "src/sim/sim_stats.h"
#include "src/warming/policy.h"
#include "src/workload/function_table.h"
#include "src/workload/trace.h"
#include "src/workload/trace_source.h"

namespace optimus {

// Which idle container a full node evicts for a fresh one. kGreedyDual is
// the FaasCache-style keep-alive the paper calls complementary (§2.2): the
// victim is the container whose model is cheapest to reload, aged by a
// global clock.
enum class EvictionPolicy : uint8_t { kLru = 0, kGreedyDual };

// One scheduled node-lifecycle event (DESIGN.md §16) — the simulator mirror
// of the live platform's RevokeNode/ReviveNode, so churn ablations replay
// identically live and simulated. Events execute in (time, schedule-order).
struct NodeChurnEvent {
  double time = 0.0;
  int node = 0;
  // false = revoke (grace window below), true = revive a Down node.
  bool revive = false;
  // Revoke only: virtual seconds of grace before the node's containers are
  // reclaimed; <= 0 kills the node immediately.
  double grace = 0.0;
};

// Vestige of the deleted per-request records path: its only value is kOff,
// and the simulator ignores it. bench/e2e still sets SimConfig::records, so
// the next benchmark change drops that line and then deletes this enum.
enum class RecordMode : uint8_t { kOff = 0 };

struct SimConfig {
  SystemType system = SystemType::kOptimus;
  int num_nodes = 2;
  int containers_per_node = 8;
  double idle_threshold = 60.0;   // §4.2 timer threshold.
  double keep_alive = 600.0;      // 10-minute keep-alive (§8.1).
  EvictionPolicy eviction = EvictionPolicy::kLru;
  SystemProfile profile = SystemProfile::Cpu();
  // Placement strategy, solved by the live platform's PlacementManager
  // (src/placement). The paper's Optimus uses the model sharing-aware
  // policy; existing systems hash.
  PlacementOptions placement;
  PlannerKind planner = PlannerKind::kGroup;

  // Vestige, ignored (see RecordMode).
  RecordMode records = RecordMode::kOff;

  // --- Memory modeling (§6 "fine-grained resource allocation"). -------------
  // Per-node memory budget; 0 disables memory accounting entirely.
  int64_t node_memory_bytes = 0;
  // Homogeneous allocation (the paper's default): every container gets this
  // size regardless of its model.
  int64_t uniform_container_bytes = 4LL << 30;
  // Fine-grained allocation (§6 extension): size each container to its
  // model's footprint, fitting more containers per node — at the price that
  // a small donor container cannot host a larger model.
  bool fine_grained_containers = false;

  // --- Node churn (DESIGN.md §16). ------------------------------------------
  // Scheduled revocations/revives. On a revoke the node stops receiving new
  // routes (the placement table republishes with the node masked dead and the
  // policy re-clusters over the survivors), its queued requests re-home, and
  // its containers are reclaimed when the grace window closes. A node with
  // no live peer left is still routed to; it fails what it cannot serve.
  std::vector<NodeChurnEvent> churn;

  // --- Forecast-driven warming (DESIGN.md §17). -----------------------------
  // The same WarmingEngine the live platform runs, in virtual time: one
  // warming cycle per warming.interval harvests served counts into a demand
  // accumulator, forecasts, and executes budget-capped pre-warm orders.
  WarmingOptions warming;
};

// One served request's latency decomposition, handed to a RequestObserver.
struct RequestRecord {
  FunctionId function = kInvalidFunction;
  // Arrival index (0-based) in the source's order; the trace position under
  // RunSimulation.
  uint64_t ordinal = 0;
  double arrival = 0.0;
  double wait = 0.0;     // Queueing delay on the node.
  double init = 0.0;     // Sandbox/runtime/GPU initialization.
  double load = 0.0;     // Model load or transformation.
  double compute = 0.0;  // Inference computation.
  StartType start = StartType::kCold;

  double ServiceTime() const { return wait + init + load + compute; }
};

// Called once per served request, in serve order (not arrival order).
using RequestObserver = std::function<void(const RequestRecord&)>;

struct SimResult {
  // --- Request accounting: one fold per served request (DESIGN.md §18). -----
  uint64_t total_requests = 0;
  double sum_wait = 0.0;
  double sum_init = 0.0;
  double sum_load = 0.0;
  double sum_compute = 0.0;
  // Start-type counts indexed by StartType (kWarm/kTransform/kCold).
  std::array<uint64_t, 3> start_counts{};
  // Log-bucketed service-time distribution (~5% relative resolution).
  LatencyHistogram service_hist;
  // Requests routed to a node that could not serve them (Down, or Draining
  // past its grace window; only a total outage routes there) — the sim twin
  // of the live platform's failed invokes (kUnavailable). Every arrival is
  // either served or failed: total_requests + failed_requests == arrivals.
  uint64_t failed_requests = 0;

  // Node-churn accounting (all zero when SimConfig::churn is empty).
  size_t revocations = 0;
  size_t revives = 0;
  size_t reclaimed_containers = 0;
  // Queued requests re-dispatched off a revoked node onto survivors (in a
  // total outage they fail instead).
  size_t rehomed_requests = 0;
  // Churn re-solves the placement manager published (one per revoke or
  // revive whose re-cluster succeeded).
  size_t churn_rebalances = 0;

  // Forecast-driven warming accounting (all zero when SimConfig::warming is
  // disabled) — the same bucket semantics as PlatformCounters: speculative
  // work never touches the per-request start-type counts, and
  //   prewarms_cold + prewarms_transform == hits + waste + unused.
  size_t warming_cycles = 0;
  size_t warming_orders = 0;
  size_t warming_prewarms_cold = 0;
  size_t warming_prewarms_transform = 0;
  size_t warming_hits = 0;
  size_t warming_waste = 0;
  size_t warming_skipped = 0;
  // Pre-warmed containers still alive and unused at the horizon.
  size_t warming_unused = 0;
  // Virtual seconds between each pre-warm and its first hit. Bounded by the
  // number of warming orders (O(horizon / interval)), not by requests.
  std::vector<double> warming_lead_seconds;

  size_t WarmingPrewarms() const { return warming_prewarms_cold + warming_prewarms_transform; }

  double AvgServiceTime() const { return service_hist.Mean(); }
  double AvgWait() const { return PerRequest(sum_wait); }
  double AvgInit() const { return PerRequest(sum_init); }
  double AvgLoad() const { return PerRequest(sum_load); }
  double AvgCompute() const { return PerRequest(sum_compute); }
  size_t CountOf(StartType type) const { return start_counts[static_cast<size_t>(type)]; }
  // Fraction of requests served via the given start type, in [0, 1].
  double FractionOf(StartType type) const { return PerRequest(static_cast<double>(CountOf(type))); }
  // Service-time percentile (q in [0, 1], e.g. 0.5 / 0.95 / 0.99), read from
  // the log-bucketed histogram: within one bucket's relative width.
  double ServiceTimePercentile(double q) const { return service_hist.Percentile(q); }

 private:
  double PerRequest(double sum) const {
    return total_requests == 0 ? 0.0 : sum / static_cast<double>(total_requests);
  }
};

// The function universe a streaming simulation serves. Functions alias model
// structures via `function_model` (many functions per model is the
// million-function regime: distinct names, shared architecture), so memory
// stays O(functions + distinct models).
struct SimWorkload {
  // Distinct model structures. Must outlive the simulation.
  const std::vector<Model>* models = nullptr;
  // Interned names of every function the source may emit.
  const FunctionTable* functions = nullptr;
  // FunctionId -> index into *models. Empty means identity (function i
  // serves models[i]; requires functions->size() == models->size()).
  std::vector<int32_t> function_model;
  // Demand history for the initial placement solve; may be empty.
  std::map<std::string, DemandSeries> history;
};

// Runs the trace through a cluster of the configured system. `models` are the
// registered (structure-only) models; every function in `trace` must appear.
// Materializes nothing extra: this is the streaming core behind a
// TraceVectorSource adapter. A record's `ordinal` is its trace position.
SimResult RunSimulation(const std::vector<Model>& models, const Trace& trace,
                        const SimConfig& config, const CostModel& costs,
                        const RequestObserver& observer = {});

// Streaming entry point: pulls arrivals from `source` (which must emit only
// functions present in `workload.functions`). Memory stays O(nodes +
// functions), independent of request count. Throws std::invalid_argument for
// a cluster that can never serve a request: no container slots, or modeled
// node memory smaller than the container of a function it serves.
SimResult RunSimulationStream(const SimWorkload& workload, TraceSource* source,
                              const SimConfig& config, const CostModel& costs,
                              const RequestObserver& observer = {});

}  // namespace optimus

#endif  // OPTIMUS_SRC_SIM_SIMULATOR_H_
