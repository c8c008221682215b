// An in-process serverless ML inference platform — the prototype of §7.
//
// OptimusPlatform plays the role of the gateway + scheduler services: clients
// Deploy() models (stored serialized in the "Docker volume" repository; plans
// are pre-computed and cached at registration, §4.4 Module 3) and Invoke()
// functions. Each invocation is routed to a worker node and served from a
// real container holding a real ModelInstance:
//
//   * warm start      — an idle container already holds the model;
//   * transformation  — a sufficiently idle container of another function is
//                       repurposed by executing the cached meta-operator plan
//                       (with the safeguard's scratch fallback);
//   * cold start      — a fresh container is created and the model loads from
//                       scratch.
//
// Routing (DESIGN.md §13) follows the policy/mechanism split: the platform is
// a thin router over two subsystems. The *placement* subsystem
// (src/placement) owns the function→node mapping as a versioned,
// atomically-swappable table computed by the configured PlacementPolicy
// (hash / load_based / the §5.1 model-sharing K-medoids scheme); the
// *NodePool* (src/core/node_pool.h) owns container state behind per-node
// locks. Invoke() consults the table for an O(1) primary-node decision and
// locks only that node; neighbor nodes are probed (one lock at a time) only
// under capacity pressure — a full primary with no idle transform donor.
// Deploy() slots the new function into the table incrementally, and a
// background rebalancer recomputes the K-medoids placement from demand series
// accumulated out of the telemetry registry's per-function invoke counters.
//
// Time is a caller-driven virtual clock (advanced by the `now` argument), so
// idle-threshold and keep-alive behaviour is deterministic; the *content* of
// containers (weights, inference results) is fully real.
//
// Clock semantics: the virtual clock is the CAS-max over every `now` any
// invocation has presented. A caller whose `now` is older than the clock
// (normal under concurrency — threads race between reading their timestamp
// and reaching the platform) is *clamped forward*: the invocation behaves as
// if it arrived at the newest observed time. Time never moves backwards and
// stale timestamps are never an error.
//
// Failure semantics (DESIGN.md §11): Invoke()/TryInvoke() never leak raw
// internal exceptions. Every failure is classified by the ErrorCode taxonomy
// (src/common/status.h). Transformation is transactional at the container
// level: if plan execution fails mid-plan, the poisoned container is
// destroyed, the failure is charged to the plan cache's quarantine, and the
// request falls back to a scratch (cold) load — the client sees a slower
// start, not an error, unless the fallback itself fails (kUnavailable).
// A failed placement recompute (the `placement.rebalance` fault point)
// leaves the previous table serving.
//
// Thread safety: Deploy() and Invoke() are safe to call concurrently from any
// number of threads. The locking discipline (also documented in DESIGN.md §15,
// and enforced by the annotated sync primitives + the debug lock-rank
// validator):
//   * `repository_mutex_` (SharedMutex, rank kRepository) guards the model
//     repository — shared for Invoke's lookup, exclusive for Deploy's insert.
//     Models are immutable once registered and std::map nodes are stable, so
//     plain `const Model&` references remain valid outside the lock.
//   * each NodePool node carries its own mutex guarding that node's container
//     state; invocations routed to different nodes never contend, and the
//     invoke path holds at most one node lock at a time. The lock is held
//     only to pick a container and lease it: transform, scratch load and
//     inference run on the leased container with the lock dropped, so one
//     node serves as many requests at once as it has containers.
//   * the placement table is read lock-free (atomic shared_ptr acquire) and
//     swapped wholesale; readers see the old or the new table, never a torn
//     one (DESIGN.md §13).
//   * the start-type counters are registry atomics; the virtual clock is an
//     atomic advanced by a CAS-max loop.
//   * PlanCache synchronizes itself (sharded mutexes + in-flight latches).

#ifndef OPTIMUS_SRC_CORE_PLATFORM_H_
#define OPTIMUS_SRC_CORE_PLATFORM_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"
#include "src/container/container.h"
#include "src/core/node_pool.h"
#include "src/core/transformer.h"
#include "src/graph/serialization.h"
#include "src/placement/manager.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/warming/policy.h"

namespace optimus {

struct PlatformOptions {
  int num_nodes = 1;
  int containers_per_node = 4;
  double idle_threshold = 60.0;
  double keep_alive = 600.0;
  PlannerKind planner = PlannerKind::kGroup;
  // Pre-plan transformations against all registered models at Deploy() time
  // (the paper's planning-strategy caching). Disable to plan lazily.
  bool warm_plan_cache = true;
  // Workers used for deploy-time plan warming. Values > 1 fan the pair
  // plannings out across a pool; 0 or 1 keeps the serial path. The cache
  // contents are identical either way.
  int warm_threads = 0;
  // Request tracing (DESIGN.md §12): completed traces retained in the
  // collector's ring, the sampling period (~1/period of requests traced; 0
  // disables sampling entirely), and the sampler's deterministic seed.
  size_t trace_capacity = 256;
  uint64_t trace_sample_period = 64;
  uint64_t trace_seed = 0x7ace;
  // Placement policy (§5.1) behind the function→node table. Defaults to the
  // model sharing-aware K-medoids scheme.
  PlacementOptions placement;
  // Virtual seconds between demand-driven placement recomputes; 0 disables
  // the background rebalancer (deploy-incremental and manual RebalanceNow()
  // updates still run).
  double rebalance_interval = 0.0;
  // Neighbor nodes probed (for a warm container or a free slot) when the
  // primary node is under capacity pressure; 0 pins requests to the primary.
  int route_fallback_breadth = 1;
  // Forecast-driven warming (DESIGN.md §17). Disabled by default; when
  // enabled with warming.interval > 0 a background loop runs one warming
  // cycle per interval of virtual time (driven by invoke timestamps, like
  // the rebalancer). With interval <= 0 cycles only run via WarmNow().
  WarmingOptions warming;
};

// Result of one invocation.
struct InvokeResult {
  std::vector<float> output;       // Real inference output.
  StartType start = StartType::kCold;
  double estimated_latency = 0.0;  // Cost-model latency of the chosen path
                                   // (init + load/transform + compute).
  std::string donor_function;      // Set when a transformation occurred.
  int node = -1;
  // True when the request was served by the scratch fallback after a failed
  // (aborted mid-plan) transformation; `start` is kCold in that case.
  bool transform_fallback = false;
};

// Snapshot of the platform's monotone counters. Success counters
// (warm/transform/cold) are incremented only after inference produced output,
// so warm + transform + cold equals the number of successful invocations.
struct PlatformCounters {
  size_t warm_starts = 0;
  size_t transforms = 0;
  size_t cold_starts = 0;
  // TransformOrLoad aborted inside a donor container; the container was
  // destroyed (each failure destroys exactly one container).
  size_t transform_failures = 0;
  // Requests served by the scratch fallback after such a failure.
  size_t transform_fallbacks = 0;
  // Donor candidates skipped because planning/verification threw in Decide.
  size_t decide_failures = 0;
  // TryInvoke calls that returned a non-OK status.
  size_t failed_invokes = 0;
  // Node lifecycle (DESIGN.md §16): revocations issued, Down nodes revived,
  // containers reclaimed by kills/finalized drains, and invokes re-homed
  // because their routed node was no longer accepting.
  size_t node_revocations = 0;
  size_t node_revives = 0;
  size_t reclaimed_containers = 0;
  size_t rerouted_invokes = 0;
  int draining_nodes = 0;
  int accepting_nodes = 0;
  // Forecast-driven warming (DESIGN.md §17) — a distinct accounting bucket:
  // speculative transforms/loads never touch the warm/transform/cold success
  // counters above, so `warm + transform + cold == successful invokes` keeps
  // holding with warming enabled. Conservation within the bucket:
  //   warming_prewarms_cold + warming_prewarms_transform
  //     == warming_hits + warming_waste + (live pre-warmed containers).
  size_t warming_cycles = 0;
  size_t warming_orders = 0;
  size_t warming_prewarms_cold = 0;       // Speculative scratch loads.
  size_t warming_prewarms_transform = 0;  // Speculative transformations.
  size_t warming_hits = 0;    // Pre-warmed container served its first request.
  size_t warming_misses = 0;  // Non-warm start while warming was enabled.
  size_t warming_waste = 0;   // Pre-warmed container died unused.
  size_t warming_skipped = 0;  // Orders dropped (no donor, already warm, ...).
  size_t warming_failures = 0;  // Orders aborted by faults/transform errors.
};

class OptimusPlatform {
 public:
  OptimusPlatform(const CostModel* costs, const PlatformOptions& options);
  ~OptimusPlatform();

  // Registers a function. The model is serialized into the repository; if the
  // structure carries no weights, deterministic weights are materialized.
  // Throws std::invalid_argument on duplicate names.
  void Deploy(const std::string& function, const Model& model);

  // Registers a function from a serialized model file.
  void DeployFile(const std::string& function, const ModelFile& file);

  // Serves one inference request at virtual time `now` (seconds; stale values
  // are clamped forward to the platform clock — see "Clock semantics" above).
  // On failure returns a typed Status from the ErrorCode taxonomy and leaves
  // *result unspecified; never throws for classified failures (kNotFound for
  // unknown functions, kUnavailable for transient load/transform failures,
  // kInternal otherwise). A non-null `trace` (normally obtained from
  // traces().MaybeStartTrace) records spans for the plan lookup, each executed
  // meta-op step, the scratch load, and inference.
  Status TryInvoke(const std::string& function, const std::vector<float>& input, double now,
                   InvokeResult* result, telemetry::TraceContext* trace = nullptr);

  // Throwing wrapper over TryInvoke: returns the result or throws
  // OptimusError carrying the same typed code.
  InvokeResult Invoke(const std::string& function, const std::vector<float>& input, double now,
                      telemetry::TraceContext* trace = nullptr);

  // Operational introspection.
  size_t NumFunctions() const;
  size_t NumLiveContainers() const;
  const PlanCache& plan_cache() const { return transformer_->cache(); }
  PlanCache& plan_cache() { return transformer_->cache(); }
  size_t WarmStarts() const { return static_cast<size_t>(warm_starts_.Value()); }
  size_t Transforms() const { return static_cast<size_t>(transforms_.Value()); }
  size_t ColdStarts() const { return static_cast<size_t>(cold_starts_.Value()); }
  PlatformCounters counters() const;

  // Placement introspection and control (DESIGN.md §13).
  PlacementManager& placement() { return *placement_; }
  const PlacementManager& placement() const { return *placement_; }
  std::shared_ptr<const PlacementTable> PlacementSnapshot() const { return placement_->Table(); }
  uint64_t PlacementVersion() const { return placement_->Version(); }
  // Synchronously harvests per-function demand from the telemetry registry
  // and recomputes the placement. Returns false when the recompute failed
  // (the previous table keeps serving). `reason` labels the rebalance
  // counter ("manual" for operator-initiated runs).
  bool RebalanceNow(const std::string& reason = "manual");
  // Computes what RebalanceNow would publish and diffs it against the
  // serving table without swapping snapshots (POST /rebalance?dry_run=1).
  PlacementDiff PreviewRebalance();
  // Node-lock acquisitions so far (see NodePool::LockAcquisitions) — lets
  // tests pin the O(1)-routing claim: a warm hit takes exactly two, one to
  // lease its container and one to return it.
  uint64_t NodeLockAcquisitions() const { return pool_->LockAcquisitions(); }

  // Forecast-driven warming (DESIGN.md §17). The engine is always
  // constructed (so warming can be enabled at runtime via the gateway admin
  // route); the background loop only exists when options.warming.interval is
  // positive.
  bool WarmingEnabled() const { return warming_engine_->enabled(); }
  void SetWarmingEnabled(bool enabled) { warming_engine_->set_enabled(enabled); }
  // Runs one warming cycle synchronously at virtual time `now`: harvests
  // demand into the placement accumulator (the same signal the rebalancer
  // and GET /demand see), plans budget-capped orders against the serving
  // table, and executes them. Returns the number of orders that produced a
  // pre-warmed container. No-op (returns 0) while warming is disabled.
  size_t WarmNow(double now);
  // Live containers currently pre-warmed and not yet hit.
  size_t PrewarmedContainers() const;
  // Containers currently leased to a request or a pre-warm (DESIGN.md §9).
  size_t LeasedContainers() const;
  std::string WarmingStatsJson() const;

  // Node lifecycle & churn (DESIGN.md §16). RevokeNode models a spot
  // revocation or operator drain at virtual time `now`: the node stops
  // accepting new routes immediately (the placement mask republishes with the
  // node dead, and RouteAccepting skips it during the race window), in-flight
  // work may finish within `grace_seconds`, and the dead node's demand is
  // re-homed through the active policy (reason "node_down"). A grace of zero
  // reclaims the node's containers and spare arenas on the spot. ReviveNode
  // brings a Down node back (Reviving; placement republishes with reason
  // "node_up"). Both re-solve from the demand history as it stands, closing
  // no demand slot. Both return false when the node is not in a state that
  // admits the transition.
  bool RevokeNode(int node, double grace_seconds, double now);
  bool ReviveNode(int node);
  NodeLifecycle NodeState(int node) const { return pool_->Lifecycle(node); }
  std::vector<NodeLifecycle> NodeLifecycles() const { return pool_->LifecycleSnapshot(); }
  int DrainingNodes() const { return pool_->DrainingNodes(); }
  int AcceptingNodes() const { return pool_->AcceptingNodes(); }
  int num_nodes() const { return pool_->num_nodes(); }

  // Telemetry (DESIGN.md §12). The platform owns the registry every layer
  // below it (plan cache, transformer, loader) reports into, plus the trace
  // collector holding completed request traces.
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  telemetry::TraceCollector& traces() { return traces_; }

  // Debug/chaos introspection: validates every live container (not leased,
  // resident model loaded, structurally valid, and named after the
  // container's function) and returns one human-readable line per violation.
  // A healthy platform — in particular one that has absorbed transformation
  // failures — returns empty. Call it only at a quiet point, with no invoke or
  // warming cycle in flight: a lease outstanding then is a leaked one.
  std::vector<std::string> CheckContainerIntegrity() const;

 private:
  // One registered function: its loaded model, the model's cost record
  // (CPU profile), and the per-function latency series, all resolved once at
  // Deploy() so the invoke path neither walks the model's graph nor takes the
  // registry's name lookup. Entries never change after insertion. The
  // histogram's count doubles as the cumulative demand signal the rebalancer
  // harvests.
  struct FunctionEntry {
    Model model;
    ModelCosts costs;
    telemetry::Histogram* invoke_seconds = nullptr;
  };

  // CAS-max advance of the platform's VirtualClock; returns the effective
  // time max(now, clock). Thin wrapper kept so every caller funnels through
  // the shared Clock abstraction (DESIGN.md §18).
  double AdvanceClock(double now);
  // Routing that tolerates a stale placement table: the table's primary when
  // it is accepting routes, otherwise a deterministic probe over accepting
  // nodes (counted in optimus_rerouted_invokes_total).
  int RouteAccepting(const std::string& function);
  // The capacity-pressure fallback: the first of up to route_fallback_breadth
  // accepting neighbors of `primary` with an idle container of `function` or
  // a free slot, locked, or else `primary` re-locked. Takes one lock at a
  // time; the caller has released the primary.
  NodePool::LockedNode ProbeNeighbors(int primary, const std::string& function, double now,
                                      uint64_t* wait_ns);
  // Lazily finalizes expired drains (cheap no-op when nothing is draining).
  void FinalizeDrains(double now);
  // ReapExpired on a locked node, charging reaped never-hit pre-warmed
  // containers to speculative waste.
  void ReapNode(NodePool::LockedNode& node, double now);
  // The un-wrapped invocation path; throws OptimusError (and, for bugs,
  // other exceptions TryInvoke classifies as kInternal).
  InvokeResult InvokeInternal(const std::string& function, const std::vector<float>& input,
                              double now, telemetry::TraceContext* trace);
  // The deployed models, in name order, and each deployed function's
  // cumulative invoke count (the demand signal RebalanceNow and WarmNow
  // harvest into the placement accumulator).
  std::vector<const Model*> DeployedModels() const EXCLUDES(repository_mutex_);
  std::map<std::string, uint64_t> InvokeTotals() const EXCLUDES(repository_mutex_);
  // Re-solves the placement over the deployed models from the demand history
  // as it stands, closing no slot: churn re-solves must not record a short
  // slot the warming forecaster would read as falling demand. Returns false
  // when nothing is deployed or the solve failed.
  bool ResolvePlacement(const std::string& reason);
  // Wakes the background rebalancer (no-op when it is not running).
  void RequestRebalance() EXCLUDES(rebalance_mutex_);
  void RebalancerLoop() EXCLUDES(rebalance_mutex_);
  // Wakes the background warming loop (no-op when it is not running).
  void RequestWarming() EXCLUDES(warming_mutex_);
  void WarmingLoop() EXCLUDES(warming_mutex_);
  // Executes one pre-warm order against its node: a speculative scratch load
  // into a free slot, or a speculative transformation of the cheapest
  // sufficiently-idle donor. Never evicts (speculation must not displace
  // reactive state). Returns true when a pre-warmed container was produced.
  bool ExecutePrewarmOrder(const WarmingOrder& order, double now);
  // The donor both the reactive and the speculative path transform: among
  // `node`'s containers idle for at least idle_threshold at `now`, the one
  // whose Decide toward `model` has the lowest ChosenCost (the first in
  // container order wins a tie). A candidate whose Decide throws is skipped
  // and counted in decide_failures_. Null when no container qualifies.
  RealContainer* PickDonor(NodePool::LockedNode& node, const Model& model, double scratch_load,
                           double now, telemetry::TraceContext* trace = nullptr);

  const CostModel* costs_;
  PlatformOptions options_;
  // Registry before every member that binds series on it (init order).
  telemetry::MetricsRegistry metrics_;
  telemetry::TraceCollector traces_;
  Loader loader_;
  std::unique_ptr<Transformer> transformer_;
  std::unique_ptr<ThreadPool> warm_pool_;  // Present when warm_threads > 1.
  mutable SharedMutex repository_mutex_{LockRank::kRepository, "platform.repository"};
  // Loaded (weighted) models.
  std::map<std::string, FunctionEntry> repository_ GUARDED_BY(repository_mutex_);
  std::unique_ptr<NodePool> pool_;
  std::unique_ptr<PlacementManager> placement_;
  // The platform's single time source: keep-alive reaping, drain deadlines,
  // rebalance cadence, and warming cycles all read this clock, which invokers
  // advance with their (virtual or wall) timestamps. The simulator drives the
  // same logic from its own VirtualClock — the sim/live twin property.
  VirtualClock clock_;
  // Background rebalancer (running only when rebalance_interval > 0). Rank
  // kRebalance sits above kNode/kPlanCache* because RebalancerLoop drops the
  // mutex before calling RebalanceNow (which takes kRepository).
  Mutex rebalance_mutex_{LockRank::kRebalance, "platform.rebalance"};
  CondVar rebalance_cv_;
  bool rebalance_requested_ GUARDED_BY(rebalance_mutex_) = false;
  bool shutdown_ GUARDED_BY(rebalance_mutex_) = false;
  std::thread rebalancer_;
  // Forecast-driven warming (DESIGN.md §17). The engine bundles the
  // forecaster + WarmingPolicy + cycle cadence and is shared logic with the
  // simulator. Rank kWarming sits above kRebalance (the loops never nest)
  // and below kDemand; WarmingLoop drops its mutex before WarmNow, which
  // takes kRepository → kDemand → kNode in turn.
  std::unique_ptr<WarmingEngine> warming_engine_;
  Mutex warming_mutex_{LockRank::kWarming, "platform.warming"};
  CondVar warming_cv_;
  bool warming_requested_ GUARDED_BY(warming_mutex_) = false;
  bool warming_shutdown_ GUARDED_BY(warming_mutex_) = false;
  std::thread warming_thread_;
  // Monotone counters and latency series, re-homed onto the registry (the
  // registry is the single source of truth; counters() is a thin view).
  telemetry::Counter& warm_starts_;
  telemetry::Counter& transforms_;
  telemetry::Counter& cold_starts_;
  telemetry::Counter& transform_failures_;
  telemetry::Counter& transform_fallbacks_;
  telemetry::Counter& decide_failures_;
  telemetry::Counter& failed_invokes_;
  telemetry::Counter& node_revocations_;
  telemetry::Counter& node_revives_;
  telemetry::Counter& drained_containers_;
  telemetry::Counter& rerouted_invokes_;
  telemetry::Counter& warming_cycles_;
  telemetry::Counter& warming_orders_;
  telemetry::Counter& warming_prewarms_cold_;
  telemetry::Counter& warming_prewarms_transform_;
  telemetry::Counter& warming_hits_;
  telemetry::Counter& warming_misses_;
  telemetry::Counter& warming_waste_;
  telemetry::Counter& warming_skipped_;
  telemetry::Counter& warming_failures_;
  telemetry::Histogram& invoke_seconds_warm_;
  telemetry::Histogram& invoke_seconds_transform_;
  telemetry::Histogram& invoke_seconds_cold_;
  telemetry::Histogram& decide_seconds_;
  telemetry::Histogram& transform_seconds_;
  telemetry::Histogram& inference_seconds_;
  // Time an invoke spent blocked on node locks and lease returns.
  telemetry::Histogram& node_wait_seconds_;
  // Virtual seconds between a speculative prepare and its first warm hit.
  telemetry::Histogram& warming_lead_seconds_;
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_CORE_PLATFORM_H_
