#include "src/core/platform.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "src/common/fault.h"
#include "src/runtime/inference.h"

namespace optimus {

OptimusPlatform::OptimusPlatform(const CostModel* costs, const PlatformOptions& options)
    : costs_(costs),
      options_(options),
      traces_(&metrics_, telemetry::TraceCollectorOptions{options.trace_capacity,
                                                          options.trace_sample_period,
                                                          options.trace_seed}),
      loader_(costs),
      warm_starts_(metrics_.GetCounter("optimus_starts_total", {{"kind", "warm"}},
                                       "Successful invocations by start type")),
      transforms_(metrics_.GetCounter("optimus_starts_total", {{"kind", "transform"}},
                                      "Successful invocations by start type")),
      cold_starts_(metrics_.GetCounter("optimus_starts_total", {{"kind", "cold"}},
                                       "Successful invocations by start type")),
      transform_failures_(
          metrics_.GetCounter("optimus_transform_failures_total", {},
                              "Transformations aborted mid-plan (container destroyed)")),
      transform_fallbacks_(
          metrics_.GetCounter("optimus_transform_fallbacks_total", {},
                              "Requests served by the scratch fallback after a failed transform")),
      decide_failures_(metrics_.GetCounter("optimus_decide_failures_total", {},
                                           "Donor candidates skipped because Decide threw")),
      failed_invokes_(metrics_.GetCounter("optimus_failed_invokes_total", {},
                                          "TryInvoke calls that returned a non-OK status")),
      node_revocations_(metrics_.GetCounter("optimus_node_revocations_total", {},
                                            "Node revocations issued (drain or immediate kill)")),
      node_revives_(metrics_.GetCounter("optimus_node_revives_total", {},
                                        "Down nodes brought back into rotation")),
      drained_containers_(
          metrics_.GetCounter("optimus_drained_containers_total", {},
                              "Containers reclaimed by node kills and finalized drains")),
      rerouted_invokes_(
          metrics_.GetCounter("optimus_rerouted_invokes_total", {},
                              "Invokes re-homed because the routed node was not accepting")),
      warming_cycles_(metrics_.GetCounter("optimus_warming_cycles_total", {},
                                          "Forecast-driven warming cycles executed")),
      warming_orders_(metrics_.GetCounter("optimus_warming_orders_total", {},
                                          "Pre-warm orders planned by the warming policy")),
      warming_prewarms_cold_(
          metrics_.GetCounter("optimus_warming_prewarms_total", {{"kind", "cold"}},
                              "Containers prepared speculatively, by mechanism")),
      warming_prewarms_transform_(
          metrics_.GetCounter("optimus_warming_prewarms_total", {{"kind", "transform"}},
                              "Containers prepared speculatively, by mechanism")),
      warming_hits_(metrics_.GetCounter("optimus_warming_hits_total", {},
                                        "Requests served warm by a pre-warmed container")),
      warming_misses_(
          metrics_.GetCounter("optimus_warming_misses_total", {},
                              "Non-warm starts while warming was enabled (forecast misses)")),
      warming_waste_(metrics_.GetCounter("optimus_warming_waste_total", {},
                                         "Pre-warmed containers that died before any request")),
      warming_skipped_(
          metrics_.GetCounter("optimus_warming_skipped_total", {},
                              "Pre-warm orders dropped (already warm, no donor, node down)")),
      warming_failures_(
          metrics_.GetCounter("optimus_warming_failures_total", {},
                              "Pre-warm orders aborted by faults or transform failures")),
      invoke_seconds_warm_(metrics_.GetHistogram("optimus_invoke_seconds", {{"start", "warm"}},
                                                 "End-to-end invoke wall seconds by start type")),
      invoke_seconds_transform_(
          metrics_.GetHistogram("optimus_invoke_seconds", {{"start", "transform"}},
                                "End-to-end invoke wall seconds by start type")),
      invoke_seconds_cold_(metrics_.GetHistogram("optimus_invoke_seconds", {{"start", "cold"}},
                                                 "End-to-end invoke wall seconds by start type")),
      decide_seconds_(metrics_.GetHistogram("optimus_phase_seconds", {{"phase", "decide"}},
                                            "Wall seconds spent per invoke-path phase")),
      transform_seconds_(metrics_.GetHistogram("optimus_phase_seconds", {{"phase", "transform"}},
                                               "Wall seconds spent per invoke-path phase")),
      inference_seconds_(metrics_.GetHistogram("optimus_phase_seconds", {{"phase", "inference"}},
                                               "Wall seconds spent per invoke-path phase")),
      node_wait_seconds_(metrics_.GetHistogram("optimus_phase_seconds", {{"phase", "node_wait"}},
                                               "Wall seconds spent per invoke-path phase")),
      warming_lead_seconds_(
          metrics_.GetHistogram("optimus_warming_lead_seconds", {},
                                "Virtual seconds between a pre-warm and its first hit")) {
  if (options.num_nodes < 1 || options.containers_per_node < 1) {
    throw std::invalid_argument("OptimusPlatform: need at least one node and one container");
  }
  loader_.set_metrics(&metrics_);
  transformer_ = std::make_unique<Transformer>(costs, options.planner, &metrics_);
  if (options.warm_plan_cache && options.warm_threads > 1) {
    warm_pool_ = std::make_unique<ThreadPool>(options.warm_threads);
  }
  pool_ = std::make_unique<NodePool>(options.num_nodes, options.containers_per_node);
  PlacementManagerOptions placement_options;
  placement_options.policy = options.placement;
  placement_options.num_nodes = options.num_nodes;
  placement_options.rebalance_interval = options.rebalance_interval;
  placement_ = std::make_unique<PlacementManager>(placement_options, costs, &metrics_);
  // Always construct the engine (the gateway admin route can enable warming
  // at runtime); the loop thread only exists when a cadence is configured.
  warming_engine_ = std::make_unique<WarmingEngine>(options.warming);
  // The engine's cadence reads the platform clock — warming, keep-alive, and
  // drains consult one time source (DESIGN.md §18).
  warming_engine_->AttachClock(&clock_);
  if (options.rebalance_interval > 0.0) {
    rebalancer_ = std::thread([this] { RebalancerLoop(); });
  }
  if (options.warming.interval > 0.0) {
    warming_thread_ = std::thread([this] { WarmingLoop(); });
  }
}

OptimusPlatform::~OptimusPlatform() {
  {
    MutexLock lock(rebalance_mutex_);
    shutdown_ = true;
  }
  rebalance_cv_.NotifyAll();
  if (rebalancer_.joinable()) {
    rebalancer_.join();
  }
  {
    MutexLock lock(warming_mutex_);
    warming_shutdown_ = true;
  }
  warming_cv_.NotifyAll();
  if (warming_thread_.joinable()) {
    warming_thread_.join();
  }
}

void OptimusPlatform::RequestRebalance() {
  if (!rebalancer_.joinable()) {
    return;
  }
  {
    MutexLock lock(rebalance_mutex_);
    rebalance_requested_ = true;
  }
  rebalance_cv_.NotifyOne();
}

void OptimusPlatform::RebalancerLoop() {
  MutexLock lock(rebalance_mutex_);
  for (;;) {
    while (!rebalance_requested_ && !shutdown_) {
      rebalance_cv_.Wait(rebalance_mutex_);
    }
    if (shutdown_) {
      return;
    }
    rebalance_requested_ = false;
    // Drop the mutex across the recompute: RebalanceNow takes the repository
    // (rank kRepository, below kRebalance) and the demand/update locks, and
    // invokers signalling RequestRebalance must not block on a recompute.
    lock.Unlock();
    RebalanceNow("demand");
    lock.Lock();
  }
}

std::vector<const Model*> OptimusPlatform::DeployedModels() const {
  std::vector<const Model*> models;
  ReaderLock lock(repository_mutex_);
  models.reserve(repository_.size());
  for (const auto& [name, entry] : repository_) {
    models.push_back(&entry.model);  // Map nodes are stable; models immutable.
  }
  return models;
}

std::map<std::string, uint64_t> OptimusPlatform::InvokeTotals() const {
  std::map<std::string, uint64_t> totals;
  ReaderLock lock(repository_mutex_);
  for (const auto& [name, entry] : repository_) {
    totals[name] = entry.invoke_seconds != nullptr ? entry.invoke_seconds->Count() : 0;
  }
  return totals;
}

bool OptimusPlatform::RebalanceNow(const std::string& reason) {
  // With warming on, warming cycles alone close demand slots: a rebalance
  // between two cycles would otherwise record a short slot the forecaster
  // reads as a quiet interval.
  if (warming_engine_->enabled()) {
    return ResolvePlacement(reason);
  }
  // Harvest the demand signal: the per-function invoke histograms' cumulative
  // counts in the telemetry registry. The accumulator turns successive
  // harvests into slotted demand series for the §5.1 correlation term.
  const std::map<std::string, uint64_t> totals = InvokeTotals();
  if (totals.empty()) {
    return false;  // Nothing to place yet.
  }
  placement_->RecordDemand(totals);
  return ResolvePlacement(reason);
}

bool OptimusPlatform::ResolvePlacement(const std::string& reason) {
  const std::vector<const Model*> models = DeployedModels();
  return !models.empty() && placement_->Rebalance(models, placement_->DemandHistory(), reason);
}

PlacementDiff OptimusPlatform::PreviewRebalance() {
  return placement_->PreviewRebalance(DeployedModels(), placement_->DemandHistory());
}

void OptimusPlatform::RequestWarming() {
  if (!warming_thread_.joinable()) {
    return;
  }
  {
    MutexLock lock(warming_mutex_);
    warming_requested_ = true;
  }
  warming_cv_.NotifyOne();
}

void OptimusPlatform::WarmingLoop() {
  MutexLock lock(warming_mutex_);
  for (;;) {
    while (!warming_requested_ && !warming_shutdown_) {
      warming_cv_.Wait(warming_mutex_);
    }
    if (warming_shutdown_) {
      return;
    }
    warming_requested_ = false;
    // Drop the mutex across the cycle: WarmNow takes kRepository → kDemand →
    // kNode, and invokers signalling RequestWarming must never block on a
    // speculative transform.
    lock.Unlock();
    WarmNow(clock_.Now());
    lock.Lock();
  }
}

size_t OptimusPlatform::WarmNow(double now) {
  if (!warming_engine_->enabled()) {
    return 0;
  }
  now = AdvanceClock(now);
  // Harvest the same demand signal the rebalancer uses, through the same
  // accumulator — GET /demand therefore shows exactly the series the
  // forecaster predicted from.
  const std::map<std::string, uint64_t> totals = InvokeTotals();
  warming_cycles_.Inc();
  // Sweep expired containers on every cycle so a speculation that died
  // unused is charged to the waste bucket promptly — even on cycles that
  // plan no orders.
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    NodePool::LockedNode node = pool_->Lock(i);
    ReapNode(node, now);
  }
  if (totals.empty()) {
    return 0;  // Nothing deployed yet.
  }
  placement_->RecordDemand(totals);
  const std::shared_ptr<const PlacementTable> table = placement_->Table();
  const std::vector<WarmingOrder> orders =
      warming_engine_->PlanOrders(placement_->DemandHistory(), *table);
  warming_orders_.Inc(orders.size());
  size_t executed = 0;
  for (const WarmingOrder& order : orders) {
    if (ExecutePrewarmOrder(order, now)) {
      ++executed;
    }
  }
  return executed;
}

bool OptimusPlatform::ExecutePrewarmOrder(const WarmingOrder& order, double now) {
  // Injected prefetch failure (DESIGN.md §17): the order aborts before
  // touching any node, so reactive traffic never observes it.
  if (fault::Triggered("warming.prefetch")) {
    warming_failures_.Inc();
    return false;
  }
  const FunctionEntry* entry = nullptr;
  {
    ReaderLock lock(repository_mutex_);
    const auto it = repository_.find(order.function);
    if (it == repository_.end()) {
      warming_skipped_.Inc();
      return false;
    }
    entry = &it->second;
  }
  const Model& model = entry->model;
  if (order.node < 0 || order.node >= pool_->num_nodes() || !pool_->Accepting(order.node)) {
    warming_skipped_.Inc();  // Planned against a table that has since drained.
    return false;
  }
  // Like a request, the order leases its container and does the model work
  // with the node unlocked, so speculation never stalls the node's traffic.
  NodePool::ContainerLease lease;  // Before `node`: its destructor re-locks.
  NodePool::LockedNode node = pool_->Lock(order.node);
  if (!node.Servable(now)) {
    warming_skipped_.Inc();
    return false;
  }
  ReapNode(node, now);
  if (node.Hosts(order.function)) {
    warming_skipped_.Inc();  // The forecast demand is already warm (or warming) here.
    return false;
  }
  const bool from_scratch = !node.Full();
  std::shared_ptr<TensorArena> arena;
  if (from_scratch) {
    // Free slot: speculative scratch load into a fresh container.
    RealContainer container;
    container.id = pool_->AllocateId();
    container.function = order.function;
    container.last_active = now;
    arena = node.AcquireArena();
    lease = node.Lease(node.Adopt(std::move(container)), ContainerState::kStarting);
  } else {
    // Full node: pre-transform the cheapest sufficiently-idle donor via the
    // cached plan. Speculation never evicts — a full node with no idle donor
    // means its capacity is earning its keep, so the order is dropped.
    RealContainer* donor = PickDonor(node, model, entry->costs.scratch_load, now);
    if (donor == nullptr) {
      warming_skipped_.Inc();
      return false;
    }
    if (donor->prewarmed) {
      donor->prewarmed = false;
      warming_waste_.Inc();  // Repurposed before it ever served a request.
    }
    donor->function = order.function;
    donor->last_active = now;
    lease = node.Lease(donor, ContainerState::kStarting);
  }
  node.Release();
  try {
    if (from_scratch) {
      lease->instance = loader_.Instantiate(model, /*weight_seed=*/1, /*breakdown=*/nullptr,
                                            /*trace=*/nullptr, std::move(arena));
    } else {
      transformer_->TransformOrLoad(&lease->instance, model);
    }
  } catch (const std::exception&) {
    // Transactional like the reactive path: the half-mutated donor (or the
    // empty placeholder) is destroyed. Charged to the warming bucket, not
    // transform_failures_, so reactive accounting stays reconcilable.
    warming_failures_.Inc();
    node = lease.Relock();
    lease.Discard(node);
    return false;
  }
  node = lease.Relock();
  lease->prewarmed = true;
  lease->prewarmed_at = now;
  (from_scratch ? warming_prewarms_cold_ : warming_prewarms_transform_).Inc();
  lease.Return(node);
  return true;
}

RealContainer* OptimusPlatform::PickDonor(NodePool::LockedNode& node, const Model& model,
                                          double scratch_load, double now,
                                          telemetry::TraceContext* trace) {
  RealContainer* best_donor = nullptr;
  double best_cost = 0.0;
  for (RealContainer& container : node.containers()) {
    if (container.Leased() || now - container.last_active < options_.idle_threshold) {
      continue;
    }
    try {
      const TransformDecision decision =
          transformer_->Decide(container.instance.model, model, scratch_load, trace);
      if (best_donor == nullptr || decision.ChosenCost() < best_cost) {
        best_donor = &container;
        best_cost = decision.ChosenCost();
      }
    } catch (const std::exception&) {
      // Planning/verification failed for this pair (possibly a transient
      // injected fault): the candidate is simply not eligible this time.
      decide_failures_.Inc();
    }
  }
  return best_donor;
}

size_t OptimusPlatform::LeasedContainers() const {
  size_t leased = 0;
  pool_->ForEachContainer([&leased](int, const RealContainer& container) {
    if (container.Leased()) {
      ++leased;
    }
  });
  return leased;
}

size_t OptimusPlatform::PrewarmedContainers() const {
  size_t live = 0;
  pool_->ForEachContainer([&live](int, const RealContainer& container) {
    if (container.prewarmed) {
      ++live;
    }
  });
  return live;
}

std::string OptimusPlatform::WarmingStatsJson() const {
  const WarmingOptions& warming = warming_engine_->options();
  std::ostringstream out;
  out << "{\"enabled\":" << (warming_engine_->enabled() ? "true" : "false")
      << ",\"interval\":" << warming.interval << ",\"forecaster\":\""
      << warming_engine_->forecaster().name() << "\",\"policy\":\""
      << warming_engine_->policy().name() << "\",\"budget\":{\"max_orders_per_cycle\":"
      << warming.budget.max_orders_per_cycle
      << ",\"max_orders_per_node\":" << warming.budget.max_orders_per_node
      << ",\"containers_per_order\":" << warming.budget.containers_per_order
      << ",\"min_predicted_rate\":" << warming.budget.min_predicted_rate
      << "},\"cycles\":" << warming_cycles_.Value() << ",\"orders\":" << warming_orders_.Value()
      << ",\"prewarms\":{\"cold\":" << warming_prewarms_cold_.Value()
      << ",\"transform\":" << warming_prewarms_transform_.Value()
      << "},\"hits\":" << warming_hits_.Value() << ",\"misses\":" << warming_misses_.Value()
      << ",\"waste\":" << warming_waste_.Value() << ",\"skipped\":" << warming_skipped_.Value()
      << ",\"failures\":" << warming_failures_.Value()
      << ",\"prewarmed_containers\":" << PrewarmedContainers() << "}";
  return out.str();
}

bool OptimusPlatform::RevokeNode(int node, double grace_seconds, double now) {
  if (node < 0 || node >= pool_->num_nodes()) {
    return false;
  }
  now = AdvanceClock(now);
  const uint64_t reclaimed_before = pool_->ReclaimedContainers();
  if (!pool_->RevokeNode(node, grace_seconds, now)) {
    return false;
  }
  node_revocations_.Inc();
  const uint64_t reclaimed = pool_->ReclaimedContainers() - reclaimed_before;
  if (reclaimed > 0) {
    drained_containers_.Inc(reclaimed);
  }
  // Invalidation first: the mask-republished table re-homes the dead node's
  // functions over the live ring immediately; the full policy re-cluster
  // ("node_down") then revises the placement over the surviving nodes.
  placement_->SetNodeLive(node, false);
  ResolvePlacement("node_down");
  return true;
}

bool OptimusPlatform::ReviveNode(int node) {
  if (node < 0 || node >= pool_->num_nodes()) {
    return false;
  }
  if (!pool_->ReviveNode(node)) {
    return false;
  }
  node_revives_.Inc();
  placement_->SetNodeLive(node, true);
  ResolvePlacement("node_up");
  return true;
}

int OptimusPlatform::RouteAccepting(const std::string& function) {
  const int primary = placement_->Route(function);
  if (pool_->Accepting(primary)) {
    return primary;
  }
  // Race window: the table routed us to a node revoked since its mask was
  // published. Deterministic linear probe over accepting nodes so concurrent
  // requests for the same function still pile onto one node.
  const int n = pool_->num_nodes();
  const size_t hashed = std::hash<std::string>{}(function);
  for (int k = 0; k < n; ++k) {
    const int candidate = static_cast<int>((hashed + static_cast<size_t>(k)) % static_cast<size_t>(n));
    if (pool_->Accepting(candidate)) {
      rerouted_invokes_.Inc();
      return candidate;
    }
  }
  return primary;  // Total outage; the Servable check fails the request.
}

NodePool::LockedNode OptimusPlatform::ProbeNeighbors(int primary, const std::string& function,
                                                     double now, uint64_t* wait_ns) {
  // Probe at most `breadth` *distinct* accepting neighbors. The walk is
  // bounded by one full ring (step < num_nodes) so a breadth larger than the
  // pool can never revisit a node on small pools, and the primary and
  // non-accepting (draining/down) nodes never consume probe budget.
  const int breadth = std::min(options_.route_fallback_breadth, pool_->num_nodes() - 1);
  int probed = 0;
  for (int step = 1; step < pool_->num_nodes() && probed < breadth; ++step) {
    const int neighbor = (primary + step) % pool_->num_nodes();
    if (!pool_->Accepting(neighbor)) {
      continue;
    }
    ++probed;
    NodePool::LockedNode alt = pool_->Lock(neighbor, wait_ns);
    ReapNode(alt, now);
    if (alt.FindWarm(function) != nullptr || !alt.Full()) {
      return alt;
    }
  }
  // Every neighbor is saturated too: back to the primary, whose state may
  // have moved on meanwhile, including a racing revocation.
  return pool_->Lock(primary, wait_ns);
}

void OptimusPlatform::FinalizeDrains(double now) {
  if (pool_->DrainingNodes() == 0) {
    return;
  }
  const size_t reclaimed = pool_->FinalizeExpiredDrains(now);
  if (reclaimed > 0) {
    drained_containers_.Inc(reclaimed);
  }
}

void OptimusPlatform::ReapNode(NodePool::LockedNode& node, double now) {
  const size_t expired = node.ReapExpired(now, options_.keep_alive);
  if (expired > 0) {
    warming_waste_.Inc(expired);  // Speculations that expired before any hit.
  }
}

void OptimusPlatform::Deploy(const std::string& function, const Model& model) {
  {
    // Fast-fail on duplicates before materializing weights; the authoritative
    // check re-runs under the exclusive lock below.
    ReaderLock lock(repository_mutex_);
    if (repository_.count(function) > 0) {
      throw std::invalid_argument("Deploy: function already registered: " + function);
    }
  }
  // Materialize weights (deterministic from the function name) so the
  // repository holds the function's full "model file" content.
  Model named = model;
  named.set_name(function);
  const uint64_t seed = std::hash<std::string>{}(function);
  ModelInstance instance = loader_.Instantiate(named, seed == 0 ? 1 : seed);
  const ModelCosts model_costs = ModelCosts::Of(instance.model, *costs_, SystemProfile::Cpu());

  // Register, snapshotting the peers to warm and place against. The warming
  // itself runs outside the repository lock: plans are independent of
  // repository state and map nodes are reference-stable, so concurrent
  // Deploy/Invoke can proceed.
  const Model* deployed = nullptr;
  std::vector<std::reference_wrapper<const Model>> peers;
  std::vector<const Model*> peer_models;
  {
    WriterLock lock(repository_mutex_);
    if (repository_.count(function) > 0) {
      throw std::invalid_argument("Deploy: function already registered: " + function);
    }
    for (const auto& [other_name, other_entry] : repository_) {
      peers.emplace_back(other_entry.model);
      peer_models.push_back(&other_entry.model);
    }
    FunctionEntry entry;
    entry.model = std::move(instance.model);
    entry.costs = model_costs;
    entry.invoke_seconds =
        &metrics_.GetHistogram("optimus_function_invoke_seconds", {{"function", function}},
                               "End-to-end invoke wall seconds per function");
    deployed = &repository_.emplace(function, std::move(entry)).first->second.model;
  }

  // Deploy trigger (DESIGN.md §13): slot the new function into the placement
  // table incrementally — existing functions never move on a deploy.
  placement_->AddFunction(*deployed, peer_models);

  if (options_.warm_plan_cache) {
    // Planning-strategy caching at registration (§4.4 Module 3): plan both
    // directions against every already-registered model.
    transformer_->cache().WarmFor(*deployed, peers, warm_pool_.get());
  }
}

void OptimusPlatform::DeployFile(const std::string& function, const ModelFile& file) {
  Deploy(function, DeserializeModel(file));
}

size_t OptimusPlatform::NumFunctions() const {
  ReaderLock lock(repository_mutex_);
  return repository_.size();
}

size_t OptimusPlatform::NumLiveContainers() const { return pool_->TotalContainers(); }

PlatformCounters OptimusPlatform::counters() const {
  // A thin view over the registry — the counters live there (DESIGN.md §12).
  PlatformCounters counters;
  counters.warm_starts = static_cast<size_t>(warm_starts_.Value());
  counters.transforms = static_cast<size_t>(transforms_.Value());
  counters.cold_starts = static_cast<size_t>(cold_starts_.Value());
  counters.transform_failures = static_cast<size_t>(transform_failures_.Value());
  counters.transform_fallbacks = static_cast<size_t>(transform_fallbacks_.Value());
  counters.decide_failures = static_cast<size_t>(decide_failures_.Value());
  counters.failed_invokes = static_cast<size_t>(failed_invokes_.Value());
  // Lifecycle counters come from the pool (the authoritative source the chaos
  // harness reconciles against); reroutes only exist as a registry series.
  counters.node_revocations = static_cast<size_t>(pool_->Revocations());
  counters.node_revives = static_cast<size_t>(pool_->Revives());
  counters.reclaimed_containers = static_cast<size_t>(pool_->ReclaimedContainers());
  counters.rerouted_invokes = static_cast<size_t>(rerouted_invokes_.Value());
  counters.draining_nodes = pool_->DrainingNodes();
  counters.accepting_nodes = pool_->AcceptingNodes();
  counters.warming_cycles = static_cast<size_t>(warming_cycles_.Value());
  counters.warming_orders = static_cast<size_t>(warming_orders_.Value());
  counters.warming_prewarms_cold = static_cast<size_t>(warming_prewarms_cold_.Value());
  counters.warming_prewarms_transform = static_cast<size_t>(warming_prewarms_transform_.Value());
  counters.warming_hits = static_cast<size_t>(warming_hits_.Value());
  counters.warming_misses = static_cast<size_t>(warming_misses_.Value());
  counters.warming_waste = static_cast<size_t>(warming_waste_.Value());
  counters.warming_skipped = static_cast<size_t>(warming_skipped_.Value());
  counters.warming_failures = static_cast<size_t>(warming_failures_.Value());
  return counters;
}

std::vector<std::string> OptimusPlatform::CheckContainerIntegrity() const {
  std::vector<std::string> violations;
  pool_->ForEachContainer([&violations](int node, const RealContainer& container) {
    const std::string where = "node " + std::to_string(node) + " container " +
                              std::to_string(container.id) + " (" + container.function + "): ";
    if (container.Leased()) {
      // At a quiet point no lease is outstanding; one that is leaked. Its
      // instance belongs to the lease holder, so it is not read here.
      violations.push_back(where + "still leased");
      return;
    }
    if (!container.instance.Loaded()) {
      violations.push_back(where + "no resident model");
      return;
    }
    if (container.instance.model.name() != container.function) {
      violations.push_back(where + "resident model is '" + container.instance.model.name() +
                           "' — half-transformed or misassigned");
    }
    try {
      container.instance.model.Validate();
    } catch (const std::exception& e) {
      violations.push_back(where + "resident model invalid: " + e.what());
    }
  });
  return violations;
}

double OptimusPlatform::AdvanceClock(double now) {
  // CAS-max: the clock only moves forward. A caller presenting an older `now`
  // (threads race between taking their timestamp and arriving here) is
  // clamped to the newest observed time rather than rejected.
  return clock_.AdvanceTo(now);
}

Status OptimusPlatform::TryInvoke(const std::string& function, const std::vector<float>& input,
                                  double now, InvokeResult* result,
                                  telemetry::TraceContext* trace) {
  try {
    *result = InvokeInternal(function, input, now, trace);
    return Status::Ok();
  } catch (const OptimusError& error) {
    failed_invokes_.Inc();
    return error.ToStatus();
  } catch (const std::exception& error) {
    failed_invokes_.Inc();
    return Status(ErrorCode::kInternal, error.what());
  }
}

InvokeResult OptimusPlatform::Invoke(const std::string& function,
                                     const std::vector<float>& input, double now,
                                     telemetry::TraceContext* trace) {
  InvokeResult result;
  const Status status = TryInvoke(function, input, now, &result, trace);
  if (!status.ok()) {
    throw OptimusError(status);
  }
  return result;
}

InvokeResult OptimusPlatform::InvokeInternal(const std::string& function,
                                             const std::vector<float>& input, double now,
                                             telemetry::TraceContext* trace) {
  const uint64_t invoke_start_ns = telemetry::MonotonicNanos();
  telemetry::ScopedSpan invoke_span(trace, "invoke", "platform");
  now = AdvanceClock(now);
  const FunctionEntry* entry = nullptr;
  {
    ReaderLock lock(repository_mutex_);
    auto model_it = repository_.find(function);
    if (model_it == repository_.end()) {
      throw OptimusError(ErrorCode::kNotFound, "Invoke: unknown function " + function);
    }
    entry = &model_it->second;  // Map nodes are stable; entries immutable.
  }
  const Model& model = entry->model;
  const ModelCosts& model_costs = entry->costs;  // CPU profile, for latency estimation.

  // Lazily close any grace windows that expired by `now` before routing, so
  // a Draining node past its deadline never serves this request.
  FinalizeDrains(now);

  // O(1) routing: one lock-free table read names the primary node, and only
  // that node is locked. No per-node scanning happens on this path.
  InvokeResult result;
  const int primary = RouteAccepting(function);

  // Injected spot revocation (DESIGN.md §16): the routed node vanishes with
  // zero grace mid-request. The request fails retryably — the gateway's retry
  // loop re-routes it to a surviving node via the republished mask.
  if (fault::Triggered("node.revoke")) {
    RevokeNode(primary, /*grace_seconds=*/0.0, now);
    throw OptimusError(ErrorCode::kUnavailable,
                       "Invoke: node " + std::to_string(primary) + " revoked mid-request");
  }

  // Lease a container under the node lock by the start rules below, then do
  // the model work on it with the lock dropped (DESIGN.md §9). Every pass of
  // the loop re-checks the node from the top: a request that waited for a
  // lease to end, moved to a neighbor, or lost its donor sees the node as it
  // is now. `node_wait_ns` sums the time blocked on node locks and lease
  // returns.
  uint64_t node_wait_ns = 0;
  NodePool::ContainerLease lease;  // Before `node`: its destructor re-locks.
  NodePool::LockedNode node = pool_->Lock(primary, &node_wait_ns);
  bool probed = false;            // The capacity-pressure probe runs once.
  bool transform_failed = false;  // A failed transform falls through to cold.
  while (!lease) {
    if (!node.Servable(now)) {
      // Routed into the revocation race window (or a total outage): the node
      // went Down / past its grace deadline between routing and locking.
      throw OptimusError(ErrorCode::kUnavailable,
                         "Invoke: node " + std::to_string(node.index()) + " is " +
                             NodeLifecycleName(node.lifecycle()) + " (revoked)");
    }
    ReapNode(node, now);

    // Warm start: an idle container already holding this function's model.
    if (RealContainer* warm = node.FindWarm(function); warm != nullptr) {
      if (warm->prewarmed) {
        // Forecast hit: a speculatively prepared container absorbs what would
        // otherwise have been a cold start or transform.
        warm->prewarmed = false;
        warming_hits_.Inc();
        warming_lead_seconds_.Observe(std::max(0.0, now - warm->prewarmed_at));
      }
      warm->last_active = now;
      lease = node.Lease(warm, ContainerState::kBusy);
      result.start = StartType::kWarm;
      result.estimated_latency = model_costs.inference;
      break;
    }
    // The function's container is leased (serving, or being loaded,
    // transformed or pre-warmed): wait for it rather than start a copy.
    if (node.Hosts(function)) {
      node.WaitForReturn();
      continue;
    }

    // Capacity pressure — the node is full and offers no sufficiently-idle
    // transform donor — is the only case that leaves the primary: probe up to
    // route_fallback_breadth neighbors (one lock at a time) for a warm
    // container or a free slot before evicting on the primary.
    if (!probed && node.Full() && !node.HasIdleContainer(now, options_.idle_threshold) &&
        options_.route_fallback_breadth > 0 && pool_->num_nodes() > 1) {
      probed = true;
      node.Release();
      node = ProbeNeighbors(primary, function, now, &node_wait_ns);
      continue;
    }

    // Transformation: repurpose the best sufficiently-idle donor (only when the
    // node has no free slot; otherwise a fresh container preserves warm state).
    if (node.Full() && !transform_failed) {
      RealContainer* donor = nullptr;
      {
        telemetry::ScopedSpan decide_span(trace, "decide", "platform");
        const uint64_t decide_start_ns = telemetry::MonotonicNanos();
        donor = PickDonor(node, model, model_costs.scratch_load, now, trace);
        decide_seconds_.Observe(
            static_cast<double>(telemetry::MonotonicNanos() - decide_start_ns) * 1e-9);
      }
      if (donor != nullptr) {
        // A pre-warmed donor consumed reactively (success or failure) is a
        // speculation that never served its own function: waste either way.
        if (donor->prewarmed) {
          donor->prewarmed = false;
          warming_waste_.Inc();
        }
        const std::string donor_function = donor->function;
        donor->function = function;  // Same-function requests now wait for it.
        donor->last_active = now;
        lease = node.Lease(donor, ContainerState::kStarting);
        node.Release();
        try {
          const uint64_t transform_start_ns = telemetry::MonotonicNanos();
          const TransformOutcome outcome =
              transformer_->TransformOrLoad(&lease->instance, model, trace);
          if (outcome.decision.use_transform) {
            transform_seconds_.Observe(
                static_cast<double>(telemetry::MonotonicNanos() - transform_start_ns) * 1e-9);
          }
          result.start = outcome.decision.use_transform ? StartType::kTransform : StartType::kCold;
          result.donor_function = donor_function;
          result.estimated_latency = outcome.decision.ChosenCost() + model_costs.inference;
        } catch (const std::exception&) {
          // Transactional transformation: the donor's resident model may be
          // half-mutated, so the container is destroyed and the request falls
          // through to a fresh scratch (cold) load. The transformer already
          // charged the failure to the plan-cache quarantine.
          transform_failures_.Inc();
          transform_failed = true;
          node = lease.Relock();
          lease.Discard(node);
          continue;
        }
        break;
      }
    }

    // Cold start: fresh container (using a free slot — destroying a poisoned
    // donor frees one — or evicting the least-recently-active container on a
    // full node with no eligible donor). A node whose every container is
    // leased has nothing to evict, so the request waits for a return.
    if (node.Full()) {
      if (node.EvictLeastRecentlyActive()) {
        warming_waste_.Inc();  // The LRU victim was an unused speculation.
      }
      if (node.Full()) {
        node.WaitForReturn();
        continue;
      }
    }
    RealContainer container;
    container.id = pool_->AllocateId();
    container.function = function;
    container.last_active = now;
    // The weight arena comes from the node's spare pool (recycled from dead
    // containers) so steady-state churn reuses slabs instead of allocating.
    std::shared_ptr<TensorArena> arena = node.AcquireArena();
    lease = node.Lease(node.Adopt(std::move(container)), ContainerState::kStarting);
    node.Release();
    try {
      lease->instance = loader_.Instantiate(model, /*weight_seed=*/1, /*breakdown=*/nullptr,
                                            trace, std::move(arena));
    } catch (const std::exception& error) {
      node = lease.Relock();
      lease.Discard(node);
      // The scratch load is the path of last resort; classify its failure as
      // retryable — nothing about the request itself is wrong.
      throw OptimusError(ErrorCode::kUnavailable,
                         std::string("Invoke: scratch load failed: ") + error.what());
    }
    result.start = StartType::kCold;
    result.transform_fallback = transform_failed;
    result.estimated_latency =
        SystemProfile::Cpu().InitCost() + model_costs.scratch_load + model_costs.inference;
  }
  node.Release();
  result.node = node.index();

  {
    telemetry::ScopedSpan inference_span(trace, "inference", "inference");
    const uint64_t inference_start_ns = telemetry::MonotonicNanos();
    result.output = RunInference(lease->instance, input);
    inference_seconds_.Observe(
        static_cast<double>(telemetry::MonotonicNanos() - inference_start_ns) * 1e-9);
  }
  node = lease.Relock();
  lease.Return(node);
  node.Release();
  node_wait_seconds_.Observe(static_cast<double>(node_wait_ns) * 1e-9);

  // Count successes only after inference produced output, so the start-type
  // counters reconcile exactly with successful requests.
  const double invoke_seconds =
      static_cast<double>(telemetry::MonotonicNanos() - invoke_start_ns) * 1e-9;
  switch (result.start) {
    case StartType::kWarm:
      warm_starts_.Inc();
      invoke_seconds_warm_.Observe(invoke_seconds);
      break;
    case StartType::kTransform:
      transforms_.Inc();
      invoke_seconds_transform_.Observe(invoke_seconds);
      break;
    case StartType::kCold:
      cold_starts_.Inc();
      invoke_seconds_cold_.Observe(invoke_seconds);
      break;
  }
  if (entry->invoke_seconds != nullptr) {
    entry->invoke_seconds->Observe(invoke_seconds);
  }
  if (result.transform_fallback) {
    transform_fallbacks_.Inc();
  }
  invoke_span.Arg("start", static_cast<double>(result.start));

  // Demand trigger (DESIGN.md §13): when the rebalance window elapsed in
  // virtual time, exactly one invoker wakes the background rebalancer.
  if (placement_->RebalanceDue(now)) {
    RequestRebalance();
  }
  // Warming trigger (DESIGN.md §17): same shape, its own CAS'd window.
  if (warming_engine_->enabled()) {
    if (result.start != StartType::kWarm) {
      warming_misses_.Inc();  // Demand the forecast failed to pre-warm.
    }
    if (warming_engine_->Due(now)) {
      RequestWarming();
    }
  }
  return result;
}

}  // namespace optimus
