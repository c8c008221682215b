#include "src/sim/simulator.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/common/clock.h"
#include "src/core/node_pool.h"  // NodeLifecycle, NodeServable — the shared state machine.
#include "src/placement/manager.h"

namespace optimus {

namespace {

// Demand slots the warming forecaster sees (the live platform's
// PlacementManagerOptions::demand_slots default is 32).
constexpr size_t kDemandSlots = 64;

enum class EventType : uint8_t {
  kArrival = 0,
  kCompletion,
  kRevoke,
  kDrainExpire,
  kRevive,
  kWarmingCycle,
};

// Scheduling bands (DESIGN.md §18). The pre-streaming simulator pushed every
// arrival, then every churn event, then every warming cycle up front, and
// broke same-time ties by push order; dynamic events (completions, drain
// expiries) always tied *after* the static ones. Lazy scheduling pushes each
// successor from its handler instead, so push order no longer encodes that
// precedence — the band does. Ordering events by (time, band, seq) with a
// monotone per-band sequence reproduces the eager schedule bit-for-bit.
enum Band : uint8_t {
  kBandArrival = 0,
  kBandChurn = 1,
  kBandWarming = 2,
  kBandDynamic = 3,
};

struct Event {
  double time = 0.0;
  uint8_t band = kBandDynamic;
  uint64_t seq = 0;  // Monotone within the band.
  EventType type = EventType::kArrival;
  uint64_t ordinal = 0;                  // kArrival: request number (0-based).
  FunctionId fn = kInvalidFunction;      // kArrival.
  int node = -1;
  ContainerId container = -1;
  double grace = 0.0;  // kRevoke only.

  bool operator>(const Event& other) const {
    if (time != other.time) {
      return time > other.time;
    }
    if (band != other.band) {
      return band > other.band;
    }
    return seq > other.seq;
  }
};

// A request waiting on a node for a container. Carries everything TryServe
// needs so the queue never reaches back into a materialized trace.
struct QueuedRequest {
  uint64_t ordinal = 0;
  double arrival = 0.0;
  FunctionId fn = kInvalidFunction;
};

struct NodeState {
  ContainerPool pool;
  std::deque<QueuedRequest> queue;  // FIFO of pending requests.
  // Lifecycle mirror of NodePool::Node (DESIGN.md §16). The simulator has no
  // adoption gate, so a revive goes straight back to Up.
  NodeLifecycle lifecycle = NodeLifecycle::kUp;
  double drain_deadline = std::numeric_limits<double>::infinity();

  NodeState(int capacity, double idle_threshold, double keep_alive, int64_t memory_limit)
      : pool(capacity, idle_threshold, keep_alive, memory_limit) {}
};

class Simulation {
 public:
  Simulation(const SimWorkload& workload, TraceSource* source, const SimConfig& config,
             const CostModel& costs, const RequestObserver& observer)
      : source_(source),
        config_(config),
        functions_(workload.functions),
        history_(workload.history),
        observer_(observer),
        placement_(PlacementManagerOptions{config.placement, config.num_nodes,
                                           /*rebalance_interval=*/0.0, kDemandSlots},
                   &costs, /*metrics=*/nullptr) {
    const std::vector<Model>& models = *workload.models;
    if (config.containers_per_node < 1) {
      throw std::invalid_argument("RunSimulation: containers_per_node must be >= 1");
    }

    // Distinct models in name order — the iteration order the pre-streaming
    // simulator's by-value repository map gave the placement solver. The
    // first model wins a duplicated name, matching map::emplace.
    for (const Model& model : models) {
      models_by_name_.emplace(model.name(), &model);
    }
    model_ptrs_.reserve(models_by_name_.size());
    for (const auto& [name, model] : models_by_name_) {
      model_ptrs_.push_back(model);
    }

    // One cost record per model, computed here once: requests read it instead
    // of walking the model's graph. The workload's models are immutable for
    // the simulation's lifetime, so the model index identifies its record.
    model_costs_.reserve(models.size());
    for (const Model& model : models) {
      model_costs_.push_back(ModelCosts::Of(model, costs, config.profile));
    }

    // Flat per-function hot-path tables: FunctionId indexes straight into the
    // model, its cost record, and (below) its placement — no string hashing
    // per request. Functions alias models via workload.function_model.
    const size_t num_functions = functions_->size();
    model_of_.assign(num_functions, nullptr);
    costs_of_.assign(num_functions, nullptr);
    for (size_t fn = 0; fn < num_functions; ++fn) {
      int32_t model_index = workload.function_model.empty()
                                ? static_cast<int32_t>(fn)
                                : workload.function_model[fn];
      if (model_index >= 0 && static_cast<size_t>(model_index) < models.size()) {
        const Model& model = models[static_cast<size_t>(model_index)];
        model_of_[fn] = &model;
        costs_of_[fn] = &model_costs_[static_cast<size_t>(model_index)];
        // A container no node can hold would leave its requests queued forever.
        if (config.node_memory_bytes > 0 &&
            ContainerBytes(*costs_of_[fn]) > config.node_memory_bytes) {
          throw std::invalid_argument("RunSimulation: a container of " + model.name() +
                                      " exceeds node_memory_bytes");
        }
        // Function-name view for the startup policies' donor-model lookups.
        repository_.emplace(functions_->Name(static_cast<FunctionId>(fn)), &model);
      }
    }

    PolicyContext context;
    context.repository = &repository_;
    context.costs = &costs;
    context.profile = config.profile;
    context.planner = config.planner;
    policy_ = MakeStartupPolicy(config.system, context);

    // Route through the live platform's PlacementManager: one initial solve
    // from the workload's demand history; churn events drive it the way
    // OptimusPlatform::RevokeNode and ReviveNode do.
    placement_.Rebalance(model_ptrs_, history_, "initial");
    RebuildNodeOf();

    nodes_.reserve(static_cast<size_t>(config.num_nodes));
    for (int i = 0; i < config.num_nodes; ++i) {
      nodes_.emplace_back(config.containers_per_node, config.idle_threshold, config.keep_alive,
                          config.node_memory_bytes);
    }
    if (config.warming.enabled && config.warming.interval > 0.0) {
      // The same engine the live platform drives, on the same cadence —
      // which is what keeps live and simulated warming counters consistent.
      warming_engine_ = std::make_unique<WarmingEngine>(config.warming);
      served_counts_.assign(num_functions, 0);
    }
  }

  SimResult Run() {
    horizon_ = source_->Horizon();
    // Seed the queue lazily: the *next* arrival, the *next* churn event, and
    // the *first* warming cycle. Every handler schedules its own successor,
    // so queue size is O(nodes + 1) instead of O(requests + cycles).
    PullArrival();
    churn_sorted_ = config_.churn;
    std::stable_sort(churn_sorted_.begin(), churn_sorted_.end(),
                     [](const NodeChurnEvent& a, const NodeChurnEvent& b) { return a.time < b.time; });
    ScheduleNextChurn();
    if (warming_engine_ != nullptr && config_.warming.interval < horizon_) {
      // First cycle of the virtual-time twin of the live WarmingLoop wakeups.
      ScheduleWarmingCycle(config_.warming.interval);
    }
    while (!events_.empty()) {
      const Event event = events_.top();
      events_.pop();
      // All keep-alive, eviction, and warming decisions below read this one
      // clock (DESIGN.md §18); event times are non-decreasing, so AdvanceTo
      // returns exactly event.time.
      const double now = clock_.AdvanceTo(event.time);
      switch (event.type) {
        case EventType::kArrival:
          OnArrival(event.ordinal, event.fn, now);
          break;
        case EventType::kCompletion:
          OnCompletion(event.node, event.container, now);
          break;
        case EventType::kRevoke:
          OnRevoke(event.node, event.grace, now);
          break;
        case EventType::kDrainExpire:
          OnDrainExpire(event.node, now);
          break;
        case EventType::kRevive:
          OnRevive(event.node);
          break;
        case EventType::kWarmingCycle:
          OnWarmingCycle(now);
          break;
      }
    }
    for (const NodeState& node : nodes_) {
      for (const Container& container : node.pool.containers()) {
        result_.warming_unused += container.prewarmed ? 1 : 0;
      }
    }
    return std::move(result_);
  }

 private:
  void Schedule(Event event, uint8_t band, uint64_t* seq) {
    event.band = band;
    event.seq = (*seq)++;
    events_.push(event);
  }

  // Pulls the next arrival from the source into the event queue (at most one
  // is ever pending).
  void PullArrival() {
    Arrival arrival;
    if (!source_->Next(&arrival)) {
      return;
    }
    Event event;
    event.time = arrival.time;
    event.type = EventType::kArrival;
    event.ordinal = next_ordinal_++;
    event.fn = arrival.function;
    Schedule(event, kBandArrival, &arrival_seq_);
  }

  void ScheduleNextChurn() {
    if (churn_cursor_ >= churn_sorted_.size()) {
      return;
    }
    const NodeChurnEvent& churn = churn_sorted_[churn_cursor_++];
    Event event;
    event.time = churn.time;
    event.type = churn.revive ? EventType::kRevive : EventType::kRevoke;
    event.node = churn.node;
    event.grace = churn.grace;
    Schedule(event, kBandChurn, &churn_seq_);
  }

  void ScheduleWarmingCycle(double time) {
    Event event;
    event.time = time;
    event.type = EventType::kWarmingCycle;
    Schedule(event, kBandWarming, &warming_seq_);
  }

  void OnArrival(uint64_t ordinal, FunctionId fn, double now) {
    if (fn < 0 || static_cast<size_t>(fn) >= model_of_.size() ||
        model_of_[static_cast<size_t>(fn)] == nullptr) {
      const bool named = fn >= 0 && static_cast<size_t>(fn) < functions_->size();
      throw std::runtime_error("RunSimulation: unregistered function " +
                               (named ? functions_->Name(fn) : std::string("<uninterned>")));
    }
    PullArrival();  // Keep exactly one pending arrival in the queue.
    Dispatch(QueuedRequest{ordinal, now, fn}, now);
  }

  // Routes the request to its node and serves it or queues it there. A node
  // that cannot serve (only routed to in a total outage) fails the request,
  // as the live platform answers kUnavailable.
  void Dispatch(const QueuedRequest& request, double now) {
    const int node_index = node_of_[static_cast<size_t>(request.fn)];
    NodeState& node = nodes_[static_cast<size_t>(node_index)];
    if (!NodeServable(node.lifecycle, node.drain_deadline, now)) {
      ++result_.failed_requests;
    } else if (!TryServe(node_index, request, now)) {
      node.queue.push_back(request);
    }
  }

  void OnCompletion(int node_index, ContainerId container_id, double now) {
    NodeState& node = nodes_[static_cast<size_t>(node_index)];
    Container* container = node.pool.Find(container_id);
    if (container != nullptr) {
      container->state = ContainerState::kIdle;
      container->last_active = now;
    }
    // Drain the node's queue in FIFO order while requests can be served.
    while (!node.queue.empty() && TryServe(node_index, node.queue.front(), now)) {
      node.queue.pop_front();
    }
  }

  void OnRevoke(int node_index, double grace, double now) {
    ScheduleNextChurn();
    if (node_index < 0 || node_index >= config_.num_nodes) {
      return;
    }
    NodeState& node = nodes_[static_cast<size_t>(node_index)];
    if (node.lifecycle == NodeLifecycle::kDraining || node.lifecycle == NodeLifecycle::kDown) {
      return;  // Already revoked.
    }
    ++result_.revocations;
    if (grace > 0.0) {
      node.lifecycle = NodeLifecycle::kDraining;
      node.drain_deadline = now + grace;
      Event expire;
      expire.time = now + grace;
      expire.type = EventType::kDrainExpire;
      expire.node = node_index;
      Schedule(expire, kBandDynamic, &dynamic_seq_);
    } else {
      ReclaimNode(&node);
    }
    // Republish and re-cluster over the survivors, then re-home the dead
    // node's queued requests (they had not started — like new routes, they
    // must leave immediately).
    SetNodeLive(node_index, false);
    RehomeQueue(&node, now);
  }

  void OnDrainExpire(int node_index, double now) {
    NodeState& node = nodes_[static_cast<size_t>(node_index)];
    if (node.lifecycle != NodeLifecycle::kDraining || now < node.drain_deadline) {
      return;
    }
    ReclaimNode(&node);
    // Only a total outage routes requests to a draining node; those still
    // queued when its window closes leave like any other re-homed request.
    RehomeQueue(&node, now);
  }

  void OnRevive(int node_index) {
    ScheduleNextChurn();
    if (node_index < 0 || node_index >= config_.num_nodes) {
      return;
    }
    NodeState& node = nodes_[static_cast<size_t>(node_index)];
    if (node.lifecycle != NodeLifecycle::kDown) {
      return;
    }
    // No adoption gate in the simulator (containers launch synchronously), so
    // the node goes straight back to Up.
    node.lifecycle = NodeLifecycle::kUp;
    node.drain_deadline = std::numeric_limits<double>::infinity();
    ++result_.revives;
    SetNodeLive(node_index, true);
  }

  // Drives the placement manager as OptimusPlatform::RevokeNode and
  // ReviveNode do: republish under the new mask first, then re-cluster over
  // the live nodes. Churn re-solves read the workload's demand history. A
  // failed re-solve leaves the mask-republished table routing.
  void SetNodeLive(int node_index, bool live) {
    placement_.SetNodeLive(node_index, live);
    if (placement_.Rebalance(model_ptrs_, history_, live ? "node_up" : "node_down")) {
      ++result_.churn_rebalances;
    }
    RebuildNodeOf();
  }

  // Reclaims every container on the node (busy ones included — the spot
  // instance is gone; their completion events become no-ops) and marks it
  // Down.
  void ReclaimNode(NodeState* node) {
    std::vector<Container>& containers = node->pool.containers();
    result_.reclaimed_containers += containers.size();
    for (Container& container : containers) {
      ChargeIfPrewarmed(&container);
    }
    containers.clear();
    node->lifecycle = NodeLifecycle::kDown;
    node->drain_deadline = std::numeric_limits<double>::infinity();
  }

  // Re-dispatches every request queued on a revoked node through the
  // (re-homed) placement table.
  void RehomeQueue(NodeState* node, double now) {
    std::deque<QueuedRequest> pending;
    pending.swap(node->queue);
    result_.rehomed_requests += pending.size();
    for (const QueuedRequest& request : pending) {
      Dispatch(request, now);
    }
  }

  // Refreshes the FunctionId -> node routing array from the current table.
  // O(functions) per publish — publishes happen once at startup plus once per
  // churn rebalance, never per request.
  void RebuildNodeOf() {
    const size_t num_functions = model_of_.empty() ? functions_->size() : model_of_.size();
    node_of_.resize(num_functions);
    const std::shared_ptr<const PlacementTable> table = placement_.Table();
    for (size_t fn = 0; fn < num_functions; ++fn) {
      node_of_[fn] = table->NodeOrHash(functions_->Name(static_cast<FunctionId>(fn)));
    }
  }

  // One forecast-driven warming cycle (DESIGN.md §17): harvest served counts
  // into the demand accumulator, forecast, and execute budget-capped orders —
  // the exact pipeline OptimusPlatform::WarmNow runs, in virtual time.
  void OnWarmingCycle(double now) {
    // Lazy cadence: each cycle schedules the next while arrivals remain.
    // now is the exact accumulated interval sum (interval, 2*interval, ...)
    // the eager schedule produced, so the successor times match bit-for-bit.
    if (now + config_.warming.interval < horizon_) {
      ScheduleWarmingCycle(now + config_.warming.interval);
    }
    if (!warming_engine_->enabled()) {
      return;
    }
    ++result_.warming_cycles;
    // Sweep keep-alive expiry up front: a pre-warm that died unused charges
    // the waste bucket on this cycle, not at the horizon.
    for (NodeState& node : nodes_) {
      result_.warming_waste += node.pool.ReapExpired(now);
    }
    // Nonzero entries only — the by-name map the live telemetry harvest
    // produces (a function appears once it has served at least once).
    std::map<std::string, uint64_t> served;
    for (size_t fn = 0; fn < served_counts_.size(); ++fn) {
      if (served_counts_[fn] != 0) {
        served.emplace(functions_->Name(static_cast<FunctionId>(fn)), served_counts_[fn]);
      }
    }
    placement_.RecordDemand(served);
    const std::vector<WarmingOrder> orders =
        warming_engine_->PlanOrders(placement_.DemandHistory(), *placement_.Table());
    result_.warming_orders += orders.size();
    for (const WarmingOrder& order : orders) {
      ExecutePrewarm(order, now);
    }
  }

  // Executes one speculative pre-warm. Speculation never evicts and never
  // displaces reactive work: a full node with no idle donor is a skip, and a
  // container already warm for the function makes the order redundant.
  void ExecutePrewarm(const WarmingOrder& order, double now) {
    if (order.node < 0 || order.node >= config_.num_nodes) {
      ++result_.warming_skipped;
      return;
    }
    NodeState& node = nodes_[static_cast<size_t>(order.node)];
    if (node.lifecycle != NodeLifecycle::kUp) {
      ++result_.warming_skipped;
      return;
    }
    const FunctionId fn = functions_->Find(order.function);
    if (fn == kInvalidFunction || static_cast<size_t>(fn) >= model_of_.size() ||
        model_of_[static_cast<size_t>(fn)] == nullptr) {
      ++result_.warming_skipped;
      return;
    }
    result_.warming_waste += node.pool.ReapExpired(now);
    if (node.pool.FindWarm(order.function) != nullptr) {
      ++result_.warming_skipped;
      return;
    }
    const StartupRequest request = StartupRequestFor(node, fn, now);
    if (!request.has_free_slot && request.donors.empty()) {
      ++result_.warming_skipped;
      return;
    }
    const StartupResult startup = policy_->Acquire(request);
    Container* container = nullptr;
    if (startup.donor != nullptr) {
      ChargeIfPrewarmed(startup.donor);  // One pre-warm consumed another before any hit.
      startup.donor->function = order.function;
      container = startup.donor;
      ++result_.warming_prewarms_transform;
    } else if (request.has_free_slot) {
      container = node.pool.Launch(order.function, now, now, ContainerBytes(*request.dest_costs));
      ++result_.warming_prewarms_cold;
    } else {
      ++result_.warming_skipped;  // The policy declined every donor on a full node.
      return;
    }
    // Busy through init + load: a request arriving before the container is
    // ready queues behind it exactly as it would behind a reactive start.
    MarkBusy(container, order.node, fn, now, now + startup.init_seconds + startup.load_seconds);
    container->prewarmed = true;
    container->prewarmed_at = now;
  }

  // Charges a pre-warmed container consumed (repurposed, evicted, reclaimed)
  // before its first hit to the waste bucket, preserving
  //   prewarms_cold + prewarms_transform == hits + waste + unused.
  void ChargeIfPrewarmed(Container* container) {
    if (container->prewarmed) {
      container->prewarmed = false;
      ++result_.warming_waste;
    }
  }

  // The startup policy's view of `node` for a new container of `fn`: its
  // donors (large enough to host the model under fine-grained containers,
  // §6), whether a container fits without eviction, and what runs there.
  StartupRequest StartupRequestFor(NodeState& node, FunctionId fn, double now) {
    const ModelCosts& costs = *costs_of_[static_cast<size_t>(fn)];
    const int64_t needed_memory = ContainerBytes(costs);
    StartupRequest request;
    request.dest = model_of_[static_cast<size_t>(fn)];
    request.dest_costs = &costs;
    request.donors = node.pool.TransformCandidates(
        functions_->Name(fn), now, config_.fine_grained_containers ? needed_memory : 0);
    request.has_free_slot = node.pool.CanLaunch(needed_memory);
    for (const Container& container : node.pool.containers()) {
      request.resident_functions.push_back(container.function);
    }
    return request;
  }

  // Memory a new container for the model takes (0 when memory is unmodeled).
  int64_t ContainerBytes(const ModelCosts& costs) const {
    if (config_.node_memory_bytes <= 0) {
      return 0;
    }
    return config_.fine_grained_containers ? costs.container_bytes
                                           : config_.uniform_container_bytes;
  }

  // Attempts to serve the request on its node right now; returns false if it
  // must (continue to) queue.
  bool TryServe(int node_index, const QueuedRequest& queued, double now) {
    NodeState& node = nodes_[static_cast<size_t>(node_index)];
    const FunctionId fn = queued.fn;
    result_.warming_waste += node.pool.ReapExpired(now);

    RequestRecord record;
    record.function = fn;
    record.ordinal = queued.ordinal;
    record.arrival = queued.arrival;
    record.wait = now - record.arrival;
    record.compute = costs_of_[static_cast<size_t>(fn)]->inference;

    const std::string& function = functions_->Name(fn);

    // Warm start: an idle container already serving this function.
    if (Container* warm = node.pool.FindWarm(function)) {
      if (warm->prewarmed) {
        // First hit on a speculative pre-warm: the forecast paid off.
        ++result_.warming_hits;
        result_.warming_lead_seconds.push_back(now - warm->prewarmed_at);
        warm->prewarmed = false;
      }
      record.start = StartType::kWarm;
      record.init = 0.0;
      record.load = 0.0;
      Serve(warm, node_index, record, now);
      return true;
    }

    const StartupRequest request = StartupRequestFor(node, fn, now);
    const StartupResult startup = policy_->Acquire(request);
    record.start = startup.type;
    record.init = startup.init_seconds;
    record.load = startup.load_seconds;

    if (startup.donor != nullptr) {
      ChargeIfPrewarmed(startup.donor);  // A reactive transform consumed an unused pre-warm.
      // Repurpose the donor container for this function.
      startup.donor->function = function;
      Serve(startup.donor, node_index, record, now);
      return true;
    }

    // Start a new container, evicting idle containers (per the eviction
    // policy) until it fits, slot- and memory-wise.
    const int64_t needed_memory = ContainerBytes(*request.dest_costs);
    while (!node.pool.CanLaunch(needed_memory)) {
      Container* victim = config_.eviction == EvictionPolicy::kGreedyDual
                              ? node.pool.MinPriorityIdle()
                              : node.pool.LruIdle();
      if (victim == nullptr) {
        return false;  // All containers busy: queue.
      }
      // Greedy-dual aging: the clock advances to the evicted priority.
      if (config_.eviction == EvictionPolicy::kGreedyDual) {
        gd_clock_ = std::max(gd_clock_, victim->priority);
      }
      ChargeIfPrewarmed(victim);  // Eviction beat the forecast to the slot.
      node.pool.Remove(victim->id);
    }
    Serve(node.pool.Launch(function, now, now, needed_memory), node_index, record, now);
    return true;
  }

  // Occupies the container through init + load + compute, folds the request
  // into the accumulators and shows it to the observer. Runs at serve time,
  // so sums fold in serve order.
  void Serve(Container* container, int node_index, const RequestRecord& record, double now) {
    if (warming_engine_ != nullptr) {
      // The sim mirror of the per-function invoke counters WarmNow harvests.
      ++served_counts_[static_cast<size_t>(record.function)];
    }
    MarkBusy(container, node_index, record.function, now,
             now + record.init + record.load + record.compute);
    ++result_.total_requests;
    result_.sum_wait += record.wait;
    result_.sum_init += record.init;
    result_.sum_load += record.load;
    result_.sum_compute += record.compute;
    ++result_.start_counts[static_cast<size_t>(record.start)];
    result_.service_hist.Record(record.ServiceTime());
    if (observer_) {
      observer_(record);
    }
  }

  // Marks the container busy until `done`, refreshes its GreedyDual priority
  // and schedules its completion event.
  void MarkBusy(Container* container, int node_index, FunctionId fn, double now, double done) {
    container->state = ContainerState::kBusy;
    container->busy_until = done;
    container->last_active = now;
    if (config_.eviction == EvictionPolicy::kGreedyDual) {
      // GDSF-style priority: aged clock plus the cost of bringing this
      // function back after an eviction (a full cold start).
      container->priority =
          gd_clock_ + config_.profile.InitCost() + costs_of_[static_cast<size_t>(fn)]->scratch_load;
    }
    Event completion;
    completion.time = done;
    completion.type = EventType::kCompletion;
    completion.node = node_index;
    completion.container = container->id;
    Schedule(completion, kBandDynamic, &dynamic_seq_);
  }

  TraceSource* source_;
  SimConfig config_;
  const FunctionTable* functions_;
  const std::map<std::string, DemandSeries>& history_;
  const RequestObserver& observer_;
  // The live platform's placement coordinator: table, liveness mask and the
  // warming demand accumulator.
  PlacementManager placement_;
  double horizon_ = 0.0;
  VirtualClock clock_;

  // Distinct models, name-sorted (placement solver input order).
  std::map<std::string, const Model*> models_by_name_;
  // Function name -> model, for the startup policies (O(functions) entries).
  std::map<std::string, const Model*> repository_;
  std::vector<const Model*> model_ptrs_;
  // Cost record of each workload model, by model index; never resized after
  // construction, so costs_of_ may point into it.
  std::vector<ModelCosts> model_costs_;
  // --- FunctionId-indexed hot-path tables. ----------------------------------
  std::vector<const Model*> model_of_;
  std::vector<const ModelCosts*> costs_of_;
  std::vector<int> node_of_;
  // Cumulative served invocations per function: the warming harvest's input.
  std::vector<uint64_t> served_counts_;

  double gd_clock_ = 0.0;
  std::unique_ptr<StartupPolicy> policy_;
  // Forecast-driven warming (null when SimConfig::warming is off).
  std::unique_ptr<WarmingEngine> warming_engine_;
  std::vector<NodeState> nodes_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  // Lazy scheduling state: churn events sorted by time (stable, preserving
  // config order at equal times) plus a cursor, and per-band seq counters.
  std::vector<NodeChurnEvent> churn_sorted_;
  size_t churn_cursor_ = 0;
  uint64_t next_ordinal_ = 0;
  uint64_t arrival_seq_ = 0;
  uint64_t churn_seq_ = 0;
  uint64_t warming_seq_ = 0;
  uint64_t dynamic_seq_ = 0;
  SimResult result_;
};

}  // namespace

SimResult RunSimulation(const std::vector<Model>& models, const Trace& trace,
                        const SimConfig& config, const CostModel& costs,
                        const RequestObserver& observer) {
  // Adapter onto the streaming core: intern the trace's functions and map
  // each to its model by name (first model wins a duplicated name, like the
  // old by-value repository map).
  FunctionTable functions;
  SimWorkload workload;
  workload.models = &models;
  workload.functions = &functions;
  std::map<std::string, int32_t> index_by_name;
  for (size_t i = 0; i < models.size(); ++i) {
    index_by_name.emplace(models[i].name(), static_cast<int32_t>(i));
  }
  for (const Invocation& invocation : trace) {
    const FunctionId fn = functions.Intern(invocation.function);
    if (static_cast<size_t>(fn) == workload.function_model.size()) {
      const auto it = index_by_name.find(invocation.function);
      // -1 = unregistered: the core throws when the arrival is processed,
      // exactly where the pre-streaming simulator threw.
      workload.function_model.push_back(it == index_by_name.end() ? -1 : it->second);
    }
  }
  const double horizon = trace.empty() ? 1.0 : trace.back().arrival + 1.0;
  workload.history = DemandHistory(trace, horizon, /*slot_seconds=*/300.0);
  TraceVectorSource source(trace, &functions);
  return RunSimulationStream(workload, &source, config, costs, observer);
}

SimResult RunSimulationStream(const SimWorkload& workload, TraceSource* source,
                              const SimConfig& config, const CostModel& costs,
                              const RequestObserver& observer) {
  Simulation simulation(workload, source, config, costs, observer);
  return simulation.Run();
}

}  // namespace optimus
