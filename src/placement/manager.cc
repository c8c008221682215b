#include "src/placement/manager.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/common/fault.h"

namespace optimus {

namespace {
constexpr const char* kRebalanceReasons[] = {"initial",  "deploy",  "demand",
                                             "manual",   "node_down", "node_up"};
}  // namespace

PlacementManager::PlacementManager(const PlacementManagerOptions& options, const CostModel* costs,
                                   telemetry::MetricsRegistry* metrics)
    : options_(options),
      policy_(MakePlacementPolicy(options.policy, costs)),
      store_(std::make_shared<const PlacementTable>(0, options.policy.kind,
                                                    options.num_nodes, Placement{})),
      demand_(options.demand_slots),
      next_rebalance_due_(options.rebalance_interval) {
  if (options.num_nodes < 1) {
    throw std::invalid_argument("PlacementManager: need at least one node");
  }
  if (metrics != nullptr) {
    version_gauge_ = &metrics->GetGauge("optimus_placement_version", {},
                                        "Version of the serving placement table");
    node_function_gauges_.reserve(static_cast<size_t>(options.num_nodes));
    for (int node = 0; node < options.num_nodes; ++node) {
      node_function_gauges_.push_back(
          &metrics->GetGauge("optimus_placement_node_functions", {{"node", std::to_string(node)}},
                             "Functions assigned to each node by the placement table"));
    }
    for (const char* reason : kRebalanceReasons) {
      rebalance_counters_[reason] =
          &metrics->GetCounter("optimus_rebalance_total", {{"reason", reason}},
                               "Placement-table swaps by trigger");
    }
    rebalance_failures_counter_ =
        &metrics->GetCounter("optimus_rebalance_failures_total", {},
                             "Placement recomputes that failed (previous table kept serving)");
  }
}

void PlacementManager::PublishLocked(const Placement& assignment) {
  auto next = std::make_shared<const PlacementTable>(store_.Version() + 1, options_.policy.kind,
                                                     options_.num_nodes, assignment, live_mask_);
  if (version_gauge_ != nullptr) {
    version_gauge_->Set(static_cast<double>(next->version()));
    const std::vector<size_t> counts = next->NodeFunctionCounts();
    for (size_t node = 0; node < node_function_gauges_.size() && node < counts.size(); ++node) {
      node_function_gauges_[node]->Set(static_cast<double>(counts[node]));
    }
  }
  store_.Swap(std::move(next));
}

void PlacementManager::AddFunction(const Model& model, const std::vector<const Model*>& peers) {
  MutexLock lock(update_mutex_);
  const std::shared_ptr<const PlacementTable> current = store_.Snapshot();
  if (current->NodeOf(model.name()) >= 0) {
    return;  // Already placed; deploys never move existing functions.
  }
  Placement assignment(current->assignment().begin(), current->assignment().end());
  assignment[model.name()] = policy_->PlaceOne(model, peers, *current);
  PublishLocked(assignment);
  BumpReasonCounter("deploy");
}

bool PlacementManager::SetNodeLive(int node, bool live) {
  if (node < 0 || node >= options_.num_nodes) {
    return false;
  }
  MutexLock lock(update_mutex_);
  if (live_mask_.empty()) {
    live_mask_.assign(static_cast<size_t>(options_.num_nodes), 1);
  }
  if ((live_mask_[static_cast<size_t>(node)] != 0) == live) {
    return false;  // Mask already agrees; nothing to publish.
  }
  live_mask_[static_cast<size_t>(node)] = live ? 1 : 0;
  const std::shared_ptr<const PlacementTable> current = store_.Snapshot();
  PublishLocked(Placement(current->assignment().begin(), current->assignment().end()));
  BumpReasonCounter(live ? "node_up" : "node_down");
  return true;
}

void PlacementManager::BumpReasonCounter(const std::string& reason) {
  const auto counter = rebalance_counters_.find(reason);
  if (counter != rebalance_counters_.end()) {
    counter->second->Inc();
  }
}

Placement PlacementManager::SolveLiveLocked(
    const std::vector<const Model*>& models,
    const std::map<std::string, DemandSeries>& history) const {
  // Re-home over the live subset (DESIGN.md §16): the solver sees a
  // contiguous 0..live-1 cluster, and its indices are remapped back to
  // physical node ids afterwards, so dead nodes receive no assignments.
  // An all-dead mask (total outage) degenerates to the full set — the
  // router's hash fallback covers routing until someone revives.
  std::vector<int> live_ids;
  for (size_t node = 0; node < live_mask_.size(); ++node) {
    if (live_mask_[node] != 0) {
      live_ids.push_back(static_cast<int>(node));
    }
  }
  const int solve_nodes =
      live_ids.empty() ? options_.num_nodes : static_cast<int>(live_ids.size());
  Placement assignment = policy_->Compute(models, history, solve_nodes);
  if (!live_ids.empty()) {
    for (auto& [function, node] : assignment) {
      node = live_ids[static_cast<size_t>(std::clamp(node, 0, solve_nodes - 1))];
    }
  }
  return assignment;
}

bool PlacementManager::Rebalance(const std::vector<const Model*>& models,
                                 const std::map<std::string, DemandSeries>& history,
                                 const std::string& reason) {
  MutexLock lock(update_mutex_);
  try {
    // The injected failure models a solver crash mid-recompute: nothing may
    // have been published, so the previous table must keep serving.
    fault::MaybeInject("placement.rebalance");
    PublishLocked(SolveLiveLocked(models, history));
  } catch (const std::exception&) {
    rebalance_failures_.fetch_add(1, std::memory_order_relaxed);
    if (rebalance_failures_counter_ != nullptr) {
      rebalance_failures_counter_->Inc();
    }
    return false;
  }
  rebalances_.fetch_add(1, std::memory_order_relaxed);
  BumpReasonCounter(reason);
  return true;
}

PlacementDiff PlacementManager::PreviewRebalance(
    const std::vector<const Model*>& models,
    const std::map<std::string, DemandSeries>& history) {
  MutexLock lock(update_mutex_);
  const std::shared_ptr<const PlacementTable> current = store_.Snapshot();
  PlacementDiff diff;
  diff.version = current->version();
  // The same solve Rebalance publishes, so the preview predicts the swap.
  for (const auto& [function, node] : SolveLiveLocked(models, history)) {
    const int from = current->NodeOf(function);
    if (from == node) {
      ++diff.unchanged;
    } else {
      diff.moves.push_back(PlacementDiff::Move{function, from, node});
    }
  }
  return diff;
}

void PlacementManager::RecordDemand(const std::map<std::string, uint64_t>& cumulative_invokes) {
  demand_.RecordCumulative(cumulative_invokes);
}

bool PlacementManager::RebalanceDue(double now) {
  if (options_.rebalance_interval <= 0.0) {
    return false;
  }
  double due = next_rebalance_due_.load(std::memory_order_relaxed);
  while (now >= due) {
    if (next_rebalance_due_.compare_exchange_weak(due, now + options_.rebalance_interval,
                                                  std::memory_order_relaxed)) {
      return true;  // This caller won the CAS: exactly one rebalance per window.
    }
  }
  return false;
}

size_t PlacementManager::Rebalances() const {
  return static_cast<size_t>(rebalances_.load(std::memory_order_relaxed));
}

size_t PlacementManager::RebalanceFailures() const {
  return static_cast<size_t>(rebalance_failures_.load(std::memory_order_relaxed));
}

std::string PlacementManager::StatsJson() const {
  const std::shared_ptr<const PlacementTable> table = Table();
  std::ostringstream out;
  out << "{\"version\":" << table->version() << ",\"policy\":\""
      << BalancerKindId(table->kind()) << "\",\"num_nodes\":" << table->num_nodes()
      << ",\"live_nodes\":" << table->live_nodes() << ",\"functions\":" << table->size()
      << ",\"rebalances\":" << Rebalances()
      << ",\"rebalance_failures\":" << RebalanceFailures() << ",\"node_functions\":[";
  const std::vector<size_t> counts = table->NodeFunctionCounts();
  for (size_t node = 0; node < counts.size(); ++node) {
    if (node > 0) {
      out << ",";
    }
    out << counts[node];
  }
  out << "]}";
  return out.str();
}

}  // namespace optimus
