#include "src/placement/placement.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

namespace optimus {

const char* BalancerKindId(BalancerKind kind) {
  switch (kind) {
    case BalancerKind::kHash:
      return "hash";
    case BalancerKind::kLoadBased:
      return "load_based";
    case BalancerKind::kModelSharing:
      return "model_sharing";
  }
  return "unknown";
}

bool ParseBalancerKind(const std::string& name, BalancerKind* kind) {
  for (const BalancerKind candidate :
       {BalancerKind::kHash, BalancerKind::kLoadBased, BalancerKind::kModelSharing}) {
    if (name == BalancerKindId(candidate) || name == BalancerKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

BalancerOptions ToBalancerOptions(const PlacementOptions& options) {
  BalancerOptions solver;
  solver.kind = options.kind;
  solver.gamma_distance = options.gamma_distance;
  solver.gamma_correlation = options.gamma_correlation;
  solver.clusters_per_node = options.clusters_per_node;
  solver.seed = options.seed;
  return solver;
}

PlacementTable::PlacementTable(uint64_t version, BalancerKind kind, int num_nodes,
                               const Placement& assignment)
    : PlacementTable(version, kind, num_nodes, assignment, {}) {}

PlacementTable::PlacementTable(uint64_t version, BalancerKind kind, int num_nodes,
                               const Placement& assignment, std::vector<uint8_t> live_mask)
    : version_(version), kind_(kind), num_nodes_(num_nodes < 1 ? 1 : num_nodes) {
  assignment_.reserve(assignment.size());
  for (const auto& [function, node] : assignment) {
    assignment_.emplace(function, std::clamp(node, 0, num_nodes_ - 1));
  }
  if (!live_mask.empty()) {
    live_mask.resize(static_cast<size_t>(num_nodes_), 0);
    const bool all_live = std::all_of(live_mask.begin(), live_mask.end(),
                                      [](uint8_t live) { return live != 0; });
    if (!all_live) {
      live_mask_ = std::move(live_mask);
      for (int node = 0; node < num_nodes_; ++node) {
        if (live_mask_[static_cast<size_t>(node)] != 0) {
          live_ids_.push_back(node);
        }
      }
    }
  }
}

int PlacementTable::NodeOf(const std::string& function) const {
  const auto it = assignment_.find(function);
  return it == assignment_.end() ? -1 : it->second;
}

bool PlacementTable::Live(int node) const {
  if (node < 0 || node >= num_nodes_) {
    return false;
  }
  return live_mask_.empty() || live_mask_[static_cast<size_t>(node)] != 0;
}

int PlacementTable::NodeOrHash(const std::string& function) const {
  const int node = NodeOf(function);
  if (node >= 0 && Live(node)) {
    return node;
  }
  // Unknown function, or one assigned to a dead node: re-home
  // deterministically over the live ring (plain hashing when the mask is
  // empty or — total outage — nothing is live).
  const size_t hashed = std::hash<std::string>{}(function);
  if (!live_ids_.empty()) {
    return live_ids_[hashed % live_ids_.size()];
  }
  return static_cast<int>(hashed % static_cast<size_t>(num_nodes_));
}

std::vector<size_t> PlacementTable::NodeFunctionCounts() const {
  std::vector<size_t> counts(static_cast<size_t>(num_nodes_), 0);
  for (const auto& [function, node] : assignment_) {
    counts[static_cast<size_t>(node)] += 1;
  }
  return counts;
}

PlacementStore::PlacementStore(std::shared_ptr<const PlacementTable> initial) {
  if (initial == nullptr) {
    initial = std::make_shared<const PlacementTable>();
  }
  Swap(std::move(initial));
}

namespace {

// Per-node cap the incremental path honors: no node takes more than its fair
// share of functions (mirrors the solver's member-level packing cap), so a
// run of similar deploys cannot pile the whole repository onto one node.
size_t IncrementalCap(size_t functions_after, int num_nodes) {
  return (functions_after + static_cast<size_t>(num_nodes) - 1) / static_cast<size_t>(num_nodes);
}

int LeastLoadedNode(const std::vector<size_t>& counts) {
  size_t best = 0;
  for (size_t node = 1; node < counts.size(); ++node) {
    if (counts[node] < counts[best]) {
      best = node;
    }
  }
  return static_cast<int>(best);
}

class HashPolicy final : public PlacementPolicy {
 public:
  BalancerKind kind() const override { return BalancerKind::kHash; }

  Placement Compute(const std::vector<const Model*>& models,
                    const std::map<std::string, DemandSeries>& history,
                    int num_nodes) const override {
    return PlaceFunctions(models, num_nodes, history, /*costs=*/nullptr,
                          ToBalancerOptions(PlacementOptions{BalancerKind::kHash}));
  }

  int PlaceOne(const Model& model, const std::vector<const Model*>& /*peers*/,
               const PlacementTable& current) const override {
    return static_cast<int>(std::hash<std::string>{}(model.name()) %
                            static_cast<size_t>(current.num_nodes()));
  }
};

class LoadBasedPolicy final : public PlacementPolicy {
 public:
  explicit LoadBasedPolicy(const PlacementOptions& options) : options_(options) {}

  BalancerKind kind() const override { return BalancerKind::kLoadBased; }

  Placement Compute(const std::vector<const Model*>& models,
                    const std::map<std::string, DemandSeries>& history,
                    int num_nodes) const override {
    PlacementOptions options = options_;
    options.kind = BalancerKind::kLoadBased;
    return PlaceFunctions(models, num_nodes, history, /*costs=*/nullptr,
                          ToBalancerOptions(options));
  }

  int PlaceOne(const Model& /*model*/, const std::vector<const Model*>& /*peers*/,
               const PlacementTable& current) const override {
    // Without fresh demand for a brand-new function, function count is the
    // load proxy: join the emptiest node.
    return LeastLoadedNode(current.NodeFunctionCounts());
  }

 private:
  PlacementOptions options_;
};

class ModelSharingPolicy final : public PlacementPolicy {
 public:
  ModelSharingPolicy(const PlacementOptions& options, const CostModel* costs)
      : options_(options), costs_(costs) {}

  BalancerKind kind() const override { return BalancerKind::kModelSharing; }

  Placement Compute(const std::vector<const Model*>& models,
                    const std::map<std::string, DemandSeries>& history,
                    int num_nodes) const override {
    return ModelSharingPlacement(
        models, num_nodes, history,
        [this](const Model& a, const Model& b) { return Distance(a, b); },
        ToBalancerOptions(options_));
  }

  int PlaceOne(const Model& model, const std::vector<const Model*>& peers,
               const PlacementTable& current) const override {
    const int num_nodes = current.num_nodes();
    if (num_nodes <= 1) {
      return 0;
    }
    // Greedy §5.1 approximation for one arrival: join the node hosting the
    // structurally closest peer (cheapest symmetric edit distance), subject
    // to the fair-share cap. A later demand-driven rebalance runs the full
    // K-medoids solve and can revise this choice.
    const std::vector<size_t> counts = current.NodeFunctionCounts();
    const size_t cap = IncrementalCap(current.size() + 1, num_nodes);
    std::vector<double> node_affinity(static_cast<size_t>(num_nodes),
                                      std::numeric_limits<double>::infinity());
    for (const Model* peer : peers) {
      const int node = current.NodeOf(peer->name());
      if (node < 0 || counts[static_cast<size_t>(node)] >= cap) {
        continue;  // Unplaced peer, or its node cannot take another function.
      }
      node_affinity[static_cast<size_t>(node)] =
          std::min(node_affinity[static_cast<size_t>(node)], Distance(model, *peer));
    }
    int best = -1;
    for (int node = 0; node < num_nodes; ++node) {
      if (counts[static_cast<size_t>(node)] >= cap) {
        continue;
      }
      if (best == -1) {
        best = node;
        continue;
      }
      const double best_affinity = node_affinity[static_cast<size_t>(best)];
      const double affinity = node_affinity[static_cast<size_t>(node)];
      if (affinity < best_affinity ||
          (affinity == best_affinity &&
           counts[static_cast<size_t>(node)] < counts[static_cast<size_t>(best)])) {
        best = node;
      }
    }
    return best >= 0 ? best : LeastLoadedNode(counts);
  }

 private:
  // SymmetricEditDistance of the pair, planned once per name pair: churn
  // re-solves and rebalances over an unchanged model set then plan nothing.
  // Keyed by name — the contract PlanCache keys plans on, which Deploy
  // enforces: a registered name's model never changes. The lock guards only
  // the map and is never held while planning, so a live Compute and PlaceOne
  // on different threads never wait on each other's plans; threads racing on
  // one new pair each plan it and store the same value.
  double Distance(const Model& a, const Model& b) const EXCLUDES(distance_mutex_) {
    std::pair<std::string, std::string> key =
        a.name() < b.name() ? std::pair(a.name(), b.name()) : std::pair(b.name(), a.name());
    {
      MutexLock lock(distance_mutex_);
      const auto it = distances_.find(key);
      if (it != distances_.end()) {
        return it->second;
      }
    }
    const double distance = SymmetricEditDistance(a, b, *costs_);
    MutexLock lock(distance_mutex_);
    distances_.emplace(std::move(key), distance);
    return distance;
  }

  PlacementOptions options_;
  const CostModel* costs_;
  mutable Mutex distance_mutex_{LockRank::kPlacementMemo, "placement.distance"};
  mutable std::map<std::pair<std::string, std::string>, double> distances_
      GUARDED_BY(distance_mutex_);
};

}  // namespace

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(const PlacementOptions& options,
                                                     const CostModel* costs) {
  switch (options.kind) {
    case BalancerKind::kHash:
      return std::make_unique<HashPolicy>();
    case BalancerKind::kLoadBased:
      return std::make_unique<LoadBasedPolicy>(options);
    case BalancerKind::kModelSharing:
      if (costs == nullptr) {
        throw std::invalid_argument("MakePlacementPolicy: model_sharing needs a cost model");
      }
      return std::make_unique<ModelSharingPolicy>(options, costs);
  }
  throw std::invalid_argument("MakePlacementPolicy: unknown balancer kind");
}

DemandAccumulator::DemandAccumulator(size_t max_slots)
    : max_slots_(max_slots < 2 ? 2 : max_slots) {}

void DemandAccumulator::RecordCumulative(const std::map<std::string, uint64_t>& totals) {
  MutexLock lock(mutex_);
  // Close one slot: every known function gets exactly one new sample so the
  // series stay aligned for the Pearson-correlation term.
  for (const auto& [function, total] : totals) {
    DemandSeries& series = series_[function];
    series.resize(slots_, 0.0);  // Zero-backfill functions that appeared late.
    const auto it = last_.find(function);
    const uint64_t previous = it == last_.end() ? 0 : it->second;
    series.push_back(total >= previous ? static_cast<double>(total - previous) : 0.0);
  }
  for (auto& [function, series] : series_) {
    series.resize(slots_ + 1, 0.0);  // Functions absent from this harvest saw no demand.
    if (series.size() > max_slots_) {
      series.erase(series.begin());
    }
  }
  slots_ = std::min(slots_ + 1, max_slots_);
  // Merge (not replace) the cumulative baselines: a function absent from one
  // harvest must keep its baseline, or its entire historical total would be
  // recounted as a single slot's demand when it reappears.
  for (const auto& [function, total] : totals) {
    last_[function] = total;
  }
}

std::map<std::string, DemandSeries> DemandAccumulator::History() const {
  MutexLock lock(mutex_);
  return series_;
}

size_t DemandAccumulator::Slots() const {
  MutexLock lock(mutex_);
  return slots_;
}

}  // namespace optimus
