#include "src/placement/placement.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/core/planner.h"
#include "src/placement/kmedoids.h"

namespace optimus {

const char* BalancerKindName(BalancerKind kind) {
  switch (kind) {
    case BalancerKind::kHash:
      return "Hash";
    case BalancerKind::kLoadBased:
      return "LoadBased";
    case BalancerKind::kModelSharing:
      return "ModelSharing";
  }
  return "Unknown";
}

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

void RequireNodes(int num_nodes) {
  if (num_nodes < 1) {
    throw std::invalid_argument("PlacementPolicy::Compute: need at least one node");
  }
}

int HashNode(const std::string& function, int num_nodes) {
  return static_cast<int>(std::hash<std::string>{}(function) % static_cast<size_t>(num_nodes));
}

// Expected demand of `function`: one unit — every function contributes at
// least a unit load — plus its total demand in `history`.
double ExpectedDemand(const std::map<std::string, DemandSeries>& history,
                      const std::string& function) {
  const auto it = history.find(function);
  return it == history.end() ? 1.0
                             : 1.0 + std::accumulate(it->second.begin(), it->second.end(), 0.0);
}

// The §5.1 structural term before normalization: the symmetric edit distance
// min(D(a,b), D(b,a)), each direction the group planner's transformation cost.
double SymmetricEditDistance(const Model& a, const Model& b, const CostModel& costs) {
  return std::min(ModelEditDistance(a, b, costs), ModelEditDistance(b, a, costs));
}

// The most functions one node takes: its fair share, rounded up. Both the
// model-sharing solve and its incremental path honor it, so neither a hot
// cluster nor a run of similar deploys can pile functions onto one node and
// starve the others of container slots.
size_t FairShareCap(size_t functions, int num_nodes) {
  return (functions + static_cast<size_t>(num_nodes) - 1) / static_cast<size_t>(num_nodes);
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
                    const std::map<std::string, DemandSeries>& /*history*/,
                    int num_nodes) const override {
    RequireNodes(num_nodes);
    Placement placement;
    for (const Model* model : models) {
      placement[model->name()] = HashNode(model->name(), num_nodes);
    }
    return placement;
  }

  int PlaceOne(const Model& model, const std::vector<const Model*>& /*peers*/,
               const PlacementTable& current) const override {
    return HashNode(model.name(), current.num_nodes());
  }
};

class LoadBasedPolicy final : public PlacementPolicy {
 public:
  BalancerKind kind() const override { return BalancerKind::kLoadBased; }

  Placement Compute(const std::vector<const Model*>& models,
                    const std::map<std::string, DemandSeries>& history,
                    int num_nodes) const override {
    RequireNodes(num_nodes);
    // Greedy bin packing by expected demand: heaviest functions first, each
    // to the currently least-loaded node.
    std::vector<std::pair<double, std::string>> demand;
    for (const Model* model : models) {
      demand.emplace_back(ExpectedDemand(history, model->name()), model->name());
    }
    std::sort(demand.rbegin(), demand.rend());
    std::vector<double> node_load(static_cast<size_t>(num_nodes), 0.0);
    Placement placement;
    for (const auto& [load, name] : demand) {
      const auto lightest = std::min_element(node_load.begin(), node_load.end());
      placement[name] = static_cast<int>(lightest - node_load.begin());
      *lightest += load;
    }
    return placement;
  }

  int PlaceOne(const Model& /*model*/, const std::vector<const Model*>& /*peers*/,
               const PlacementTable& current) const override {
    // Without fresh demand for a brand-new function, function count is the
    // load proxy: join the emptiest node.
    return LeastLoadedNode(current.NodeFunctionCounts());
  }
};

class ModelSharingPolicy final : public PlacementPolicy {
 public:
  ModelSharingPolicy(const PlacementOptions& options, const CostModel* costs)
      : options_(options), costs_(costs) {}

  BalancerKind kind() const override { return BalancerKind::kModelSharing; }

  Placement Compute(const std::vector<const Model*>& models,
                    const std::map<std::string, DemandSeries>& history,
                    int num_nodes) const override {
    RequireNodes(num_nodes);
    // Cluster at finer granularity than the node count, then bin-pack
    // clusters onto nodes by expected demand: keeping whole clusters together
    // preserves transformation affinity, while the packing keeps node load
    // even (§5.1's "the load balancer should consider the load of nodes").
    const int k = std::min<int>(std::max(1, options_.clusters_per_node) * num_nodes,
                                static_cast<int>(models.size()));
    const KMedoidsResult clusters = KMedoids(DistanceMatrix(models, history), k);

    std::vector<double> demand(models.size());
    std::vector<double> cluster_demand(static_cast<size_t>(k), 0.0);
    std::vector<std::vector<size_t>> cluster_members(static_cast<size_t>(k));
    for (size_t i = 0; i < models.size(); ++i) {
      const auto cluster = static_cast<size_t>(clusters.assignment[i]);
      demand[i] = ExpectedDemand(history, models[i]->name());
      cluster_demand[cluster] += demand[i];
      cluster_members[cluster].push_back(i);
    }

    // Member-level greedy packing with cluster affinity: every function
    // prefers a node that already hosts its cluster (so transformation
    // donors stay local), up to the fair-share cap.
    const size_t cap = FairShareCap(models.size(), num_nodes);
    std::vector<int> order(static_cast<size_t>(k));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return cluster_demand[static_cast<size_t>(a)] > cluster_demand[static_cast<size_t>(b)];
    });

    std::vector<double> node_load(static_cast<size_t>(num_nodes), 0.0);
    std::vector<size_t> node_count(static_cast<size_t>(num_nodes), 0);
    Placement placement;
    for (const int cluster : order) {
      std::vector<bool> hosts_cluster(static_cast<size_t>(num_nodes), false);
      for (const size_t member : cluster_members[static_cast<size_t>(cluster)]) {
        int best_node = -1;
        for (int node = 0; node < num_nodes; ++node) {
          if (node_count[static_cast<size_t>(node)] >= cap) {
            continue;
          }
          if (best_node == -1) {
            best_node = node;
            continue;
          }
          const bool best_hosts = hosts_cluster[static_cast<size_t>(best_node)];
          const bool node_hosts = hosts_cluster[static_cast<size_t>(node)];
          if (node_hosts != best_hosts) {
            if (node_hosts) {
              best_node = node;
            }
            continue;
          }
          if (node_load[static_cast<size_t>(node)] < node_load[static_cast<size_t>(best_node)]) {
            best_node = node;
          }
        }
        placement[models[member]->name()] = best_node;
        node_load[static_cast<size_t>(best_node)] += demand[member];
        node_count[static_cast<size_t>(best_node)] += 1;
        hosts_cluster[static_cast<size_t>(best_node)] = true;
      }
    }
    return placement;
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
    const size_t cap = FairShareCap(current.size() + 1, num_nodes);
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

  // The combined distance gamma_d·D̂ + gamma_k·K̂ between every pair of
  // `models` (see CombinedDistanceMatrix).
  std::vector<std::vector<double>> DistanceMatrix(
      const std::vector<const Model*>& models,
      const std::map<std::string, DemandSeries>& history) const {
    const size_t n = models.size();
    std::vector<std::vector<double>> edit(n, std::vector<double>(n, 0.0));
    double max_edit = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const double d = Distance(*models[i], *models[j]);
        edit[i][j] = edit[j][i] = d;
        max_edit = std::max(max_edit, d);
      }
    }

    std::vector<std::vector<double>> combined(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const double normalized_edit = max_edit > 0.0 ? edit[i][j] / max_edit : 0.0;
        double correlation = 0.0;
        auto a = history.find(models[i]->name());
        auto b = history.find(models[j]->name());
        if (a != history.end() && b != history.end()) {
          correlation = DemandCorrelation(a->second, b->second);
        }
        // Map correlation [-1, 1] -> [0, 1]; anti-correlated (complementary)
        // demand yields a small distance.
        const double normalized_corr = (correlation + 1.0) / 2.0;
        combined[i][j] = combined[j][i] = options_.gamma_distance * normalized_edit +
                                          options_.gamma_correlation * normalized_corr;
      }
    }
    return combined;
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
      return std::make_unique<LoadBasedPolicy>();
    case BalancerKind::kModelSharing:
      if (costs == nullptr) {
        throw std::invalid_argument("MakePlacementPolicy: model_sharing needs a cost model");
      }
      return std::make_unique<ModelSharingPolicy>(options, costs);
  }
  throw std::invalid_argument("MakePlacementPolicy: unknown balancer kind");
}

std::vector<std::vector<double>> CombinedDistanceMatrix(
    const std::vector<const Model*>& models, const std::map<std::string, DemandSeries>& history,
    const CostModel& costs, const PlacementOptions& options) {
  return ModelSharingPolicy(options, &costs).DistanceMatrix(models, history);
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
