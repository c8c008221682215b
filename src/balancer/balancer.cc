#include "src/balancer/balancer.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "src/balancer/kmedoids.h"
#include "src/core/planner.h"

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

namespace {

std::vector<const Model*> Pointers(const std::vector<Model>& models) {
  std::vector<const Model*> pointers;
  pointers.reserve(models.size());
  for (const Model& model : models) {
    pointers.push_back(&model);
  }
  return pointers;
}

std::vector<std::vector<double>> CombinedDistanceMatrixImpl(
    const std::vector<const Model*>& models, const std::map<std::string, DemandSeries>& history,
    const EditDistanceFn& edit_distance, const BalancerOptions& options) {
  const size_t n = models.size();
  std::vector<std::vector<double>> edit(n, std::vector<double>(n, 0.0));
  double max_edit = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double d = edit_distance(*models[i], *models[j]);
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
      combined[i][j] = combined[j][i] = options.gamma_distance * normalized_edit +
                                        options.gamma_correlation * normalized_corr;
    }
  }
  return combined;
}

Placement HashPlacement(const std::vector<const Model*>& models, int num_nodes) {
  Placement placement;
  for (const Model* model : models) {
    placement[model->name()] =
        static_cast<int>(std::hash<std::string>{}(model->name()) %
                         static_cast<size_t>(num_nodes));
  }
  return placement;
}

Placement LoadBasedPlacement(const std::vector<const Model*>& models, int num_nodes,
                             const std::map<std::string, DemandSeries>& history) {
  // Greedy bin packing by expected demand: heaviest functions first, each to
  // the currently least-loaded node.
  std::vector<std::pair<double, std::string>> demand;
  for (const Model* model : models) {
    double total = 1.0;  // Every function contributes at least a unit load.
    auto it = history.find(model->name());
    if (it != history.end()) {
      total += std::accumulate(it->second.begin(), it->second.end(), 0.0);
    }
    demand.emplace_back(total, model->name());
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

EditDistanceFn BoundEditDistance(const CostModel& costs) {
  return [&costs](const Model& a, const Model& b) { return SymmetricEditDistance(a, b, costs); };
}

}  // namespace

double SymmetricEditDistance(const Model& a, const Model& b, const CostModel& costs) {
  return std::min(ModelEditDistance(a, b, costs), ModelEditDistance(b, a, costs));
}

Placement ModelSharingPlacement(const std::vector<const Model*>& models, int num_nodes,
                                const std::map<std::string, DemandSeries>& history,
                                const EditDistanceFn& edit_distance,
                                const BalancerOptions& options) {
  if (num_nodes < 1) {
    throw std::invalid_argument("ModelSharingPlacement: need at least one node");
  }
  const auto distance = CombinedDistanceMatrixImpl(models, history, edit_distance, options);
  // Cluster at finer granularity than the node count, then bin-pack clusters
  // onto nodes by expected demand: keeping whole clusters together preserves
  // transformation affinity, while the packing keeps node load even (§5.1's
  // "the load balancer should consider the load of nodes").
  const int k = std::min<int>(std::max(1, options.clusters_per_node) * num_nodes,
                              static_cast<int>(models.size()));
  const KMedoidsResult clusters = KMedoids(distance, k, options.seed);

  auto demand_of = [&](size_t model_index) {
    double total = 1.0;
    auto it = history.find(models[model_index]->name());
    if (it != history.end()) {
      total += std::accumulate(it->second.begin(), it->second.end(), 0.0);
    }
    return total;
  };

  std::vector<double> cluster_demand(static_cast<size_t>(k), 0.0);
  std::vector<std::vector<size_t>> cluster_members(static_cast<size_t>(k));
  for (size_t i = 0; i < models.size(); ++i) {
    const auto cluster = static_cast<size_t>(clusters.assignment[i]);
    cluster_demand[cluster] += demand_of(i);
    cluster_members[cluster].push_back(i);
  }

  // Member-level greedy packing with cluster affinity: every function
  // prefers a node that already hosts its cluster (so transformation donors
  // stay local), but no node takes more than its fair share of functions —
  // under skewed demand a single hot cluster must not starve the others of
  // container slots.
  const size_t cap =
      (models.size() + static_cast<size_t>(num_nodes) - 1) / static_cast<size_t>(num_nodes);
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
      node_load[static_cast<size_t>(best_node)] += demand_of(member);
      node_count[static_cast<size_t>(best_node)] += 1;
      hosts_cluster[static_cast<size_t>(best_node)] = true;
    }
  }
  return placement;
}

std::vector<std::vector<double>> CombinedDistanceMatrix(
    const std::vector<Model>& models, const std::map<std::string, DemandSeries>& history,
    const CostModel& costs, const BalancerOptions& options) {
  return CombinedDistanceMatrixImpl(Pointers(models), history, BoundEditDistance(costs), options);
}

Placement PlaceFunctions(const std::vector<const Model*>& models, int num_nodes,
                         const std::map<std::string, DemandSeries>& history,
                         const CostModel* costs, const BalancerOptions& options) {
  if (num_nodes < 1) {
    throw std::invalid_argument("PlaceFunctions: need at least one node");
  }
  switch (options.kind) {
    case BalancerKind::kHash:
      return HashPlacement(models, num_nodes);
    case BalancerKind::kLoadBased:
      return LoadBasedPlacement(models, num_nodes, history);
    case BalancerKind::kModelSharing:
      if (costs == nullptr) {
        throw std::invalid_argument("PlaceFunctions: model sharing needs a cost model");
      }
      return ModelSharingPlacement(models, num_nodes, history, BoundEditDistance(*costs), options);
  }
  return {};
}

Placement PlaceFunctions(const std::vector<Model>& models, int num_nodes,
                         const std::map<std::string, DemandSeries>& history,
                         const CostModel& costs, const BalancerOptions& options) {
  return PlaceFunctions(Pointers(models), num_nodes, history, &costs, options);
}

}  // namespace optimus
