// Function-to-node placement (paper §5.1).
//
// The model sharing-aware balancer co-locates functions whose models are
// structurally similar (small editing distance D) and whose demand dynamics
// are complementary (low or negative correlation K), using K-medoids over the
// combined distance gamma_d * D̂(A,B) + gamma_k * K̂(A,B). Hash-based and
// load-based baselines represent the strategies existing serverless systems
// use.

#ifndef OPTIMUS_SRC_BALANCER_BALANCER_H_
#define OPTIMUS_SRC_BALANCER_BALANCER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/graph/model.h"
#include "src/runtime/cost_model.h"
#include "src/workload/trace.h"

namespace optimus {

// function name -> node index in [0, num_nodes).
using Placement = std::map<std::string, int>;

enum class BalancerKind : uint8_t {
  kHash = 0,        // Stateless hashing (existing systems' default).
  kLoadBased,       // Spread expected demand evenly (resource-usage based).
  kModelSharing,    // The §5.1 similarity + complementarity K-medoids scheme.
};

const char* BalancerKindName(BalancerKind kind);

struct BalancerOptions {
  BalancerKind kind = BalancerKind::kModelSharing;
  // Combined-distance weights (the paper's gamma_i for D and gamma_j for K).
  double gamma_distance = 0.6;
  double gamma_correlation = 0.4;
  // K-medoids granularity: the model-sharing balancer forms
  // clusters_per_node * num_nodes clusters, then bin-packs whole clusters
  // onto nodes by expected demand. >1 keeps node load even when cluster
  // sizes are skewed.
  int clusters_per_node = 2;
  uint64_t seed = 1;
};

// Computes the placement of `models` (structure-only) onto `num_nodes` nodes.
// `history` provides demand series for the correlation term (may be empty,
// in which case K is treated as 0). The cost model supplies D via the group
// planner's transformation cost.
Placement PlaceFunctions(const std::vector<Model>& models, int num_nodes,
                         const std::map<std::string, DemandSeries>& history,
                         const CostModel& costs, const BalancerOptions& options);

// Non-owning overload for callers (the placement subsystem) whose models live
// in a repository: no copies are made. `costs` may be null for kHash and
// kLoadBased; kModelSharing requires it (throws std::invalid_argument).
Placement PlaceFunctions(const std::vector<const Model*>& models, int num_nodes,
                         const std::map<std::string, DemandSeries>& history,
                         const CostModel* costs, const BalancerOptions& options);

// The §5.1 structural term before normalization: the symmetric edit distance
// min(D(a,b), D(b,a)), each direction the group planner's transformation cost.
double SymmetricEditDistance(const Model& a, const Model& b, const CostModel& costs);

// A symmetric edit distance between two models, e.g. SymmetricEditDistance
// bound to a cost model, or a memo over it.
using EditDistanceFn = std::function<double(const Model&, const Model&)>;

// The model-sharing solve (PlaceFunctions' kModelSharing branch) over a
// caller-supplied edit distance — how the placement policy reuses distances
// across re-solves. `options.kind` is ignored.
Placement ModelSharingPlacement(const std::vector<const Model*>& models, int num_nodes,
                                const std::map<std::string, DemandSeries>& history,
                                const EditDistanceFn& edit_distance,
                                const BalancerOptions& options);

// The pairwise combined-distance matrix the model-sharing balancer clusters;
// exposed for tests and ablation benchmarks. Distances are normalized to
// [0, 1] per term before weighting, and symmetrized via min(D(a,b), D(b,a)).
std::vector<std::vector<double>> CombinedDistanceMatrix(
    const std::vector<Model>& models, const std::map<std::string, DemandSeries>& history,
    const CostModel& costs, const BalancerOptions& options);

}  // namespace optimus

#endif  // OPTIMUS_SRC_BALANCER_BALANCER_H_
