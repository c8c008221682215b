// K-medoids (PAM) clustering over a precomputed distance matrix, used by the
// model sharing-aware placement policy (paper §5.1).

#ifndef OPTIMUS_SRC_PLACEMENT_KMEDOIDS_H_
#define OPTIMUS_SRC_PLACEMENT_KMEDOIDS_H_

#include <vector>

namespace optimus {

struct KMedoidsResult {
  std::vector<int> medoids;      // Indices of the k cluster centers.
  std::vector<int> assignment;   // assignment[i] = cluster index in [0, k).
  double total_distance = 0.0;   // Sum of point-to-medoid distances.
};

// Partitioning Around Medoids: greedy BUILD initialization followed by SWAP
// passes until convergence (at most 50 passes). Both phases are
// deterministic. `distance` must be a square symmetric matrix with zero
// diagonal. Requires 1 <= k <= n.
KMedoidsResult KMedoids(const std::vector<std::vector<double>>& distance, int k);

}  // namespace optimus

#endif  // OPTIMUS_SRC_PLACEMENT_KMEDOIDS_H_
