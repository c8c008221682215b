#include "src/placement/kmedoids.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace optimus {

namespace {

// SWAP iterations before giving up on convergence.
constexpr int kMaxSwapIterations = 50;

// Assigns every point to its nearest medoid; returns the total distance.
double Assign(const std::vector<std::vector<double>>& distance, const std::vector<int>& medoids,
              std::vector<int>* assignment) {
  const size_t n = distance.size();
  assignment->assign(n, 0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < medoids.size(); ++c) {
      const double d = distance[i][static_cast<size_t>(medoids[c])];
      if (d < best) {
        best = d;
        (*assignment)[i] = static_cast<int>(c);
      }
    }
    total += best;
  }
  return total;
}

}  // namespace

KMedoidsResult KMedoids(const std::vector<std::vector<double>>& distance, int k) {
  const int n = static_cast<int>(distance.size());
  if (k < 1 || k > n) {
    throw std::invalid_argument("KMedoids: k must be in [1, n]");
  }

  // BUILD: first medoid minimizes total distance; subsequent medoids greedily
  // maximize cost reduction.
  KMedoidsResult result;
  {
    int best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      double cost = 0.0;
      for (int j = 0; j < n; ++j) {
        cost += distance[static_cast<size_t>(j)][static_cast<size_t>(i)];
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    result.medoids.push_back(best);
  }
  while (static_cast<int>(result.medoids.size()) < k) {
    int best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int candidate = 0; candidate < n; ++candidate) {
      if (std::find(result.medoids.begin(), result.medoids.end(), candidate) !=
          result.medoids.end()) {
        continue;
      }
      std::vector<int> trial = result.medoids;
      trial.push_back(candidate);
      std::vector<int> assignment;
      const double cost = Assign(distance, trial, &assignment);
      if (cost < best_cost) {
        best_cost = cost;
        best = candidate;
      }
    }
    result.medoids.push_back(best);
  }

  // SWAP: try replacing each medoid with each non-medoid while it improves.
  result.total_distance = Assign(distance, result.medoids, &result.assignment);
  for (int iteration = 0; iteration < kMaxSwapIterations; ++iteration) {
    bool improved = false;
    for (size_t c = 0; c < result.medoids.size(); ++c) {
      for (int candidate = 0; candidate < n; ++candidate) {
        if (std::find(result.medoids.begin(), result.medoids.end(), candidate) !=
            result.medoids.end()) {
          continue;
        }
        std::vector<int> trial = result.medoids;
        trial[c] = candidate;
        std::vector<int> assignment;
        const double cost = Assign(distance, trial, &assignment);
        if (cost + 1e-12 < result.total_distance) {
          result.medoids = trial;
          result.assignment = assignment;
          result.total_distance = cost;
          improved = true;
        }
      }
    }
    if (!improved) {
      break;
    }
  }
  return result;
}

}  // namespace optimus
