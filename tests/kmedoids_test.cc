#include "src/placement/kmedoids.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"

namespace optimus {
namespace {

std::vector<std::vector<double>> DistanceFromPoints(const std::vector<double>& points) {
  const size_t n = points.size();
  std::vector<std::vector<double>> distance(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      distance[i][j] = std::abs(points[i] - points[j]);
    }
  }
  return distance;
}

TEST(KMedoidsTest, SingleClusterPicksCentralPoint) {
  const KMedoidsResult result = KMedoids(DistanceFromPoints({0.0, 1.0, 2.0, 3.0, 10.0}), 1);
  ASSERT_EQ(result.medoids.size(), 1u);
  EXPECT_EQ(result.medoids[0], 2);  // Point 2.0 minimizes total distance.
}

TEST(KMedoidsTest, SeparatesTwoObviousClusters) {
  const std::vector<double> points = {0.0, 0.1, 0.2, 10.0, 10.1, 10.2};
  const KMedoidsResult result = KMedoids(DistanceFromPoints(points), 2);
  // All low points share a cluster, all high points the other.
  EXPECT_EQ(result.assignment[0], result.assignment[1]);
  EXPECT_EQ(result.assignment[1], result.assignment[2]);
  EXPECT_EQ(result.assignment[3], result.assignment[4]);
  EXPECT_EQ(result.assignment[4], result.assignment[5]);
  EXPECT_NE(result.assignment[0], result.assignment[3]);
}

TEST(KMedoidsTest, KEqualsNAssignsSelf) {
  const KMedoidsResult result = KMedoids(DistanceFromPoints({0.0, 5.0, 9.0}), 3);
  EXPECT_EQ(result.total_distance, 0.0);
}

TEST(KMedoidsTest, InvalidKThrows) {
  const auto distance = DistanceFromPoints({0.0, 1.0});
  EXPECT_THROW(KMedoids(distance, 0), std::invalid_argument);
  EXPECT_THROW(KMedoids(distance, 3), std::invalid_argument);
}

TEST(KMedoidsTest, AssignmentWithinRangeAndMedoidsSelfAssigned) {
  Rng rng(5);
  std::vector<double> points;
  for (int i = 0; i < 30; ++i) {
    points.push_back(rng.Uniform(0.0, 100.0));
  }
  const KMedoidsResult result = KMedoids(DistanceFromPoints(points), 4);
  ASSERT_EQ(result.assignment.size(), points.size());
  for (const int cluster : result.assignment) {
    EXPECT_GE(cluster, 0);
    EXPECT_LT(cluster, 4);
  }
  for (size_t c = 0; c < result.medoids.size(); ++c) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(result.medoids[c])], static_cast<int>(c));
  }
}

TEST(KMedoidsTest, SwapImprovesOverArbitraryStart) {
  // Total distance of the PAM result is no worse than assigning everything to
  // k arbitrary medoids.
  Rng rng(11);
  std::vector<double> points;
  for (int i = 0; i < 24; ++i) {
    points.push_back(rng.Uniform(0.0, 50.0));
  }
  const auto distance = DistanceFromPoints(points);
  const KMedoidsResult result = KMedoids(distance, 3);
  double arbitrary = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    double best = 1e18;
    for (const int medoid : {0, 1, 2}) {
      best = std::min(best, distance[i][static_cast<size_t>(medoid)]);
    }
    arbitrary += best;
  }
  EXPECT_LE(result.total_distance, arbitrary + 1e-9);
}

TEST(KMedoidsTest, Deterministic) {
  Rng rng(13);
  std::vector<double> points;
  for (int i = 0; i < 20; ++i) {
    points.push_back(rng.Uniform(0.0, 10.0));
  }
  const auto distance = DistanceFromPoints(points);
  const KMedoidsResult a = KMedoids(distance, 3);
  const KMedoidsResult b = KMedoids(distance, 3);
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.assignment, b.assignment);
}

}  // namespace
}  // namespace optimus
