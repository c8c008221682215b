// Tests for the §6 fine-grained resource allocation extension: memory-aware
// container pools and memory-constrained simulation.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/container/container.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

constexpr int64_t kGiB = 1LL << 30;

TEST(PoolMemoryTest, CanLaunchRespectsMemoryLimit) {
  ContainerPool pool(/*capacity=*/8, 60.0, 600.0, /*memory_limit=*/4 * kGiB);
  EXPECT_TRUE(pool.CanLaunch(3 * kGiB));
  pool.Launch("a", 0.0, 0.0, 3 * kGiB);
  EXPECT_EQ(pool.UsedMemory(), 3 * kGiB);
  EXPECT_FALSE(pool.CanLaunch(2 * kGiB));
  EXPECT_TRUE(pool.CanLaunch(1 * kGiB));
  EXPECT_THROW(pool.Launch("b", 0.0, 0.0, 2 * kGiB), std::runtime_error);
}

TEST(PoolMemoryTest, ZeroLimitDisablesAccounting) {
  ContainerPool pool(/*capacity=*/2, 60.0, 600.0);
  EXPECT_TRUE(pool.CanLaunch(100 * kGiB));
  pool.Launch("a", 0.0, 0.0, 100 * kGiB);
  EXPECT_TRUE(pool.CanLaunch(100 * kGiB));
}

TEST(PoolMemoryTest, RemoveReleasesMemory) {
  ContainerPool pool(/*capacity=*/4, 60.0, 600.0, /*memory_limit=*/4 * kGiB);
  const ContainerId id = pool.Launch("a", 0.0, 0.0, 4 * kGiB)->id;
  EXPECT_FALSE(pool.CanLaunch(1));
  pool.Remove(id);
  EXPECT_EQ(pool.UsedMemory(), 0);
  EXPECT_TRUE(pool.CanLaunch(4 * kGiB));
}

TEST(PoolMemoryTest, DonorsFilteredByMemory) {
  ContainerPool pool(/*capacity=*/4, 60.0, 600.0, /*memory_limit=*/16 * kGiB);
  Container* small = pool.Launch("small_fn", 0.0, 0.0, 1 * kGiB);
  small->state = ContainerState::kIdle;
  small->last_active = 0.0;
  Container* big = pool.Launch("big_fn", 0.0, 0.0, 8 * kGiB);
  big->state = ContainerState::kIdle;
  big->last_active = 0.0;

  // Unconstrained: both qualify after the idle threshold.
  EXPECT_EQ(pool.TransformCandidates("other", 100.0).size(), 2u);
  // Needing 2 GiB: only the big container can host the model.
  const auto candidates = pool.TransformCandidates("other", 100.0, 2 * kGiB);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->function, "big_fn");
}

TEST(FootprintTest, GrowsWithModelWeights) {
  const int64_t small = ContainerFootprintBytes(TinyMobileNet());
  const int64_t big = ContainerFootprintBytes(TinyVgg(19));
  EXPECT_GT(big, small);
  EXPECT_GT(small, 256LL << 20);  // At least the runtime baseline.
}

class MemorySimTest : public testing::Test {
 protected:
  MemorySimTest() {
    models_.push_back(TinyVgg(11));
    models_.push_back(TinyVgg(16));
    models_.push_back(TinyResNet(18));
    models_.push_back(TinyMobileNet());
    for (const Model& model : models_) {
      names_.push_back(model.name());
    }
    config_.system = SystemType::kOptimus;
    config_.num_nodes = 1;
    config_.containers_per_node = 8;
    config_.placement.kind = BalancerKind::kHash;
    config_.node_memory_bytes = 2 * kGiB;
    config_.uniform_container_bytes = 1 * kGiB;
  }

  Trace RoundRobinTrace(int rounds, double gap) {
    Trace trace;
    double t = 0.0;
    for (int round = 0; round < rounds; ++round) {
      for (const std::string& name : names_) {
        trace.push_back({t, name});
        t += gap;
      }
    }
    return trace;
  }

  std::vector<Model> models_;
  std::vector<std::string> names_;
  SimConfig config_;
  AnalyticCostModel costs_;
};

TEST_F(MemorySimTest, MemoryLimitCapsConcurrentContainers) {
  // 8 slots but only 2 GiB / 1 GiB-per-container: at most 2 containers, so a
  // 4-function round-robin can never keep everyone warm.
  const SimResult result = RunSimulation(models_, RoundRobinTrace(5, 90.0), config_, costs_);
  EXPECT_LT(result.FractionOf(StartType::kWarm), 0.55);
  // Without the memory cap the same workload stays mostly warm.
  SimConfig unlimited = config_;
  unlimited.node_memory_bytes = 0;
  const SimResult free_result =
      RunSimulation(models_, RoundRobinTrace(5, 90.0), unlimited, costs_);
  EXPECT_GT(free_result.FractionOf(StartType::kWarm),
            result.FractionOf(StartType::kWarm));
}

TEST_F(MemorySimTest, FineGrainedContainersFitMore) {
  // Tiny models have footprints well under 1 GiB, so fine-grained sizing fits
  // more containers into the same 2 GiB node and serves more warm starts.
  SimConfig fine = config_;
  fine.fine_grained_containers = true;
  const Trace trace = RoundRobinTrace(6, 90.0);
  const SimResult uniform_result = RunSimulation(models_, trace, config_, costs_);
  const SimResult fine_result = RunSimulation(models_, trace, fine, costs_);
  EXPECT_GT(fine_result.FractionOf(StartType::kWarm),
            uniform_result.FractionOf(StartType::kWarm));
  EXPECT_LT(fine_result.AvgServiceTime(), uniform_result.AvgServiceTime());
}

TEST_F(MemorySimTest, AllRequestsStillServedUnderMemoryPressure) {
  for (const bool fine_grained : {false, true}) {
    SimConfig config = config_;
    config.fine_grained_containers = fine_grained;
    const Trace trace = RoundRobinTrace(4, 45.0);
    const SimResult result = RunSimulation(models_, trace, config, costs_);
    EXPECT_EQ(result.total_requests, trace.size());
    EXPECT_EQ(result.CountOf(StartType::kWarm) + result.CountOf(StartType::kTransform) +
                  result.CountOf(StartType::kCold),
              trace.size());
  }
}

TEST_F(MemorySimTest, UniformContainerLargerThanNodeThrows) {
  SimConfig config = config_;
  config.uniform_container_bytes = 3 * kGiB;  // The node holds 2 GiB.
  const Trace trace = RoundRobinTrace(1, 10.0);
  EXPECT_THROW(RunSimulation(models_, trace, config, costs_), std::invalid_argument);
  // Fine-grained sizing ignores the uniform size; these tiny models fit.
  config.fine_grained_containers = true;
  EXPECT_NO_THROW(RunSimulation(models_, trace, config, costs_));
}

TEST_F(MemorySimTest, FineGrainedModelLargerThanNodeThrows) {
  int64_t largest = 0;
  for (const Model& model : models_) {
    largest = std::max(largest, ContainerFootprintBytes(model));
  }
  SimConfig config = config_;
  config.fine_grained_containers = true;
  config.node_memory_bytes = largest - 1;  // Every model but the largest fits.
  const Trace trace = RoundRobinTrace(1, 10.0);
  EXPECT_THROW(RunSimulation(models_, trace, config, costs_), std::invalid_argument);
  config.node_memory_bytes = largest;
  EXPECT_NO_THROW(RunSimulation(models_, trace, config, costs_));
}

TEST_F(MemorySimTest, UnusedModelLargerThanNodeDoesNotThrow) {
  // Only models some function serves must fit: a registered model the trace
  // never invokes gets no container.
  const auto largest = std::max_element(
      models_.begin(), models_.end(), [](const Model& a, const Model& b) {
        return ContainerFootprintBytes(a) < ContainerFootprintBytes(b);
      });
  SimConfig config = config_;
  config.fine_grained_containers = true;
  config.node_memory_bytes = ContainerFootprintBytes(*largest) - 1;
  Trace trace;
  for (const std::string& name : names_) {
    if (name != largest->name()) {
      trace.push_back({10.0 * static_cast<double>(trace.size()), name});
    }
  }
  ASSERT_EQ(trace.size(), models_.size() - 1);
  SimResult result;
  ASSERT_NO_THROW(result = RunSimulation(models_, trace, config, costs_));
  EXPECT_EQ(result.total_requests, trace.size());
}

TEST_F(MemorySimTest, PercentilesOrdered) {
  const SimResult result = RunSimulation(models_, RoundRobinTrace(5, 60.0), config_, costs_);
  const double p50 = result.ServiceTimePercentile(0.5);
  const double p95 = result.ServiceTimePercentile(0.95);
  const double p99 = result.ServiceTimePercentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 0.0);
}

}  // namespace
}  // namespace optimus
