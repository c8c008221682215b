#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include "src/workload/poisson.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

class SimulatorTest : public testing::Test {
 protected:
  SimulatorTest() {
    models_.push_back(TinyVgg(11));
    models_.push_back(TinyVgg(16));
    models_.push_back(TinyVgg(19));
    models_.push_back(TinyResNet(18));
    for (const Model& model : models_) {
      names_.push_back(model.name());
    }
    config_.num_nodes = 1;
    // Fewer container slots than functions, so some requests always find
    // their model missing — the regime where the systems differ.
    config_.containers_per_node = 2;
    config_.placement.kind = BalancerKind::kHash;
  }

  Trace SparseTrace() {
    // Arrivals spaced so containers go idle (>60 s) between requests.
    Trace trace;
    double t = 0.0;
    for (int round = 0; round < 6; ++round) {
      for (const std::string& name : names_) {
        trace.push_back({t, name});
        t += 90.0;
      }
    }
    return trace;
  }

  std::vector<Model> models_;
  std::vector<std::string> names_;
  SimConfig config_;
  AnalyticCostModel costs_;
};

TEST_F(SimulatorTest, EveryRequestServedExactlyOnce) {
  const Trace trace = SparseTrace();
  for (const SystemType system : {SystemType::kOpenWhisk, SystemType::kPagurus,
                                  SystemType::kTetris, SystemType::kOptimus}) {
    SimConfig config = config_;
    config.system = system;
    std::vector<RequestRecord> records;
    const SimResult result =
        RunSimulation(models_, trace, config, costs_, RecordByOrdinal(&records));
    ASSERT_EQ(result.total_requests, trace.size());
    ASSERT_EQ(records.size(), trace.size());
    for (const RequestRecord& record : records) {
      EXPECT_NE(record.function, kInvalidFunction);
      EXPECT_GE(record.wait, 0.0);
      EXPECT_GE(record.init, 0.0);
      EXPECT_GE(record.load, 0.0);
      EXPECT_GT(record.compute, 0.0);
    }
    EXPECT_EQ(result.CountOf(StartType::kWarm) + result.CountOf(StartType::kTransform) +
                  result.CountOf(StartType::kCold),
              trace.size());
  }
}

TEST_F(SimulatorTest, FirstRequestIsColdLaterOnesWarm) {
  // Two quick requests to the same function: cold then warm.
  const Trace trace = {{0.0, names_[0]}, {30.0, names_[0]}};
  config_.system = SystemType::kOpenWhisk;
  std::vector<RequestRecord> records;
  RunSimulation(models_, trace, config_, costs_, RecordByOrdinal(&records));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].start, StartType::kCold);
  EXPECT_EQ(records[1].start, StartType::kWarm);
  EXPECT_EQ(records[1].init, 0.0);
  EXPECT_EQ(records[1].load, 0.0);
}

TEST_F(SimulatorTest, KeepAliveExpiryForcesColdStart) {
  // Second request arrives after the 10-minute keep-alive: cold again.
  const Trace trace = {{0.0, names_[0]}, {700.0, names_[0]}};
  config_.system = SystemType::kOpenWhisk;
  std::vector<RequestRecord> records;
  RunSimulation(models_, trace, config_, costs_, RecordByOrdinal(&records));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].start, StartType::kCold);
}

TEST_F(SimulatorTest, OptimusTransformsWhereOpenWhiskColdStarts) {
  const Trace trace = SparseTrace();
  SimConfig openwhisk = config_;
  openwhisk.system = SystemType::kOpenWhisk;
  SimConfig optimus = config_;
  optimus.system = SystemType::kOptimus;
  const SimResult ow_result = RunSimulation(models_, trace, openwhisk, costs_);
  const SimResult op_result = RunSimulation(models_, trace, optimus, costs_);
  EXPECT_GT(op_result.CountOf(StartType::kTransform), 0u);
  EXPECT_LT(op_result.FractionOf(StartType::kCold), ow_result.FractionOf(StartType::kCold));
  EXPECT_LT(op_result.AvgServiceTime(), ow_result.AvgServiceTime());
}

TEST_F(SimulatorTest, SystemOrderingOnPoissonWorkload) {
  PoissonTraceOptions options;
  options.horizon_seconds = 2.0 * 3600;
  options.seed = 5;
  const Trace trace = GenerateMixedPoissonTrace(names_, options);
  double service[4] = {};
  for (const SystemType system : {SystemType::kOpenWhisk, SystemType::kPagurus,
                                  SystemType::kTetris, SystemType::kOptimus}) {
    SimConfig config = config_;
    config.system = system;
    service[static_cast<size_t>(system)] = RunSimulation(models_, trace, config, costs_)
                                               .AvgServiceTime();
  }
  // The paper's headline ordering: Optimus fastest, OpenWhisk slowest.
  EXPECT_LT(service[3], service[1]);  // Optimus < Pagurus.
  EXPECT_LE(service[1], service[0] + 1e-9);  // Pagurus <= OpenWhisk.
  EXPECT_LT(service[3], service[0]);  // Optimus < OpenWhisk.
}

TEST_F(SimulatorTest, SaturatedNodeQueuesRequests) {
  // One container, burst of simultaneous requests: later ones wait.
  SimConfig config = config_;
  config.system = SystemType::kOpenWhisk;
  config.containers_per_node = 1;
  // Arrivals spaced below the per-request compute time, so the backlog grows.
  const Trace trace = {{0.0, names_[0]}, {0.005, names_[0]}, {0.010, names_[0]}};
  std::vector<RequestRecord> records;
  RunSimulation(models_, trace, config, costs_, RecordByOrdinal(&records));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].wait, 0.0);
  EXPECT_GT(records[1].wait, 0.0);
  EXPECT_GT(records[2].wait, records[1].wait);
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  const Trace trace = SparseTrace();
  config_.system = SystemType::kOptimus;
  std::vector<RequestRecord> a;
  std::vector<RequestRecord> b;
  RunSimulation(models_, trace, config_, costs_, RecordByOrdinal(&a));
  RunSimulation(models_, trace, config_, costs_, RecordByOrdinal(&b));
  ASSERT_EQ(a.size(), trace.size());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ServiceTime(), b[i].ServiceTime());
    EXPECT_EQ(a[i].start, b[i].start);
  }
}

TEST_F(SimulatorTest, GpuProfileRaisesServiceTimeUnderColdStarts) {
  // §8.5: GPU serving has longer service time due to init/load overheads.
  const Trace trace = SparseTrace();
  SimConfig cpu = config_;
  cpu.system = SystemType::kOpenWhisk;
  SimConfig gpu = cpu;
  gpu.profile = SystemProfile::Gpu();
  EXPECT_GT(RunSimulation(models_, trace, gpu, costs_).AvgServiceTime(),
            RunSimulation(models_, trace, cpu, costs_).AvgServiceTime());
}

TEST_F(SimulatorTest, GreedyDualEvictionKeepsExpensiveModels) {
  // One slot contention between a cheap-to-reload and an expensive model:
  // greedy-dual should cold-start the expensive model less often than LRU
  // when the cheap one is the more recently used.
  SimConfig config = config_;
  config.system = SystemType::kOpenWhisk;
  config.containers_per_node = 2;
  // vgg19 (expensive) is used, then two cheaper functions churn the slots.
  Trace trace;
  double t = 0.0;
  for (int round = 0; round < 8; ++round) {
    trace.push_back({t, names_[2]});        // tiny_vgg19 (largest).
    trace.push_back({t + 30.0, names_[3]}); // tiny_resnet18.
    trace.push_back({t + 60.0, names_[0]}); // tiny_vgg11.
    t += 90.0;
  }
  SimConfig greedy = config;
  greedy.eviction = EvictionPolicy::kGreedyDual;
  const SimResult lru_result = RunSimulation(models_, trace, config, costs_);
  const SimResult gd_result = RunSimulation(models_, trace, greedy, costs_);
  EXPECT_EQ(lru_result.total_requests, trace.size());
  EXPECT_EQ(gd_result.total_requests, trace.size());
  EXPECT_LE(gd_result.AvgServiceTime(), lru_result.AvgServiceTime() + 1e-9);
}

TEST_F(SimulatorTest, ZeroContainersPerNodeThrows) {
  // A node with no container slots can never serve; the run must refuse
  // rather than leave every request queued.
  config_.containers_per_node = 0;
  const Trace trace = {{0.0, names_[0]}, {1.0, names_[1]}};
  EXPECT_THROW(RunSimulation(models_, trace, config_, costs_), std::invalid_argument);
}

TEST_F(SimulatorTest, UnknownFunctionThrows) {
  const Trace trace = {{0.0, "not_registered"}};
  EXPECT_THROW(RunSimulation(models_, trace, config_, costs_), std::runtime_error);
}

TEST_F(SimulatorTest, MultiNodePlacementRoutesAllRequests) {
  SimConfig config = config_;
  config.num_nodes = 2;
  config.system = SystemType::kOptimus;
  config.placement.kind = BalancerKind::kModelSharing;
  const Trace trace = SparseTrace();
  const SimResult result = RunSimulation(models_, trace, config, costs_);
  EXPECT_EQ(result.total_requests, trace.size());
}

TEST_F(SimulatorTest, AveragesConsistentWithRecords) {
  const Trace trace = SparseTrace();
  config_.system = SystemType::kPagurus;
  double total = 0.0;
  size_t observed = 0;
  const SimResult result =
      RunSimulation(models_, trace, config_, costs_, [&](const RequestRecord& record) {
        total += record.ServiceTime();
        ++observed;
      });
  ASSERT_EQ(observed, trace.size());
  EXPECT_NEAR(result.AvgServiceTime(), total / static_cast<double>(observed), 1e-9);
  EXPECT_NEAR(result.AvgServiceTime(),
              result.AvgWait() + result.AvgInit() + result.AvgLoad() + result.AvgCompute(), 1e-9);
}

}  // namespace
}  // namespace optimus
