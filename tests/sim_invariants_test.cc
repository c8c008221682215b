// Heavier cross-system simulator invariants under realistic workloads:
// conservation, causality, component bounds, determinism, and ordering
// properties that must hold for every system and workload combination.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/workload/azure.h"
#include "src/workload/poisson.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

struct SimCase {
  SystemType system;
  bool azure;
};

class SimInvariantsTest : public testing::TestWithParam<SimCase> {
 protected:
  static std::vector<Model> Models() {
    std::vector<Model> models;
    models.push_back(TinyVgg(11));
    models.push_back(TinyVgg(16));
    models.push_back(TinyVgg(19));
    models.push_back(TinyResNet(18));
    models.push_back(TinyResNet(34));
    models.push_back(TinyMobileNet());
    models.push_back(TinyBert(2, 64));
    models.push_back(TinyBert(4, 128));
    return models;
  }

  static Trace WorkloadFor(bool azure, const std::vector<Model>& models) {
    std::vector<std::string> names;
    for (const Model& model : models) {
      names.push_back(model.name());
    }
    if (azure) {
      AzureTraceOptions options;
      options.horizon_seconds = 3600.0;
      options.seed = 31;
      return GenerateAzureTrace(names, options);
    }
    PoissonTraceOptions options;
    options.horizon_seconds = 3600.0;
    options.seed = 31;
    return GenerateMixedPoissonTrace(names, options);
  }

  static SimConfig ConfigFor(SystemType system) {
    SimConfig config;
    config.system = system;
    config.num_nodes = 2;
    config.containers_per_node = 3;
    config.placement.kind = BalancerKind::kHash;
    return config;
  }

  // Checks that each record carries its own request's function: one
  // FunctionId per name in the trace, and distinct names get distinct ids.
  // records[i] must be trace[i]'s record. Returns each id's name.
  static std::map<FunctionId, std::string> CheckFunctionIds(
      const Trace& trace, const std::vector<RequestRecord>& records) {
    std::map<std::string, FunctionId> id_of;
    std::map<FunctionId, std::string> name_of;
    for (size_t i = 0; i < trace.size(); ++i) {
      const std::string& name = trace[i].function;
      const FunctionId id = records[i].function;
      EXPECT_NE(id, kInvalidFunction) << "request " << i;
      EXPECT_EQ(id_of.emplace(name, id).first->second, id) << "request " << i;
      EXPECT_EQ(name_of.emplace(id, name).first->second, name) << "request " << i;
    }
    return name_of;
  }
};

TEST_P(SimInvariantsTest, ConservationAndCausality) {
  const auto [system, azure] = GetParam();
  const auto models = Models();
  const Trace trace = WorkloadFor(azure, models);
  ASSERT_GT(trace.size(), 50u);
  AnalyticCostModel costs;
  std::vector<RequestRecord> records;
  const SimResult result =
      RunSimulation(models, trace, ConfigFor(system), costs, RecordByOrdinal(&records));

  // Every request is served exactly once, with its own function and arrival.
  ASSERT_EQ(result.total_requests, trace.size());
  ASSERT_EQ(records.size(), trace.size());
  CheckFunctionIds(trace, records);
  const SystemProfile profile;
  for (size_t i = 0; i < trace.size(); ++i) {
    const RequestRecord& record = records[i];
    EXPECT_DOUBLE_EQ(record.arrival, trace[i].arrival);
    // Causality: no negative phases.
    EXPECT_GE(record.wait, 0.0);
    EXPECT_GE(record.init, 0.0);
    EXPECT_GE(record.load, 0.0);
    EXPECT_GT(record.compute, 0.0);
    // Component bounds: init never exceeds a full cold init; warm starts pay
    // neither init nor load.
    EXPECT_LE(record.init, profile.InitCost() + 1e-9);
    if (record.start == StartType::kWarm) {
      EXPECT_EQ(record.init, 0.0);
      EXPECT_EQ(record.load, 0.0);
    }
  }
  // Start-type counts partition the request set.
  EXPECT_EQ(result.CountOf(StartType::kWarm) + result.CountOf(StartType::kTransform) +
                result.CountOf(StartType::kCold),
            trace.size());
}

TEST_P(SimInvariantsTest, LoadNeverExceedsScratchPlusTransfer) {
  // The safeguard guarantees the model-acquisition phase never exceeds a full
  // scratch load of the requested model (§4.4 worst case).
  const auto [system, azure] = GetParam();
  const auto models = Models();
  std::map<std::string, double> scratch;
  AnalyticCostModel costs;
  for (const Model& model : models) {
    scratch[model.name()] = costs.ScratchLoadCost(model);
  }
  const Trace trace = WorkloadFor(azure, models);
  std::vector<RequestRecord> records;
  RunSimulation(models, trace, ConfigFor(system), costs, RecordByOrdinal(&records));
  ASSERT_EQ(records.size(), trace.size());
  const std::map<FunctionId, std::string> name_of = CheckFunctionIds(trace, records);
  for (const RequestRecord& record : records) {
    const std::string& function = name_of.at(record.function);
    EXPECT_LE(record.load, scratch.at(function) + 1e-9) << function;
  }
}

TEST_P(SimInvariantsTest, DeterministicReplay) {
  const auto [system, azure] = GetParam();
  const auto models = Models();
  const Trace trace = WorkloadFor(azure, models);
  AnalyticCostModel costs;
  std::vector<RequestRecord> a;
  std::vector<RequestRecord> b;
  RunSimulation(models, trace, ConfigFor(system), costs, RecordByOrdinal(&a));
  RunSimulation(models, trace, ConfigFor(system), costs, RecordByOrdinal(&b));
  ASSERT_EQ(a.size(), trace.size());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].ServiceTime(), b[i].ServiceTime());
    EXPECT_EQ(a[i].start, b[i].start);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SystemsAndWorkloads, SimInvariantsTest,
    testing::Values(SimCase{SystemType::kOpenWhisk, false}, SimCase{SystemType::kOpenWhisk, true},
                    SimCase{SystemType::kPagurus, false}, SimCase{SystemType::kPagurus, true},
                    SimCase{SystemType::kTetris, false}, SimCase{SystemType::kTetris, true},
                    SimCase{SystemType::kOptimus, false}, SimCase{SystemType::kOptimus, true}));

TEST(SimOrderingTest, OptimusNeverLosesToOpenWhiskAcrossSeeds) {
  // The headline claim, swept over workload seeds: Optimus' average service
  // time is at most OpenWhisk's under container scarcity.
  std::vector<Model> models;
  models.push_back(TinyVgg(11));
  models.push_back(TinyVgg(16));
  models.push_back(TinyVgg(19));
  models.push_back(TinyResNet(18));
  models.push_back(TinyResNet(34));
  std::vector<std::string> names;
  for (const Model& model : models) {
    names.push_back(model.name());
  }
  AnalyticCostModel costs;
  for (const uint64_t seed : {1u, 7u, 21u, 99u}) {
    PoissonTraceOptions options;
    options.horizon_seconds = 3600.0;
    options.seed = seed;
    const Trace trace = GenerateMixedPoissonTrace(names, options);
    double service[2] = {};
    int i = 0;
    for (const SystemType system : {SystemType::kOpenWhisk, SystemType::kOptimus}) {
      SimConfig config;
      config.system = system;
      config.num_nodes = 1;
      config.containers_per_node = 2;
      config.placement.kind = BalancerKind::kHash;
      service[i++] = RunSimulation(models, trace, config, costs).AvgServiceTime();
    }
    EXPECT_LE(service[1], service[0] + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace optimus
