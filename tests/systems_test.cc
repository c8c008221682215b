#include "src/baselines/systems.h"

#include <gtest/gtest.h>

#include <deque>

#include "tests/test_util.h"

namespace optimus {
namespace {

class SystemsTest : public testing::Test {
 protected:
  SystemsTest() {
    repository_.emplace("tiny_vgg11", TinyVgg(11));
    repository_.emplace("tiny_vgg16", TinyVgg(16));
    repository_.emplace("tiny_vgg19", TinyVgg(19));
    repository_.emplace("bert", TinyBert(2, 64));
    for (const auto& [name, model] : repository_) {
      repository_ptrs_.emplace(name, &model);
    }
    context_.repository = &repository_ptrs_;
    context_.costs = &costs_;
    context_.profile = SystemProfile::Cpu();
  }

  // A request for `function` carrying its cost record under `profile` (the
  // profile of the policy that will serve it).
  StartupRequest RequestFor(const std::string& function, const SystemProfile& profile) {
    StartupRequest request;
    request.dest = &repository_.at(function);
    request.dest_costs = &records_.emplace_back(ModelCosts::Of(*request.dest, costs_, profile));
    return request;
  }
  StartupRequest RequestFor(const std::string& function) {
    return RequestFor(function, context_.profile);
  }

  Container MakeIdleContainer(const std::string& function, ContainerId id) {
    Container container;
    container.id = id;
    container.function = function;
    container.state = ContainerState::kIdle;
    return container;
  }

  AnalyticCostModel costs_;
  std::map<std::string, Model> repository_;
  std::map<std::string, const Model*> repository_ptrs_;
  std::deque<ModelCosts> records_;  // Stable addresses for the requests' records.
  PolicyContext context_;
};

TEST_F(SystemsTest, NamesAreStable) {
  EXPECT_STREQ(SystemTypeName(SystemType::kOpenWhisk), "OpenWhisk");
  EXPECT_STREQ(SystemTypeName(SystemType::kPagurus), "Pagurus");
  EXPECT_STREQ(SystemTypeName(SystemType::kTetris), "Tetris");
  EXPECT_STREQ(SystemTypeName(SystemType::kOptimus), "Optimus");
  EXPECT_STREQ(StartTypeName(StartType::kWarm), "Warm");
  EXPECT_STREQ(StartTypeName(StartType::kTransform), "Transform");
  EXPECT_STREQ(StartTypeName(StartType::kCold), "Cold");
}

TEST_F(SystemsTest, OpenWhiskAlwaysColdStarts) {
  auto policy = MakeStartupPolicy(SystemType::kOpenWhisk, context_);
  Container donor = MakeIdleContainer("tiny_vgg16", 1);
  StartupRequest request = RequestFor("tiny_vgg19");
  request.donors = {&donor};
  const StartupResult result = policy->Acquire(request);
  EXPECT_EQ(result.type, StartType::kCold);
  EXPECT_EQ(result.donor, nullptr);
  EXPECT_DOUBLE_EQ(result.init_seconds, context_.profile.InitCost());
  EXPECT_NEAR(result.load_seconds, costs_.ScratchLoadCost(repository_.at("tiny_vgg19")), 1e-9);
}

TEST_F(SystemsTest, PagurusRepurposesDonorButReloadsModel) {
  auto policy = MakeStartupPolicy(SystemType::kPagurus, context_);
  Container donor = MakeIdleContainer("tiny_vgg16", 1);
  StartupRequest request = RequestFor("tiny_vgg19");
  request.donors = {&donor};
  const StartupResult result = policy->Acquire(request);
  EXPECT_EQ(result.type, StartType::kTransform);
  EXPECT_EQ(result.donor, &donor);
  // Saves sandbox+runtime init...
  EXPECT_LT(result.init_seconds, context_.profile.InitCost());
  // ...but still pays the full model load (the paper's core critique).
  EXPECT_NEAR(result.load_seconds, costs_.ScratchLoadCost(repository_.at("tiny_vgg19")), 1e-9);
}

TEST_F(SystemsTest, PagurusColdStartsWithoutDonor) {
  auto policy = MakeStartupPolicy(SystemType::kPagurus, context_);
  const StartupResult result = policy->Acquire(RequestFor("tiny_vgg19"));
  EXPECT_EQ(result.type, StartType::kCold);
  EXPECT_DOUBLE_EQ(result.init_seconds, context_.profile.InitCost());
}

TEST_F(SystemsTest, TetrisSharesOnlyWithSameFunctionResident) {
  auto policy = MakeStartupPolicy(SystemType::kTetris, context_);
  // Same function resident (busy container): everything maps.
  StartupRequest shared = RequestFor("tiny_vgg19");
  shared.resident_functions = {"tiny_vgg19", "tiny_vgg16"};
  const StartupResult shared_result = policy->Acquire(shared);
  EXPECT_EQ(shared_result.type, StartType::kTransform);
  // Different functions only: nothing identical, full load.
  StartupRequest unshared = RequestFor("tiny_vgg19");
  unshared.resident_functions = {"tiny_vgg16", "bert"};
  const StartupResult unshared_result = policy->Acquire(unshared);
  EXPECT_EQ(unshared_result.type, StartType::kCold);
  EXPECT_GT(unshared_result.load_seconds, shared_result.load_seconds * 5);
}

TEST_F(SystemsTest, TetrisSharesRuntimeWhenNodeWarm) {
  auto policy = MakeStartupPolicy(SystemType::kTetris, context_);
  StartupRequest warm_node = RequestFor("tiny_vgg19");
  warm_node.resident_functions = {"bert"};
  StartupRequest cold_node = RequestFor("tiny_vgg19");
  EXPECT_LT(policy->Acquire(warm_node).init_seconds, policy->Acquire(cold_node).init_seconds);
}

TEST_F(SystemsTest, OptimusTransformsFromBestDonor) {
  auto policy = MakeStartupPolicy(SystemType::kOptimus, context_);
  Container far_donor = MakeIdleContainer("bert", 1);
  Container near_donor = MakeIdleContainer("tiny_vgg16", 2);
  StartupRequest request = RequestFor("tiny_vgg19");
  request.donors = {&far_donor, &near_donor};
  const StartupResult result = policy->Acquire(request);
  EXPECT_EQ(result.type, StartType::kTransform);
  EXPECT_EQ(result.donor, &near_donor);  // Structurally closer donor wins.
  EXPECT_DOUBLE_EQ(result.init_seconds, 0.0);
  EXPECT_LT(result.load_seconds, costs_.ScratchLoadCost(repository_.at("tiny_vgg19")));
}

TEST_F(SystemsTest, OptimusSafeguardFallsBackToScratchInDonor) {
  // Make a destination so small that transforming a big model into it costs
  // more than loading it from scratch.
  Model trivial("trivial", "test");
  const OpId in = trivial.AddOp(OpKind::kInput);
  const OpId out = trivial.AddOp(OpKind::kOutput);
  trivial.AddEdge(in, out);
  repository_.emplace("trivial", trivial);

  auto policy = MakeStartupPolicy(SystemType::kOptimus, context_);
  Container donor = MakeIdleContainer("tiny_vgg19", 1);
  StartupRequest request = RequestFor("trivial");
  request.donors = {&donor};
  const StartupResult result = policy->Acquire(request);
  // The donor container is still reused (no init), but the model loads from
  // scratch — counted as a cold model path.
  EXPECT_EQ(result.type, StartType::kCold);
  EXPECT_EQ(result.donor, &donor);
  EXPECT_DOUBLE_EQ(result.init_seconds, 0.0);
  EXPECT_NEAR(result.load_seconds, costs_.ScratchLoadCost(trivial), 1e-9);
}

TEST_F(SystemsTest, OptimusColdStartsWithoutDonors) {
  auto policy = MakeStartupPolicy(SystemType::kOptimus, context_);
  const StartupResult result = policy->Acquire(RequestFor("tiny_vgg19"));
  EXPECT_EQ(result.type, StartType::kCold);
  EXPECT_EQ(result.donor, nullptr);
  EXPECT_DOUBLE_EQ(result.init_seconds, context_.profile.InitCost());
}

TEST_F(SystemsTest, OptimusBeatsOtherPoliciesWithSimilarDonor) {
  Container donor = MakeIdleContainer("tiny_vgg16", 1);
  double latency[4] = {};
  for (const SystemType type : {SystemType::kOpenWhisk, SystemType::kPagurus,
                                SystemType::kTetris, SystemType::kOptimus}) {
    auto policy = MakeStartupPolicy(type, context_);
    StartupRequest request = RequestFor("tiny_vgg19");
    request.donors = {&donor};
    request.resident_functions = {"tiny_vgg16"};
    const StartupResult result = policy->Acquire(request);
    latency[static_cast<size_t>(type)] = result.init_seconds + result.load_seconds;
  }
  EXPECT_LT(latency[3], latency[1]);  // Optimus < Pagurus.
  EXPECT_LT(latency[1], latency[0]);  // Pagurus < OpenWhisk.
  EXPECT_LT(latency[3], latency[2]);  // Optimus < Tetris (no identical ops).
}

TEST_F(SystemsTest, GpuProfileRaisesColdStartCost) {
  PolicyContext gpu_context = context_;
  gpu_context.profile = SystemProfile::Gpu();
  auto cpu_policy = MakeStartupPolicy(SystemType::kOpenWhisk, context_);
  auto gpu_policy = MakeStartupPolicy(SystemType::kOpenWhisk, gpu_context);
  const StartupResult cpu = cpu_policy->Acquire(RequestFor("tiny_vgg19"));
  const StartupResult gpu = gpu_policy->Acquire(RequestFor("tiny_vgg19", gpu_context.profile));
  EXPECT_GT(gpu.init_seconds, cpu.init_seconds);
  EXPECT_GT(gpu.load_seconds, cpu.load_seconds);
}

}  // namespace
}  // namespace optimus
