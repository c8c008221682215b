#include "src/core/platform.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/runtime/inference.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

class PlatformTest : public testing::Test {
 protected:
  PlatformTest() : platform_(&costs_, DefaultOptions()) {}

  static PlatformOptions DefaultOptions() {
    PlatformOptions options;
    options.num_nodes = 1;
    options.containers_per_node = 2;
    return options;
  }

  AnalyticCostModel costs_;
  OptimusPlatform platform_;
  std::vector<float> input_ = std::vector<float>(8, 0.5f);
};

TEST_F(PlatformTest, DeployRejectsDuplicates) {
  platform_.Deploy("vgg", TinyVgg(11));
  EXPECT_THROW(platform_.Deploy("vgg", TinyVgg(16)), std::invalid_argument);
  EXPECT_EQ(platform_.NumFunctions(), 1u);
}

TEST_F(PlatformTest, InvokeUnknownFunctionIsTypedNotFound) {
  try {
    platform_.Invoke("nope", input_, 0.0);
    FAIL() << "expected OptimusError";
  } catch (const OptimusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kNotFound);
  }
  InvokeResult result;
  const Status status = platform_.TryInvoke("nope", input_, 0.0, &result);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(platform_.counters().failed_invokes, 2u);
}

TEST_F(PlatformTest, StaleTimestampsClampForward) {
  // Concurrent callers race between reading their timestamp and reaching the
  // platform, so an older `now` is clamped to the CAS-max clock, not rejected.
  platform_.Deploy("vgg", TinyVgg(11));
  platform_.Invoke("vgg", input_, 100.0);
  const InvokeResult stale = platform_.Invoke("vgg", input_, 50.0);
  // Served as if it arrived at t=100: the container is still warm.
  EXPECT_EQ(stale.start, StartType::kWarm);
  // The clock did not move backwards: at t=100+keep_alive the container has
  // expired (had the clamp regressed the clock, it would still be live).
  const InvokeResult late = platform_.Invoke("vgg", input_, 100.0 + 600.0);
  EXPECT_EQ(late.start, StartType::kCold);
}

TEST_F(PlatformTest, ColdThenWarm) {
  platform_.Deploy("vgg", TinyVgg(11));
  const InvokeResult first = platform_.Invoke("vgg", input_, 0.0);
  EXPECT_EQ(first.start, StartType::kCold);
  const InvokeResult second = platform_.Invoke("vgg", input_, 10.0);
  EXPECT_EQ(second.start, StartType::kWarm);
  // Same resident weights -> identical outputs.
  EXPECT_EQ(first.output, second.output);
  EXPECT_LT(second.estimated_latency, first.estimated_latency);
  EXPECT_EQ(platform_.WarmStarts(), 1u);
  EXPECT_EQ(platform_.ColdStarts(), 1u);
}

TEST_F(PlatformTest, KeepAliveExpiryForcesCold) {
  platform_.Deploy("vgg", TinyVgg(11));
  platform_.Invoke("vgg", input_, 0.0);
  const InvokeResult late = platform_.Invoke("vgg", input_, 1000.0);  // > 600s keep-alive.
  EXPECT_EQ(late.start, StartType::kCold);
  EXPECT_EQ(platform_.NumLiveContainers(), 1u);
}

TEST_F(PlatformTest, TransformationOnFullNode) {
  platform_.Deploy("vgg11", TinyVgg(11));
  platform_.Deploy("vgg16", TinyVgg(16));
  platform_.Deploy("vgg19", TinyVgg(19));
  // Fill both slots.
  platform_.Invoke("vgg11", input_, 0.0);
  platform_.Invoke("vgg16", input_, 1.0);
  // After the idle threshold, a third function must repurpose a donor.
  const InvokeResult result = platform_.Invoke("vgg19", input_, 120.0);
  EXPECT_EQ(result.start, StartType::kTransform);
  EXPECT_FALSE(result.donor_function.empty());
  EXPECT_EQ(platform_.Transforms(), 1u);
  EXPECT_EQ(platform_.NumLiveContainers(), 2u);
}

TEST_F(PlatformTest, FreeSlotPreferredOverDonor) {
  platform_.Deploy("vgg11", TinyVgg(11));
  platform_.Deploy("vgg16", TinyVgg(16));
  platform_.Invoke("vgg11", input_, 0.0);
  // One slot still free: cold start rather than consuming vgg11's container.
  const InvokeResult result = platform_.Invoke("vgg16", input_, 120.0);
  EXPECT_EQ(result.start, StartType::kCold);
  // vgg11 stays warm.
  EXPECT_EQ(platform_.Invoke("vgg11", input_, 121.0).start, StartType::kWarm);
}

TEST_F(PlatformTest, TransformedContainerServesDestinationFunction) {
  platform_.Deploy("vgg11", TinyVgg(11));
  platform_.Deploy("vgg16", TinyVgg(16));
  platform_.Deploy("vgg19", TinyVgg(19));
  platform_.Invoke("vgg11", input_, 0.0);
  platform_.Invoke("vgg16", input_, 1.0);
  const InvokeResult transformed = platform_.Invoke("vgg19", input_, 120.0);
  ASSERT_EQ(transformed.start, StartType::kTransform);

  // Reference output: what a dedicated scratch load of vgg19 would produce.
  AnalyticCostModel costs;
  OptimusPlatform reference(&costs, DefaultOptions());
  reference.Deploy("vgg19", TinyVgg(19));
  const InvokeResult scratch = reference.Invoke("vgg19", input_, 0.0);
  EXPECT_EQ(transformed.output, scratch.output);
}

TEST_F(PlatformTest, DeployFileRoundTrip) {
  const ModelFile file = SerializeModel(TinyMobileNet());
  platform_.DeployFile("mobilenet", file);
  const InvokeResult result = platform_.Invoke("mobilenet", input_, 0.0);
  EXPECT_EQ(result.output.size(), 1000u);
}

TEST_F(PlatformTest, PlanCacheWarmedAtDeploy) {
  platform_.Deploy("vgg11", TinyVgg(11));
  platform_.Deploy("vgg16", TinyVgg(16));
  EXPECT_TRUE(platform_.plan_cache().Contains("vgg11", "vgg16"));
  EXPECT_TRUE(platform_.plan_cache().Contains("vgg16", "vgg11"));
}

TEST_F(PlatformTest, LazyPlanningOptionSkipsWarmup) {
  PlatformOptions options = DefaultOptions();
  options.warm_plan_cache = false;
  AnalyticCostModel costs;
  OptimusPlatform lazy(&costs, options);
  lazy.Deploy("vgg11", TinyVgg(11));
  lazy.Deploy("vgg16", TinyVgg(16));
  EXPECT_EQ(lazy.plan_cache().Size(), 0u);
}

TEST_F(PlatformTest, MultiNodeRouting) {
  PlatformOptions options = DefaultOptions();
  options.num_nodes = 3;
  AnalyticCostModel costs;
  OptimusPlatform cluster(&costs, options);
  cluster.Deploy("vgg11", TinyVgg(11));
  cluster.Deploy("bert", TinyBert(2, 64));
  const InvokeResult a = cluster.Invoke("vgg11", input_, 0.0);
  const InvokeResult b = cluster.Invoke("bert", input_, 1.0);
  EXPECT_GE(a.node, 0);
  EXPECT_LT(a.node, 3);
  // Routing is sticky per function.
  EXPECT_EQ(cluster.Invoke("vgg11", input_, 2.0).node, a.node);
  (void)b;
}

TEST_F(PlatformTest, SafeguardCountsAsColdButReusesContainer) {
  // A trivial destination makes transformation lose to a scratch load.
  Model trivial("trivial_struct", "test");
  const OpId in = trivial.AddOp(OpKind::kInput);
  const OpId out = trivial.AddOp(OpKind::kOutput);
  trivial.AddEdge(in, out);

  platform_.Deploy("vgg16", TinyVgg(16));
  platform_.Deploy("vgg19", TinyVgg(19));
  platform_.Deploy("trivial", trivial);
  platform_.Invoke("vgg16", input_, 0.0);
  platform_.Invoke("vgg19", input_, 1.0);
  const InvokeResult result = platform_.Invoke("trivial", input_, 120.0);
  EXPECT_EQ(result.start, StartType::kCold);        // Safeguard path.
  EXPECT_EQ(platform_.NumLiveContainers(), 2u);     // No new container.
  EXPECT_FALSE(result.donor_function.empty());
}

TEST_F(PlatformTest, ArenaRecycledAcrossContainerGenerations) {
  // A dead container banks its arena as a node spare; the next cold start
  // reuses it instead of allocating fresh slabs (DESIGN.md §14).
  NodePool pool(/*num_nodes=*/1, /*containers_per_node=*/2);
  AnalyticCostModel costs;
  Loader loader(&costs);
  {
    NodePool::LockedNode node = pool.Lock(0);
    EXPECT_EQ(node.SpareArenas(), 0u);
    RealContainer container;
    container.id = pool.AllocateId();
    container.function = "vgg";
    container.instance =
        loader.Instantiate(TinyVgg(11), /*weight_seed=*/1, nullptr, nullptr, node.AcquireArena());
    node.Adopt(std::move(container));
    node.ReapExpired(/*now=*/1000.0, /*keep_alive=*/1.0);  // Kill the container.
    EXPECT_EQ(node.containers().size(), 0u);
    EXPECT_EQ(node.SpareArenas(), 1u);  // Arena banked, not freed.
  }
  {
    NodePool::LockedNode node = pool.Lock(0);
    const std::shared_ptr<TensorArena> recycled = node.AcquireArena();
    EXPECT_EQ(node.SpareArenas(), 0u);
    ASSERT_NE(recycled, nullptr);
    // The recycled arena keeps its reservation (slabs survive container
    // churn) but starts a fresh generation with nothing handed out.
    EXPECT_GT(recycled->elements_reserved(), 0);
    EXPECT_EQ(recycled->elements_used(), 0);
  }
}

// Leases (DESIGN.md §9): a request holds its node's lock only to lease a
// container, so a warm hit of one function completes while another function's
// scratch load, thousands of times longer, holds its lease on the same node.
TEST(PlatformLeaseTest, WarmHitOverlapsAnotherFunctionsScratchLoad) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 1;
  options.containers_per_node = 2;
  options.warm_plan_cache = false;
  OptimusPlatform platform(&costs, options);
  platform.Deploy("chain", SmallChain("chain", 3, 4));  // Warm hit: microseconds.
  platform.Deploy("resnet", TinyResNet(50));            // Scratch load: tens of ms.
  const std::vector<float> input(8, 0.5f);
  platform.Invoke("chain", input, 0.0);

  std::atomic<bool> loaded{false};
  std::thread cold([&] {
    EXPECT_EQ(platform.Invoke("resnet", input, 1.0).start, StartType::kCold);
    loaded.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool leased = false;
  while (!(leased = platform.LeasedContainers() == 1) && !loaded.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(leased) << "never saw the scratch load's lease";
  const InvokeResult warm = platform.Invoke("chain", input, 1.0);
  EXPECT_EQ(warm.start, StartType::kWarm);
  EXPECT_FALSE(loaded.load()) << "the warm hit waited for the scratch load";
  cold.join();
  EXPECT_EQ(platform.LeasedContainers(), 0u);
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
}

}  // namespace
}  // namespace optimus
