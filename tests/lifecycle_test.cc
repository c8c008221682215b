// Node lifecycle & churn resilience (DESIGN.md §16): the NodePool state
// machine, grace-window semantics, placement live-mask re-homing, the
// 30%-revocation storm E2E (zero lost/duplicated invokes, bounded
// re-convergence), gateway tenant admission + shedding, the fallback-ring
// dedupe regression, and the simulator's churn mirror.
//
// The whole file runs under TSan + OPTIMUS_LOCK_RANK=ON in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/node_pool.h"
#include "src/core/platform.h"
#include "src/gateway/service.h"
#include "src/placement/placement.h"
#include "src/sim/simulator.h"
#include "src/workload/trace.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

// --- NodePool state machine. ------------------------------------------------

TEST(NodePoolLifecycleTest, StateMachineTransitions) {
  NodePool pool(2, 2);
  EXPECT_EQ(pool.Lifecycle(0), NodeLifecycle::kUp);
  EXPECT_TRUE(pool.Accepting(0));
  EXPECT_EQ(pool.AcceptingNodes(), 2);

  // Up -> Draining with a grace window.
  EXPECT_TRUE(pool.RevokeNode(0, 30.0, 0.0));
  EXPECT_EQ(pool.Lifecycle(0), NodeLifecycle::kDraining);
  EXPECT_FALSE(pool.Accepting(0));
  EXPECT_EQ(pool.DrainingNodes(), 1);
  EXPECT_EQ(pool.Revocations(), 1u);
  // A second revoke of a draining node is a no-op.
  EXPECT_FALSE(pool.RevokeNode(0, 0.0, 0.0));

  // Inside the grace window the node is servable; past it, not.
  {
    NodePool::LockedNode node = pool.Lock(0);
    EXPECT_TRUE(node.Servable(10.0));
    EXPECT_FALSE(node.Servable(30.0));
  }
  // Finalization before the deadline does nothing…
  EXPECT_EQ(pool.FinalizeExpiredDrains(10.0), 0u);
  EXPECT_EQ(pool.Lifecycle(0), NodeLifecycle::kDraining);
  // …and at the deadline the node goes Down.
  pool.FinalizeExpiredDrains(30.0);
  EXPECT_EQ(pool.Lifecycle(0), NodeLifecycle::kDown);
  EXPECT_EQ(pool.DrainingNodes(), 0);
  EXPECT_EQ(pool.AcceptingNodes(), 1);

  // Down -> Reviving; reviving nodes accept routes again.
  EXPECT_TRUE(pool.ReviveNode(0));
  EXPECT_EQ(pool.Lifecycle(0), NodeLifecycle::kReviving);
  EXPECT_TRUE(pool.Accepting(0));
  EXPECT_EQ(pool.Revives(), 1u);

  // Zero grace kills on the spot: Up -> Down directly.
  EXPECT_TRUE(pool.RevokeNode(1, 0.0, 0.0));
  EXPECT_EQ(pool.Lifecycle(1), NodeLifecycle::kDown);
  EXPECT_EQ(pool.Revocations(), 2u);
}

TEST(NodePoolLifecycleTest, InvalidTransitionsRejected) {
  NodePool pool(2, 2);
  // Revive only applies to Down nodes.
  EXPECT_FALSE(pool.ReviveNode(0));
  ASSERT_TRUE(pool.RevokeNode(0, 0.0, 0.0));
  // Revoking a Down node is a no-op.
  EXPECT_FALSE(pool.RevokeNode(0, 10.0, 0.0));
  ASSERT_TRUE(pool.ReviveNode(0));
  // Reviving a Reviving node is a no-op.
  EXPECT_FALSE(pool.ReviveNode(0));
}

// --- Placement live mask. ---------------------------------------------------

TEST(PlacementLiveMaskTest, DeadNodeAssignmentsRehomeOverLiveRing) {
  const Placement assignment = {{"a", 0}, {"b", 1}, {"c", 2}};
  PlacementTable table(1, BalancerKind::kHash, 3, assignment, {0, 1, 1});
  EXPECT_FALSE(table.Live(0));
  EXPECT_TRUE(table.Live(1));
  EXPECT_EQ(table.live_nodes(), 2);
  // Dead node 0's function re-homes onto a live node; live assignments hold.
  const int rehomed = table.NodeOrHash("a");
  EXPECT_NE(rehomed, 0);
  EXPECT_TRUE(table.Live(rehomed));
  EXPECT_EQ(table.NodeOrHash("b"), 1);
  EXPECT_EQ(table.NodeOrHash("c"), 2);
  // Unknown functions hash onto the live ring only.
  for (int i = 0; i < 16; ++i) {
    const int node = table.NodeOrHash("unknown_" + std::to_string(i));
    EXPECT_NE(node, 0);
  }
}

TEST(PlacementLiveMaskTest, AllLiveMaskNormalizesToEmpty) {
  const Placement assignment = {{"a", 0}};
  PlacementTable table(1, BalancerKind::kHash, 2, assignment, {1, 1});
  EXPECT_TRUE(table.live_mask().empty());
  EXPECT_EQ(table.live_nodes(), 2);
}

// --- Platform lifecycle E2E. ------------------------------------------------

class PlatformLifecycleTest : public testing::Test {
 protected:
  static PlatformOptions Options(int num_nodes) {
    PlatformOptions options;
    options.num_nodes = num_nodes;
    options.containers_per_node = 2;
    options.warm_plan_cache = false;
    return options;
  }

  void Deploy(OptimusPlatform* platform) {
    platform->Deploy("vgg11", TinyVgg(11));
    platform->Deploy("vgg16", TinyVgg(16));
    platform->Deploy("mobilenet", TinyMobileNet());
    functions_ = {"vgg11", "vgg16", "mobilenet"};
  }

  std::vector<std::string> functions_;
  std::vector<float> input_ = std::vector<float>(8, 0.5f);
  AnalyticCostModel costs_;
};

TEST_F(PlatformLifecycleTest, RevokedNodeStopsRoutingAndReclaims) {
  OptimusPlatform platform(&costs_, Options(3));
  Deploy(&platform);
  // Warm every function so containers exist on their primary nodes.
  double now = 0.0;
  for (const std::string& function : functions_) {
    platform.Invoke(function, input_, now += 1.0);
  }
  const int victim = platform.Invoke(functions_[0], input_, now += 1.0).node;

  const size_t live_before = platform.NumLiveContainers();
  ASSERT_TRUE(platform.RevokeNode(victim, 0.0, now));
  // Zero grace: the node is Down, its containers reclaimed, and the
  // placement table republished with the node masked dead.
  EXPECT_EQ(platform.NodeState(victim), NodeLifecycle::kDown);
  EXPECT_FALSE(platform.PlacementSnapshot()->Live(victim));
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.node_revocations, 1u);
  EXPECT_EQ(counters.reclaimed_containers, live_before - platform.NumLiveContainers());
  EXPECT_EQ(platform.AcceptingNodes(), 2);

  // Every function keeps serving — demand re-homed onto the survivors.
  for (int round = 0; round < 3; ++round) {
    for (const std::string& function : functions_) {
      const InvokeResult result = platform.Invoke(function, input_, now += 1.0);
      EXPECT_NE(result.node, victim);
    }
  }
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
}

TEST_F(PlatformLifecycleTest, GracefulDrainReclaimsAtDeadline) {
  OptimusPlatform platform(&costs_, Options(3));
  Deploy(&platform);
  double now = 0.0;
  for (const std::string& function : functions_) {
    platform.Invoke(function, input_, now += 1.0);
  }
  const int victim = platform.Invoke(functions_[0], input_, now += 1.0).node;

  ASSERT_TRUE(platform.RevokeNode(victim, 60.0, now));
  EXPECT_EQ(platform.NodeState(victim), NodeLifecycle::kDraining);
  EXPECT_EQ(platform.DrainingNodes(), 1);
  // New routes skip the draining node immediately.
  for (const std::string& function : functions_) {
    EXPECT_NE(platform.Invoke(function, input_, now += 1.0).node, victim);
  }
  EXPECT_EQ(platform.NodeState(victim), NodeLifecycle::kDraining);

  // Once the grace window closes, the next invoke finalizes the drain.
  const size_t reclaimed_before = platform.counters().reclaimed_containers;
  now += 120.0;
  platform.Invoke(functions_[1], input_, now);
  EXPECT_EQ(platform.NodeState(victim), NodeLifecycle::kDown);
  EXPECT_EQ(platform.DrainingNodes(), 0);
  EXPECT_GT(platform.counters().reclaimed_containers, reclaimed_before);
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
}

TEST_F(PlatformLifecycleTest, ReviveRestoresAcceptingAndAdoptPromotesToUp) {
  OptimusPlatform platform(&costs_, Options(2));
  Deploy(&platform);
  double now = 0.0;
  for (const std::string& function : functions_) {
    platform.Invoke(function, input_, now += 1.0);
  }
  ASSERT_TRUE(platform.RevokeNode(0, 0.0, now));
  EXPECT_EQ(platform.AcceptingNodes(), 1);
  ASSERT_TRUE(platform.ReviveNode(0));
  EXPECT_EQ(platform.NodeState(0), NodeLifecycle::kReviving);
  EXPECT_EQ(platform.AcceptingNodes(), 2);
  EXPECT_TRUE(platform.PlacementSnapshot()->Live(0));
  EXPECT_EQ(platform.counters().node_revives, 1u);

  // Keep invoking until the revived node adopts a container: the first adopt
  // promotes Reviving -> Up.
  for (int i = 0; i < 32 && platform.NodeState(0) != NodeLifecycle::kUp; ++i) {
    for (const std::string& function : functions_) {
      platform.Invoke(function, input_, now += 90.0);
    }
  }
  EXPECT_EQ(platform.NodeState(0), NodeLifecycle::kUp);
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
}

// The acceptance storm: kill 30% of a 5-node pool at once, assert the
// cold-start rate re-converges within a bounded number of rebalance rounds,
// then revive and reconcile every lifecycle counter.
TEST_F(PlatformLifecycleTest, ThirtyPercentStormReconvergesWithinBoundedRounds) {
  OptimusPlatform platform(&costs_, Options(5));
  Deploy(&platform);

  // Warm the placement: invoke each function until a full round is all-warm.
  double now = 0.0;
  for (int round = 0; round < 8; ++round) {
    bool all_warm = true;
    for (const std::string& function : functions_) {
      all_warm &= platform.Invoke(function, input_, now += 1.0).start == StartType::kWarm;
    }
    if (all_warm) break;
  }

  // Kill ceil(0.3 * 5) = 2 nodes, zero grace.
  const int kills = 2;
  int killed = 0;
  for (int node = 0; node < 5 && killed < kills; ++node) {
    if (platform.RevokeNode(node, 0.0, now)) ++killed;
  }
  ASSERT_EQ(killed, kills);
  EXPECT_EQ(platform.AcceptingNodes(), 3);

  // Bounded convergence: within K rounds after the storm every request is
  // warm again (the re-homed placement has re-warmed the survivors).
  const int kConvergenceRounds = 4;
  int warm_round = -1;
  for (int round = 0; round < kConvergenceRounds; ++round) {
    bool all_warm = true;
    for (const std::string& function : functions_) {
      const InvokeResult result = platform.Invoke(function, input_, now += 1.0);
      all_warm &= result.start == StartType::kWarm;
    }
    if (all_warm) {
      warm_round = round;
      break;
    }
  }
  EXPECT_GE(warm_round, 0) << "cold-start rate did not recover within "
                           << kConvergenceRounds << " rounds";

  // Revive the dead nodes; counters reconcile and integrity holds.
  size_t revived = 0;
  for (int node = 0; node < 5; ++node) {
    if (platform.NodeState(node) == NodeLifecycle::kDown && platform.ReviveNode(node)) {
      ++revived;
    }
  }
  EXPECT_EQ(revived, static_cast<size_t>(kills));
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.node_revocations, static_cast<size_t>(kills));
  EXPECT_EQ(counters.node_revives, revived);
  EXPECT_EQ(counters.draining_nodes, 0);
  EXPECT_EQ(counters.accepting_nodes, 5);
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
}

// Concurrent storm under TSan: invoker threads race scheduled revokes and
// revives. Zero lost or duplicated invokes — every request is exactly one
// success or one retryable UNAVAILABLE — and the pool is whole afterwards.
TEST_F(PlatformLifecycleTest, ConcurrentStormLosesNoInvokes) {
  OptimusPlatform platform(&costs_, Options(5));
  Deploy(&platform);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> ok{0};
  std::atomic<int> unavailable{0};
  std::atomic<long> ticks{0};

  std::vector<std::thread> invokers;
  invokers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    invokers.emplace_back([&, t] {
      Rng rng(0x57072 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const std::string& function = functions_[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(functions_.size()) - 1))];
        const double now = static_cast<double>(ticks.fetch_add(1)) * 0.5;
        InvokeResult result;
        const Status status = platform.TryInvoke(function, input_, now, &result);
        if (status.ok()) {
          ok.fetch_add(1);
        } else {
          // Churn may only surface as the retryable code.
          EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status.message();
          unavailable.fetch_add(1);
        }
      }
    });
  }

  // Storm driver: kill/revive 30% (nodes 0 and 1) in cycles while the
  // invokers run. Mixed grace exercises both reclaim paths.
  for (int cycle = 0; cycle < 4; ++cycle) {
    const double now = static_cast<double>(ticks.fetch_add(1)) * 0.5;
    platform.RevokeNode(0, 0.0, now);
    platform.RevokeNode(1, 5.0, now);
    std::this_thread::yield();
    for (int node = 0; node < 2; ++node) {
      if (platform.NodeState(node) == NodeLifecycle::kDown) {
        platform.ReviveNode(node);
      }
    }
  }
  for (std::thread& thread : invokers) {
    thread.join();
  }

  // Settle: revive stragglers, then let one far-future invoke finalize any
  // outstanding drain.
  for (int node = 0; node < 5; ++node) {
    if (platform.NodeState(node) == NodeLifecycle::kDown) {
      ASSERT_TRUE(platform.ReviveNode(node));
    }
  }
  const double settle = static_cast<double>(ticks.fetch_add(1)) * 0.5 + 1000.0;
  platform.Invoke(functions_[0], input_, settle);

  EXPECT_EQ(ok.load() + unavailable.load(), kThreads * kPerThread);
  const PlatformCounters counters = platform.counters();
  // Start counters count exactly the successes (+1 for the settling invoke):
  // nothing lost, nothing double-counted.
  EXPECT_EQ(counters.warm_starts + counters.transforms + counters.cold_starts,
            static_cast<size_t>(ok.load()) + 1);
  EXPECT_EQ(counters.failed_invokes, static_cast<size_t>(unavailable.load()));
  EXPECT_EQ(counters.draining_nodes, 0);
  EXPECT_EQ(counters.accepting_nodes, 5);
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
}

// Regression (small pools): with route_fallback_breadth larger than the
// pool, the fallback ring must not revisit nodes — bounded lock work per
// invoke, even under capacity pressure.
TEST_F(PlatformLifecycleTest, FallbackRingNeverRevisitsNodesOnSmallPools) {
  PlatformOptions options = Options(2);
  options.containers_per_node = 1;  // Constant capacity pressure.
  options.route_fallback_breadth = 5;
  OptimusPlatform platform(&costs_, options);
  Deploy(&platform);

  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    const std::string& function = functions_[static_cast<size_t>(i) % functions_.size()];
    const uint64_t locks_before = platform.NodeLockAcquisitions();
    platform.Invoke(function, input_, now += 90.0);
    const uint64_t locks = platform.NodeLockAcquisitions() - locks_before;
    // At most: the primary, each *distinct* neighbor once, and the adopt
    // re-lock. A duplicate-probing ring would exceed this on 2 nodes.
    EXPECT_LE(locks, 3u) << "invoke " << i << " took " << locks << " node locks";
  }
}

// A zero-grace revoke marks the node Down at once, then waits for its
// outstanding leases: a scratch load in flight on the node completes and
// succeeds, and only then is its container reclaimed.
TEST_F(PlatformLifecycleTest, ZeroGraceRevokeWaitsForOutstandingLease) {
  OptimusPlatform platform(&costs_, Options(2));
  platform.Deploy("resnet", TinyResNet(50));  // A scratch load of tens of ms.
  const int node = platform.placement().Route("resnet");
  const size_t reclaimed_before = platform.counters().reclaimed_containers;

  InvokeResult result;
  Status status;
  std::atomic<bool> served{false};
  std::thread cold([&] {
    status = platform.TryInvoke("resnet", input_, 1.0, &result);
    served.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (platform.LeasedContainers() != 1 && !served.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(served.load()) << "the scratch load finished before the revoke";
  std::thread revoker([&] { EXPECT_TRUE(platform.RevokeNode(node, 0.0, 1.0)); });
  revoker.join();
  cold.join();

  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(result.start, StartType::kCold);
  EXPECT_EQ(result.node, node);
  EXPECT_EQ(platform.NodeState(node), NodeLifecycle::kDown);
  EXPECT_EQ(platform.NumLiveContainers(), 0u);
  EXPECT_EQ(platform.counters().reclaimed_containers, reclaimed_before + 1);
  EXPECT_EQ(platform.LeasedContainers(), 0u);
}

// node.revoke fault: the routed node dies mid-invoke; the request fails
// retryable and the revocation is real (counted, mask updated).
TEST_F(PlatformLifecycleTest, RevokeFaultFailsRetryableAndRevokes) {
  OptimusPlatform platform(&costs_, Options(3));
  Deploy(&platform);
  platform.Invoke(functions_[0], input_, 1.0);

  fault::ScopedFaults faults("node.revoke=once");
  InvokeResult result;
  const Status status = platform.TryInvoke(functions_[0], input_, 2.0, &result);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(platform.counters().node_revocations, 1u);
  EXPECT_EQ(platform.AcceptingNodes(), 2);
  // The very next attempt re-homes and succeeds.
  EXPECT_TRUE(platform.TryInvoke(functions_[0], input_, 3.0, &result).ok());
}

// Churn re-solves read the demand history as it stands: a revoke and a
// revive re-cluster twice but close no slot, so the warming forecaster never
// reads them as quiet slots.
class ChurnDemandTest : public testing::Test {
 protected:
  // Warming on, with two manual cycles after one invoke each: the demand
  // accumulator holds two closed slots.
  ChurnDemandTest() : platform_(&costs_, Options()) {
    platform_.Deploy("vgg11", TinyVgg(11));
    const std::vector<float> input(8, 0.5f);
    platform_.Invoke("vgg11", input, 1.0);
    platform_.WarmNow(2.0);
    platform_.Invoke("vgg11", input, 3.0);
    platform_.WarmNow(4.0);
  }

  static PlatformOptions Options() {
    PlatformOptions options;
    options.num_nodes = 2;
    options.containers_per_node = 2;
    options.warm_plan_cache = false;
    options.warming.enabled = true;
    options.warming.interval = 0.0;  // Cycles only via explicit WarmNow().
    return options;
  }

  AnalyticCostModel costs_;
  OptimusPlatform platform_;
};

TEST_F(ChurnDemandTest, ChurnClosesNoDemandSlot) {
  ASSERT_EQ(platform_.placement().DemandSlots(), 2u);
  const std::map<std::string, DemandSeries> history = platform_.placement().DemandHistory();
  const size_t rebalances = platform_.placement().Rebalances();

  ASSERT_TRUE(platform_.RevokeNode(1, 0.0, 5.0));
  ASSERT_TRUE(platform_.ReviveNode(1));
  EXPECT_EQ(platform_.placement().DemandSlots(), 2u);
  EXPECT_EQ(platform_.placement().DemandHistory(), history);
  EXPECT_EQ(platform_.placement().Rebalances(), rebalances + 2);
}

// With warming on, warming cycles alone close demand slots: an operator's
// rebalance between two cycles re-solves without recording a short slot the
// forecaster would read as a quiet interval.
TEST_F(ChurnDemandTest, ManualRebalanceWithWarmingClosesNoSlot) {
  ASSERT_EQ(platform_.placement().DemandSlots(), 2u);
  const std::map<std::string, DemandSeries> history = platform_.placement().DemandHistory();
  const size_t rebalances = platform_.placement().Rebalances();

  EXPECT_TRUE(platform_.RebalanceNow("manual"));
  EXPECT_EQ(platform_.placement().DemandSlots(), 2u);
  EXPECT_EQ(platform_.placement().DemandHistory(), history);
  EXPECT_EQ(platform_.placement().Rebalances(), rebalances + 1);
}

// --- Gateway: tenant admission and shedding. --------------------------------

class TenantGatewayTest : public testing::Test {
 protected:
  static PlatformOptions PlatformOpts() {
    PlatformOptions options;
    options.num_nodes = 2;
    options.containers_per_node = 2;
    options.warm_plan_cache = false;
    return options;
  }

  static GatewayOptions GatewayOpts() {
    GatewayOptions gateway;
    gateway.tenant_rate = 2.0;  // 2 tokens/sec, burst 2.
    return gateway;
  }

  HttpResponse Invoke(OptimusHttpService* service, const std::string& tenant) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/invoke";
    request.query["name"] = "vgg11";
    if (!tenant.empty()) {
      request.query["tenant"] = tenant;
    }
    request.body = "0.5,0.5,0.5,0.5";
    return service->Handle(request);
  }

  AnalyticCostModel costs_;
  double virtual_time_ = 0.0;
};

TEST_F(TenantGatewayTest, QuotaExhaustionGets429WithRetryAfter) {
  OptimusHttpService service(&costs_, PlatformOpts(), GatewayOpts(),
                             [this] { return virtual_time_; });
  service.platform().Deploy("vgg11", TinyVgg(11));

  // Burst of 2 admitted; the third is over quota.
  EXPECT_EQ(Invoke(&service, "alice").status, 200);
  EXPECT_EQ(Invoke(&service, "alice").status, 200);
  const HttpResponse rejected = Invoke(&service, "alice");
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.body.find("\"error\""), std::string::npos);
  EXPECT_NE(rejected.body.find("RESOURCE_EXHAUSTED"), std::string::npos);
  ASSERT_TRUE(rejected.headers.count("Retry-After"));
  EXPECT_GE(std::stoi(rejected.headers.at("Retry-After")), 1);

  // After the advertised wait the bucket has refilled.
  virtual_time_ += 1.0;
  EXPECT_EQ(Invoke(&service, "alice").status, 200);
}

TEST_F(TenantGatewayTest, SaturatingTenantDoesNotDegradeOthers) {
  OptimusHttpService service(&costs_, PlatformOpts(), GatewayOpts(),
                             [this] { return virtual_time_; });
  service.platform().Deploy("vgg11", TinyVgg(11));

  // Tenant A floods far past its quota; tenant B trickles within quota.
  size_t a_ok = 0, a_rejected = 0, b_ok = 0, b_rejected = 0;
  for (int second = 0; second < 5; ++second) {
    virtual_time_ = static_cast<double>(second);
    for (int burst = 0; burst < 10; ++burst) {
      const int status = Invoke(&service, "alice").status;
      (status == 200 ? a_ok : a_rejected) += 1;
    }
    const int status = Invoke(&service, "bob").status;
    (status == 200 ? b_ok : b_rejected) += 1;
  }
  // A is throttled to roughly its rate; B sees zero errors — its quota is
  // its own, and A's rejected burst never consumed gateway capacity.
  EXPECT_GT(a_rejected, a_ok);
  EXPECT_EQ(b_rejected, 0u);
  EXPECT_EQ(b_ok, 5u);

  // Per-tenant telemetry: rejections charged to A only.
  auto& metrics = service.platform().metrics();
  EXPECT_GT(metrics.GetCounter("optimus_gateway_tenant_rejections_total",
                               {{"tenant", "alice"}}).Value(), 0.0);
  EXPECT_EQ(metrics.GetCounter("optimus_gateway_tenant_rejections_total",
                               {{"tenant", "bob"}}).Value(), 0.0);
  EXPECT_EQ(metrics.GetCounter("optimus_gateway_tenant_requests_total",
                               {{"tenant", "bob"}}).Value(), 5.0);
}

TEST_F(TenantGatewayTest, RequestsWithoutTenantBypassAdmission) {
  GatewayOptions gateway = GatewayOpts();
  gateway.tenant_rate = 0.5;  // Severe quota — but only for attributed requests.
  OptimusHttpService service(&costs_, PlatformOpts(), gateway,
                             [this] { return virtual_time_; });
  service.platform().Deploy("vgg11", TinyVgg(11));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(Invoke(&service, "").status, 200);
  }
}

TEST_F(TenantGatewayTest, QuotaFaultForcesRejection) {
  OptimusHttpService service(&costs_, PlatformOpts(), GatewayOpts(),
                             [this] { return virtual_time_; });
  service.platform().Deploy("vgg11", TinyVgg(11));
  fault::ScopedFaults faults("tenant.quota_exhausted=once");
  // The bucket is full, but the injected fault forces the 429 path.
  EXPECT_EQ(Invoke(&service, "alice").status, 429);
  EXPECT_EQ(Invoke(&service, "alice").status, 200);
}

// Concurrent saturation: with the inflight cap at 2 and every invoke held
// open by the gateway.slow fault, most of a 12-thread volley must shed.
// Exactly-once accounting: every request is one 200 or one 429, the sheds
// counter matches the 429s, and the platform served exactly the 200s.
TEST(GatewayShedTest, ConcurrentSaturationShedsExactlyOnce) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 1;
  options.containers_per_node = 2;
  GatewayOptions gateway;
  gateway.max_inflight_invokes = 2;
  gateway.slow_fault_delay = 0.05;
  OptimusHttpService service(&costs, options, gateway);
  service.platform().Deploy("vgg11", TinyVgg(11));
  // Pre-warm so concurrent invokes take the fast path.
  {
    HttpRequest request;
    request.method = "POST";
    request.path = "/invoke";
    request.query["name"] = "vgg11";
    request.body = "0.5,0.5";
    ASSERT_EQ(service.Handle(request).status, 200);
  }

  fault::ScopedFaults faults("gateway.slow=always");
  constexpr int kThreads = 12;
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      HttpRequest request;
      request.method = "POST";
      request.path = "/invoke";
      request.query["name"] = "vgg11";
      request.body = "0.5,0.5";
      const HttpResponse response = service.Handle(request);
      if (response.status == 200) {
        served.fetch_add(1);
      } else if (response.status == 429) {
        // Shed responses carry the JSON error envelope.
        EXPECT_NE(response.body.find("\"error\""), std::string::npos);
        EXPECT_NE(response.body.find("RESOURCE_EXHAUSTED"), std::string::npos);
        shed.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(served.load() + shed.load(), kThreads);
  EXPECT_GT(shed.load(), 0);
  // One shed increments the counter exactly once, and a shed request never
  // reaches the platform: successes reconcile with the start counters
  // (+1 pre-warm invoke).
  EXPECT_EQ(service.Sheds(), static_cast<size_t>(shed.load()));
  const PlatformCounters counters = service.platform().counters();
  EXPECT_EQ(counters.warm_starts + counters.transforms + counters.cold_starts,
            static_cast<size_t>(served.load()) + 1);
}

// --- Gateway: health and admin routes. --------------------------------------

TEST(GatewayAdminTest, HealthzReportsLifecycleAndDrainRouteRevokes) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 2;
  options.containers_per_node = 2;
  double virtual_time = 0.0;
  OptimusHttpService service(&costs, options, GatewayOptions{},
                             [&virtual_time] { return virtual_time; });
  service.platform().Deploy("vgg11", TinyVgg(11));

  HttpRequest healthz;
  healthz.method = "GET";
  healthz.path = "/healthz";
  HttpResponse response = service.Handle(healthz);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"accepting\":2"), std::string::npos);

  // Drain node 1 with an explicit zero grace, then verify /healthz degrades.
  HttpRequest drain;
  drain.method = "POST";
  drain.path = "/nodes/1/drain";
  drain.query["grace"] = "0";
  response = service.Handle(drain);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(service.platform().NodeState(1), NodeLifecycle::kDown);

  response = service.Handle(healthz);
  EXPECT_NE(response.body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(response.body.find("\"down\""), std::string::npos);

  // Revive over the admin route.
  HttpRequest revive;
  revive.method = "POST";
  revive.path = "/nodes/1/revive";
  response = service.Handle(revive);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(service.platform().NodeState(1), NodeLifecycle::kReviving);

  // Bad node ids: malformed -> 400, out of range -> 404.
  HttpRequest bad;
  bad.method = "POST";
  bad.path = "/nodes/x/drain";
  EXPECT_EQ(service.Handle(bad).status, 400);
  bad.path = "/nodes/7/drain";
  EXPECT_EQ(service.Handle(bad).status, 404);
}

// --- Simulator churn mirror. ------------------------------------------------

class SimChurnTest : public testing::Test {
 protected:
  SimChurnTest() {
    models_.push_back(TinyVgg(11));
    models_.push_back(TinyVgg(16));
    models_.push_back(TinyMobileNet());
    for (const Model& model : models_) {
      names_.push_back(model.name());
    }
    config_.num_nodes = 2;
    config_.containers_per_node = 2;
    config_.placement.kind = BalancerKind::kHash;
  }

  Trace SteadyTrace(double horizon, double gap) {
    Trace trace;
    double t = 0.0;
    while (t < horizon) {
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

TEST_F(SimChurnTest, ChurnServesEveryRequestAndAccounts) {
  const Trace trace = SteadyTrace(600.0, 20.0);
  config_.churn.push_back({150.0, 0, false, 0.0});   // Kill node 0.
  config_.churn.push_back({400.0, 0, true, 0.0});    // Revive it.
  const SimResult result = RunSimulation(models_, trace, config_, costs_);
  // Zero lost/duplicated: every arrival was served exactly once.
  EXPECT_EQ(result.total_requests, trace.size());
  EXPECT_EQ(result.failed_requests, 0u);
  EXPECT_EQ(result.CountOf(StartType::kWarm) + result.CountOf(StartType::kTransform) +
                result.CountOf(StartType::kCold),
            trace.size());
  EXPECT_EQ(result.revocations, 1u);
  EXPECT_EQ(result.revives, 1u);
  // Kill + revive each re-cluster once.
  EXPECT_EQ(result.churn_rebalances, 2u);
}

TEST_F(SimChurnTest, GracefulDrainReclaimsAfterWindow) {
  const Trace trace = SteadyTrace(600.0, 20.0);
  config_.churn.push_back({100.0, 1, false, 80.0});  // Drain with grace.
  const SimResult result = RunSimulation(models_, trace, config_, costs_);
  EXPECT_EQ(result.total_requests, trace.size());
  EXPECT_EQ(result.revocations, 1u);
  EXPECT_EQ(result.revives, 0u);
}

TEST_F(SimChurnTest, ChurnRunsAreDeterministic) {
  const Trace trace = SteadyTrace(500.0, 15.0);
  config_.churn.push_back({120.0, 0, false, 50.0});
  config_.churn.push_back({300.0, 0, true, 0.0});
  std::vector<RequestRecord> a_records;
  std::vector<RequestRecord> b_records;
  const SimResult a = RunSimulation(models_, trace, config_, costs_, RecordByOrdinal(&a_records));
  const SimResult b = RunSimulation(models_, trace, config_, costs_, RecordByOrdinal(&b_records));
  ASSERT_EQ(a.total_requests, trace.size());
  ASSERT_EQ(a_records.size(), b_records.size());
  for (size_t i = 0; i < a_records.size(); ++i) {
    EXPECT_EQ(a_records[i].function, b_records[i].function);
    EXPECT_DOUBLE_EQ(a_records[i].ServiceTime(), b_records[i].ServiceTime());
    EXPECT_EQ(a_records[i].start, b_records[i].start);
  }
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.reclaimed_containers, b.reclaimed_containers);
  EXPECT_EQ(a.rehomed_requests, b.rehomed_requests);
  EXPECT_EQ(a.churn_rebalances, b.churn_rebalances);
}

// A total outage (DESIGN.md §16): the only node is revoked at 250 s and never
// revived. Requests routed to it still start while it is servable, which with
// grace lasts until the window closes, as live; the rest fail.
TEST_F(SimChurnTest, TotalOutageFailsWhatTheNodeCannotServe) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back({100.0 * i, names_[0]});
  }
  config_.num_nodes = 1;
  for (const auto& [grace, served] : {std::pair{0.0, 3u}, std::pair{200.0, 5u}}) {
    SimConfig config = config_;
    config.churn.push_back({250.0, 0, false, grace});
    const SimResult result = RunSimulation(models_, trace, config, costs_);
    EXPECT_EQ(result.total_requests, served) << "grace " << grace;
    EXPECT_EQ(result.failed_requests, trace.size() - served) << "grace " << grace;
    EXPECT_EQ(result.revocations, 1u);
    EXPECT_EQ(result.reclaimed_containers, 1u);
  }
}

// In a total outage, a request still queued on the draining node when its
// window closes has not started: it fails with the node rather than starting
// there once the reclaimed container's completion fires.
TEST_F(SimChurnTest, RequestQueuedPastDrainDeadlineFails) {
  config_.num_nodes = 1;
  config_.containers_per_node = 1;
  config_.churn.push_back({100.0, 0, false, 50.0});  // Draining until 150 s.
  const Trace trace = {{149.0, names_[0]}, {149.5, names_[1]}};
  const SimResult result = RunSimulation(models_, trace, config_, costs_);
  EXPECT_EQ(result.total_requests, 1u);
  EXPECT_EQ(result.failed_requests, 1u);
  EXPECT_EQ(result.rehomed_requests, 1u);
}

// The node_down re-solve fails (hit 1 is the initial solve, hit 3 node_up).
// As live, the table republished under the new mask keeps routing, so node
// 0's functions re-home onto node 1 and nothing is lost.
TEST_F(SimChurnTest, FailedChurnResolveKeepsMaskTableRouting) {
  const Trace trace = SteadyTrace(600.0, 20.0);
  config_.churn.push_back({150.0, 0, false, 0.0});
  config_.churn.push_back({400.0, 0, true, 0.0});
  fault::ScopedFaults faults("placement.rebalance=at:2");
  const SimResult result = RunSimulation(models_, trace, config_, costs_);
  EXPECT_EQ(fault::Fires("placement.rebalance"), 1u);
  EXPECT_EQ(result.total_requests, trace.size());
  EXPECT_EQ(result.failed_requests, 0u);
  EXPECT_EQ(result.revocations, 1u);
  EXPECT_EQ(result.revives, 1u);
  EXPECT_EQ(result.churn_rebalances, 1u);
}

TEST_F(SimChurnTest, ChurnFreeConfigMatchesBaselineCounters) {
  const Trace trace = SteadyTrace(300.0, 30.0);
  const SimResult result = RunSimulation(models_, trace, config_, costs_);
  EXPECT_EQ(result.revocations, 0u);
  EXPECT_EQ(result.revives, 0u);
  EXPECT_EQ(result.reclaimed_containers, 0u);
  EXPECT_EQ(result.rehomed_requests, 0u);
  EXPECT_EQ(result.churn_rebalances, 0u);
}

}  // namespace
}  // namespace optimus
