// Stress tests for the concurrent control path: the ThreadPool, the sharded
// PlanCache with its planning-in-flight latches, OptimusPlatform under
// parallel Invoke()/Deploy(), and the HTTP gateway's worker pool. CI runs
// this suite under TSan, which is what turns these from smoke tests into an
// enforceable thread-safety claim.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/plan_cache.h"
#include "src/core/platform.h"
#include "src/gateway/service.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

constexpr int kThreads = 8;

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsTaskValues) {
  ThreadPool pool(2);
  auto square = pool.Submit([](int x) { return x * x; }, 7);
  EXPECT_EQ(square.get(), 49);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto failing = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

// --- PlanCache ----------------------------------------------------------------

TEST(ConcurrencyPlanCacheTest, RacingThreadsPlanEachPairExactlyOnce) {
  AnalyticCostModel costs;
  PlanCache cache(&costs);
  const Model vgg11 = TinyVgg(11);
  const Model vgg16 = TinyVgg(16);

  std::vector<const TransformPlan*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { seen[static_cast<size_t>(t)] = &cache.GetOrPlan(vgg11, vgg16); });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // One planner, everyone else latched onto the in-flight entry.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<size_t>(kThreads - 1));
  EXPECT_EQ(cache.Size(), 1u);
  for (const TransformPlan* plan : seen) {
    EXPECT_EQ(plan, seen[0]);  // Stable reference to the single cached plan.
  }
}

TEST(ConcurrencyPlanCacheTest, DistinctPairsPlanIndependently) {
  AnalyticCostModel costs;
  PlanCache cache(&costs);
  const std::vector<Model> models = {TinyVgg(11), TinyVgg(13), TinyVgg(16), TinyResNet(18)};

  std::vector<std::thread> threads;
  for (size_t i = 0; i < models.size(); ++i) {
    for (size_t j = 0; j < models.size(); ++j) {
      if (i == j) {
        continue;
      }
      threads.emplace_back([&, i, j] { cache.GetOrPlan(models[i], models[j]); });
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }

  const size_t pairs = models.size() * (models.size() - 1);
  EXPECT_EQ(cache.Size(), pairs);
  EXPECT_EQ(cache.misses(), pairs);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ConcurrencyPlanCacheTest, ParallelWarmMatchesSerialContents) {
  AnalyticCostModel costs;
  const std::vector<Model> repository = {TinyVgg(11), TinyVgg(13), TinyVgg(16),
                                         TinyResNet(18), TinyResNet(34)};

  PlanCache serial(&costs);
  for (const Model& model : repository) {
    serial.WarmFor(model, repository);
  }

  ThreadPool pool(4);
  PlanCache parallel(&costs);
  for (const Model& model : repository) {
    parallel.WarmFor(model, repository, &pool);
  }

  EXPECT_EQ(parallel.Size(), serial.Size());
  EXPECT_EQ(parallel.misses(), repository.size() * (repository.size() - 1));
  for (const Model& source : repository) {
    for (const Model& dest : repository) {
      if (source.name() == dest.name()) {
        continue;
      }
      ASSERT_TRUE(parallel.Contains(source.name(), dest.name()));
      EXPECT_DOUBLE_EQ(parallel.GetOrPlan(source, dest).total_cost,
                       serial.GetOrPlan(source, dest).total_cost);
    }
  }
}

// Regression: Save() used to copy entry->plan with no lock held, racing
// Load()'s in-place overwrite of published plans — a guarded-state violation
// the GUARDED_BY migration surfaced. Save now copies each plan under its
// entry latch; this stress fails under TSan against the old code.
TEST(ConcurrencyPlanCacheTest, SaveAndLoadRunConcurrently) {
  AnalyticCostModel costs;
  PlanCache cache(&costs);
  const std::vector<Model> models = {TinyVgg(11), TinyVgg(13), TinyResNet(18)};
  for (const Model& source : models) {
    for (const Model& dest : models) {
      if (source.name() != dest.name()) {
        cache.GetOrPlan(source, dest);
      }
    }
  }
  // Two distinct files so the file I/O itself never races: Load re-reads a
  // fixed snapshot (overwriting the cache's published plans in place) while
  // Save concurrently copies those same plans out under the entry latches.
  const std::string snapshot = testing::TempDir() + "/optimus_race_snapshot.plans";
  const std::string out = testing::TempDir() + "/optimus_race_out.plans";
  cache.Save(snapshot);

  std::atomic<bool> stop{false};
  std::thread loader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.Load(snapshot);
    }
  });
  for (int i = 0; i < 50; ++i) {
    cache.Save(out);
  }
  stop.store(true, std::memory_order_relaxed);
  loader.join();

  const size_t pairs = models.size() * (models.size() - 1);
  EXPECT_EQ(cache.Size(), pairs);
  PlanCache restored(&costs);
  restored.Load(out);
  EXPECT_EQ(restored.Size(), pairs);
  std::remove(snapshot.c_str());
  std::remove(out.c_str());
}

// Regression: the plan/execution retry budgets were plain ints written by
// set_*_budget() while GetOrPlan/Quarantined read them concurrently — a data
// race surfaced by the migration; they are atomics now.
TEST(ConcurrencyPlanCacheTest, BudgetTuningDuringTraffic) {
  AnalyticCostModel costs;
  PlanCache cache(&costs);
  const Model vgg11 = TinyVgg(11);
  const Model vgg16 = TinyVgg(16);

  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    int budget = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      cache.set_plan_retry_budget(1 + (budget % 4));
      cache.set_execution_retry_budget(1 + (budget % 3));
      ++budget;
    }
  });
  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; ++t) {
    traffic.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        cache.GetOrPlan(vgg11, vgg16);
        cache.ReportExecutionFailure("ghost_src", "ghost_dst");
        cache.Quarantined("ghost_src", "ghost_dst");
      }
    });
  }
  for (auto& thread : traffic) {
    thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  tuner.join();

  EXPECT_TRUE(cache.Contains(vgg11.name(), vgg16.name()));
  EXPECT_EQ(cache.ExecutionFailures(), 800u);
}

// --- OptimusPlatform ----------------------------------------------------------

PlatformOptions StressOptions() {
  PlatformOptions options;
  options.num_nodes = 2;
  options.containers_per_node = 2;
  options.warm_threads = 4;
  return options;
}

TEST(ConcurrencyPlatformTest, CounterConservationUnderParallelInvoke) {
  AnalyticCostModel costs;
  OptimusPlatform platform(&costs, StressOptions());
  const std::vector<std::string> functions = {"vgg11", "vgg13", "vgg16", "resnet18"};
  platform.Deploy("vgg11", TinyVgg(11));
  platform.Deploy("vgg13", TinyVgg(13));
  platform.Deploy("vgg16", TinyVgg(16));
  platform.Deploy("resnet18", TinyResNet(18));

  const std::vector<float> input(8, 0.5f);
  constexpr int kRounds = 3;
  constexpr int kInvokesPerThread = 4;
  size_t total = 0;

  // Rounds share one virtual timestamp so concurrent invocations never move
  // the clock backwards; advancing 120s between rounds crosses the idle
  // threshold and exercises the transformation path on full nodes.
  for (int round = 0; round < kRounds; ++round) {
    const double now = 120.0 * round;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kInvokesPerThread; ++i) {
          const std::string& function = functions[static_cast<size_t>(t + i) % functions.size()];
          const InvokeResult result = platform.Invoke(function, input, now);
          ASSERT_FALSE(result.output.empty());
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    total += static_cast<size_t>(kThreads) * kInvokesPerThread;
  }

  // Conservation: every invocation was exactly one of warm/transform/cold.
  EXPECT_EQ(platform.WarmStarts() + platform.Transforms() + platform.ColdStarts(), total);
  // The cache never holds more than one plan per ordered function pair.
  const size_t n = platform.NumFunctions();
  EXPECT_LE(platform.plan_cache().Size(), n * n);
  EXPECT_LE(platform.NumLiveContainers(),
            static_cast<size_t>(StressOptions().num_nodes * StressOptions().containers_per_node));
}

TEST(ConcurrencyPlatformTest, ParallelDeploysWarmEveryPairOnce) {
  AnalyticCostModel costs;
  PlatformOptions options = StressOptions();
  OptimusPlatform platform(&costs, options);

  const std::vector<Model> models = {TinyVgg(11), TinyVgg(13), TinyVgg(16),
                                     TinyVgg(19),  TinyResNet(18), TinyResNet(34)};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < models.size(); ++i) {
    threads.emplace_back([&, i] { platform.Deploy("fn_" + std::to_string(i), models[i]); });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Every ordered pair planned exactly once, regardless of deploy interleaving:
  // whichever function registered later warmed against the earlier one.
  const size_t n = models.size();
  EXPECT_EQ(platform.NumFunctions(), n);
  EXPECT_EQ(platform.plan_cache().Size(), n * (n - 1));
  EXPECT_EQ(platform.plan_cache().misses(), n * (n - 1));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) {
        EXPECT_TRUE(platform.plan_cache().Contains("fn_" + std::to_string(i),
                                                   "fn_" + std::to_string(j)));
      }
    }
  }
}

TEST(ConcurrencyPlatformTest, DeployRaceOnOneNameAdmitsExactlyOne) {
  AnalyticCostModel costs;
  OptimusPlatform platform(&costs, StressOptions());
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        platform.Deploy("contested", TinyVgg(11));
      } catch (const std::invalid_argument&) {
        rejected.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(platform.NumFunctions(), 1u);
  EXPECT_EQ(rejected.load(), 3);
}

TEST(ConcurrencyPlatformTest, InvokeDuringDeployServesBothFunctions) {
  AnalyticCostModel costs;
  OptimusPlatform platform(&costs, StressOptions());
  platform.Deploy("resident", TinyVgg(11));
  const std::vector<float> input(8, 0.5f);

  // Invokers look `resident` up for as long as the deployer inserts small
  // models, so under TSan the lookups overlap repository inserts: a lookup
  // without the repository reader lock is a reported race.
  constexpr int kDeploys = 16;
  std::atomic<bool> deploying{true};
  std::thread deployer([&] {
    for (int i = 0; i < kDeploys; ++i) {
      platform.Deploy("incoming" + std::to_string(i), SmallChain("small", 3, 8));
    }
    deploying.store(false);
  });
  std::atomic<size_t> served{0};
  std::vector<std::thread> invokers;
  for (int t = 0; t < 2; ++t) {
    invokers.emplace_back([&] {
      do {
        served.fetch_add(platform.Invoke("resident", input, 0.0).output.empty() ? 0 : 1);
      } while (deploying.load());
    });
  }
  deployer.join();
  for (auto& invoker : invokers) {
    invoker.join();
  }

  EXPECT_EQ(platform.NumFunctions(), 1u + kDeploys);
  EXPECT_FALSE(platform.Invoke("incoming" + std::to_string(kDeploys - 1), input, 1.0)
                   .output.empty());
  EXPECT_EQ(platform.WarmStarts() + platform.Transforms() + platform.ColdStarts(),
            served.load() + 1);
}

// Leases under churn (DESIGN.md §9, §16): four invokers over four functions on
// 2 nodes × 2 containers, each round 2 s of virtual time apart so every
// container is past idle_threshold and warm hits, transforms, evictions and
// cold starts overlap on one node, while another thread revokes node 1 with
// zero grace and revives it. Every success is counted once and returns the
// scratch reference output, and no lease is left outstanding.
TEST(ConcurrencyPlatformTest, LeasesUnderChurn) {
  AnalyticCostModel costs;
  PlatformOptions options = StressOptions();
  options.idle_threshold = 1.0;
  OptimusPlatform platform(&costs, options);
  const std::vector<std::string> functions = {"vgg11", "vgg13", "mobilenet", "resnet18"};
  platform.Deploy("vgg11", TinyVgg(11));
  platform.Deploy("vgg13", TinyVgg(13));
  platform.Deploy("mobilenet", TinyMobileNet());
  platform.Deploy("resnet18", TinyResNet(18));
  const std::vector<float> input(8, 0.5f);
  std::map<std::string, std::vector<float>> reference;
  for (const std::string& function : functions) {
    reference[function] = platform.Invoke(function, input, 0.0).output;
  }
  const size_t served_before = functions.size();

  constexpr int kInvokers = 4;
  constexpr int kRounds = 12;
  std::atomic<size_t> served{0};
  std::vector<std::thread> invokers;
  for (int t = 0; t < kInvokers; ++t) {
    invokers.emplace_back([&, t] {
      for (int round = 1; round <= kRounds; ++round) {
        const std::string& function =
            functions[static_cast<size_t>(t + round) % functions.size()];
        InvokeResult result;
        const Status status = platform.TryInvoke(function, input, 2.0 * round, &result);
        if (status.ok()) {
          served.fetch_add(1);
          EXPECT_EQ(result.output, reference.at(function)) << function;
        } else {
          EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status.message();
        }
      }
    });
  }
  std::thread churn([&] {
    for (int cycle = 0; cycle < 3; ++cycle) {
      platform.RevokeNode(1, 0.0, 0.0);
      std::this_thread::yield();
      platform.ReviveNode(1);
    }
  });
  for (std::thread& invoker : invokers) {
    invoker.join();
  }
  churn.join();

  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.warm_starts + counters.transforms + counters.cold_starts,
            served.load() + served_before);
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
  EXPECT_EQ(platform.LeasedContainers(), 0u);
}

// --- HTTP gateway -------------------------------------------------------------

TEST(ConcurrencyGatewayTest, ParallelRequestsAreAllServed) {
  AnalyticCostModel costs;
  PlatformOptions options = StressOptions();
  OptimusHttpService service(&costs, options, [] { return 0.0; });
  service.platform().Deploy("vgg11", TinyVgg(11));
  service.platform().Deploy("vgg16", TinyVgg(16));
  service.Start(0, 4);

  constexpr int kRequestsPerThread = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = (t % 2 == 0) ? "vgg11" : "vgg16";
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const HttpResponse response =
            HttpFetch(service.port(), "POST", "/invoke?name=" + name, "0.5,0.5,0.5");
        if (response.status == 200 && response.body.find("output=") != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  service.Stop();

  const int total = kThreads * kRequestsPerThread;
  EXPECT_EQ(ok.load(), total);
  EXPECT_EQ(service.platform().WarmStarts() + service.platform().Transforms() +
                service.platform().ColdStarts(),
            static_cast<size_t>(total));
}

}  // namespace
}  // namespace optimus
