// Forecast-driven warming (DESIGN.md §17): forecaster classification and
// prediction, WarmingPolicy budgeting, WarmingEngine cadence, the platform's
// speculative pre-warm path with its distinct accounting bucket, and the
// simulator's virtual-time twin of the same pipeline.

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/core/platform.h"
#include "src/sim/simulator.h"
#include "src/warming/forecaster.h"
#include "src/warming/policy.h"
#include "src/workload/azure.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// Forecasters.

TEST(ForecasterTest, EwmaConvergesToSteadyRate) {
  EwmaForecaster forecaster(0.5);
  const DemandSeries steady(8, 4.0);
  const Forecast forecast = forecaster.Predict(steady);
  EXPECT_TRUE(forecast.predictable);
  EXPECT_NEAR(forecast.rate, 4.0, 1e-9);
}

TEST(ForecasterTest, EwmaTracksTrend) {
  EwmaForecaster forecaster(0.5);
  const DemandSeries rising = {1.0, 2.0, 4.0, 8.0};
  const Forecast forecast = forecaster.Predict(rising);
  // EWMA lags the latest sample but sits well above the series mean.
  EXPECT_GT(forecast.rate, 3.75);
  EXPECT_LT(forecast.rate, 8.0);
}

TEST(ForecasterTest, EwmaDeclinesOnEmptyHistory) {
  EwmaForecaster forecaster(0.5);
  const Forecast forecast = forecaster.Predict({});
  EXPECT_FALSE(forecast.predictable);
  EXPECT_EQ(forecast.rate, 0.0);
}

TEST(ForecasterTest, MakeForecasterRejectsUnknownKind) {
  EXPECT_THROW(MakeForecaster("oracle", 0.5), std::invalid_argument);
  EXPECT_NE(MakeForecaster("ewma", 0.5), nullptr);
  EXPECT_NE(MakeForecaster("hybrid", 0.5), nullptr);
}

// ---------------------------------------------------------------------------
// Classification.

TEST(ClassifyTest, SteadySeriesIsPeriodic) {
  const DemandSeries steady(12, 5.0);
  EXPECT_EQ(ClassifyDemand(steady), DemandClass::kPeriodic);
  const DemandStats stats = AnalyzeDemandSeries(steady);
  EXPECT_LT(stats.cv, kClassifySteadyCv);
}

TEST(ClassifyTest, SpikeTrainIsPeriodicViaAutocorrelation) {
  // Period-4 spike train: strong autocorrelation at lag 4 even though the
  // coefficient of variation is far above the steady threshold.
  DemandSeries spikes;
  for (int period = 0; period < 4; ++period) {
    spikes.push_back(8.0);
    spikes.push_back(0.0);
    spikes.push_back(0.0);
    spikes.push_back(0.0);
  }
  const DemandStats stats = AnalyzeDemandSeries(spikes);
  EXPECT_GE(stats.best_autocorr, kClassifyPeriodicAutocorr);
  EXPECT_EQ(stats.best_lag, 4u);
  EXPECT_GE(stats.cv, kClassifySteadyCv);
  EXPECT_EQ(ClassifyDemand(spikes), DemandClass::kPeriodic);
}

TEST(ClassifyTest, OnOffPhasesAreBursty) {
  // Irregularly spaced dense bursts over quiet stretches: high CV, no stable
  // period, mean above one arrival per slot.
  const DemandSeries bursts = {0.0, 0.0, 9.0, 8.0, 0.0, 0.0, 0.0, 7.0,
                               9.0, 0.0, 0.0, 0.0, 0.0, 8.0, 0.0, 6.0};
  const DemandStats stats = AnalyzeDemandSeries(bursts);
  EXPECT_GE(stats.cv, kClassifySteadyCv);
  EXPECT_LT(stats.best_autocorr, kClassifyPeriodicAutocorr);
  EXPECT_GE(stats.mean, kClassifySporadicMean);
  EXPECT_EQ(ClassifyDemand(bursts), DemandClass::kBursty);
}

TEST(ClassifyTest, RareIrregularArrivalsAreSporadic) {
  const DemandSeries rare = {0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0};
  EXPECT_EQ(ClassifyDemand(rare), DemandClass::kSporadic);
  // Too little history or too few events: sporadic by construction.
  EXPECT_EQ(ClassifyDemand(DemandSeries{5.0, 5.0}), DemandClass::kSporadic);
  EXPECT_EQ(ClassifyDemand(DemandSeries{1.0, 0.0, 0.0, 0.0, 1.0, 0.0}), DemandClass::kSporadic);
}

TEST(ClassifyTest, DemandClassNamesAreStable) {
  EXPECT_STREQ(DemandClassName(DemandClass::kSporadic), "sporadic");
  EXPECT_STREQ(DemandClassName(DemandClass::kPeriodic), "periodic");
  EXPECT_STREQ(DemandClassName(DemandClass::kBursty), "bursty");
}

// Bins one function's arrivals into fixed-width demand slots — the same shape
// the DemandAccumulator produces once per warming cycle.
DemandSeries BinArrivals(const Trace& trace, const std::string& function, double horizon,
                         double slot_seconds) {
  DemandSeries series(static_cast<size_t>(horizon / slot_seconds) + 1, 0.0);
  for (const auto& request : trace) {
    if (request.function == function) {
      series[static_cast<size_t>(request.arrival / slot_seconds)] += 1.0;
    }
  }
  return series;
}

TEST(ClassifyTest, GeneratorTraceClassesAreDistinguishable) {
  // The satellite regression: each forced generator class must land in the
  // matching classifier bucket when binned at the warming cadence.
  const std::vector<std::string> functions = {"f0"};
  AzureTraceOptions options;
  options.horizon_seconds = 4.0 * 3600;
  options.seed = 7;
  const double slot = 120.0;

  options.force_pattern = 0;  // Periodic timer at ~12.5 s: steady slot counts.
  const Trace periodic = GenerateAzureTrace(functions, options);
  EXPECT_EQ(ClassifyDemand(BinArrivals(periodic, "f0", options.horizon_seconds, slot)),
            DemandClass::kPeriodic);

  options.force_pattern = 1;  // On/off bursts (quiet ~15 min, dense fronts).
  const Trace bursty = GenerateAzureTrace(functions, options);
  EXPECT_EQ(ClassifyDemand(BinArrivals(bursty, "f0", options.horizon_seconds, slot)),
            DemandClass::kBursty);

  options.force_pattern = 2;  // Rare Poisson arrivals, diurnally thinned.
  options.peak_rate = 0.002;
  const Trace sporadic = GenerateAzureTrace(functions, options);
  EXPECT_EQ(ClassifyDemand(BinArrivals(sporadic, "f0", options.horizon_seconds, slot)),
            DemandClass::kSporadic);
}

// ---------------------------------------------------------------------------
// Hybrid forecaster.

TEST(HybridForecasterTest, DeclinesToPredictSporadicDemand) {
  HybridForecaster forecaster(0.5);
  const Forecast forecast =
      forecaster.Predict({0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0});
  EXPECT_FALSE(forecast.predictable);
  EXPECT_EQ(forecast.demand_class, DemandClass::kSporadic);
  EXPECT_STREQ(forecast.method, "none");
  EXPECT_EQ(forecast.confidence, 0.0);
}

TEST(HybridForecasterTest, SeasonalNaiveForecastsTheNextSpike) {
  HybridForecaster forecaster(0.5);
  // Three full periods plus a partial one ending right before the spike: the
  // value one period ago (the spike) is the next-slot forecast.
  DemandSeries spikes;
  for (int period = 0; period < 4; ++period) {
    spikes.push_back(8.0);
    spikes.push_back(0.0);
    spikes.push_back(0.0);
    spikes.push_back(0.0);
  }
  spikes.push_back(8.0);
  spikes.push_back(0.0);
  spikes.push_back(0.0);  // history[n - 4] == 0: next slot is mid-quiet...
  Forecast forecast = forecaster.Predict(spikes);
  EXPECT_TRUE(forecast.predictable);
  EXPECT_STREQ(forecast.method, "seasonal");
  EXPECT_EQ(forecast.rate, 0.0);

  spikes.push_back(0.0);  // ...and now history[n - 4] == 8: spike incoming.
  forecast = forecaster.Predict(spikes);
  EXPECT_TRUE(forecast.predictable);
  EXPECT_STREQ(forecast.method, "seasonal");
  EXPECT_EQ(forecast.rate, 8.0);
}

TEST(HybridForecasterTest, SteadyDemandForecastsAtHighConfidence) {
  HybridForecaster forecaster(0.5);
  const Forecast forecast = forecaster.Predict(DemandSeries(10, 3.0));
  EXPECT_TRUE(forecast.predictable);
  EXPECT_EQ(forecast.demand_class, DemandClass::kPeriodic);
  EXPECT_NEAR(forecast.rate, 3.0, 1e-9);
  EXPECT_GE(forecast.confidence, 0.9);
}

TEST(HybridForecasterTest, BurstyDemandTracksTheLongRunRate) {
  HybridForecaster forecaster(0.3);
  const DemandSeries bursts = {0.0, 0.0, 9.0, 8.0, 0.0, 0.0, 0.0, 7.0,
                               9.0, 0.0, 0.0, 0.0, 0.0, 8.0, 0.0, 6.0};
  const Forecast forecast = forecaster.Predict(bursts);
  EXPECT_TRUE(forecast.predictable);
  EXPECT_EQ(forecast.demand_class, DemandClass::kBursty);
  EXPECT_STREQ(forecast.method, "ewma");
  EXPECT_GT(forecast.rate, 0.0);
  // Burst timing is memoryless: the forecast must survive an off-phase
  // instead of keying to the last slot (which would predict 6.0 here and 0.0
  // two quiet slots later, right when the container expires).
  DemandSeries quiet = bursts;
  quiet.push_back(0.0);
  quiet.push_back(0.0);
  const Forecast later = forecaster.Predict(quiet);
  EXPECT_TRUE(later.predictable);
  EXPECT_GT(later.rate, 1.0);
}

// ---------------------------------------------------------------------------
// WarmingPolicy.

FunctionForecast MakePredictable(const std::string& function, double rate, double confidence) {
  FunctionForecast entry;
  entry.function = function;
  entry.forecast.predictable = true;
  entry.forecast.rate = rate;
  entry.forecast.confidence = confidence;
  return entry;
}

TEST(WarmingPolicyTest, BudgetCapsClusterAndPerNodeOrders) {
  const std::unique_ptr<WarmingPolicy> policy = MakeWarmingPolicy("predictive");
  Placement assignment;
  std::vector<FunctionForecast> forecasts;
  for (int i = 0; i < 8; ++i) {
    const std::string name = "fn" + std::to_string(i);
    assignment[name] = i % 2;
    // Distinct rates so the priority order is unambiguous.
    forecasts.push_back(MakePredictable(name, 10.0 - i, 1.0));
  }
  const PlacementTable table(1, BalancerKind::kHash, 2, assignment);
  WarmingBudget budget;
  budget.max_orders_per_cycle = 4;
  budget.max_orders_per_node = 2;
  const std::vector<WarmingOrder> orders = policy->Plan(forecasts, table, budget);
  ASSERT_LE(orders.size(), 4u);
  std::map<int, int> per_node;
  for (const WarmingOrder& order : orders) {
    ++per_node[order.node];
    EXPECT_EQ(order.node, table.NodeOrHash(order.function));
  }
  for (const auto& [node, count] : per_node) {
    EXPECT_LE(count, 2) << "node " << node;
  }
  // Highest-priority first.
  for (size_t i = 1; i < orders.size(); ++i) {
    EXPECT_GE(orders[i - 1].priority, orders[i].priority);
  }
}

TEST(WarmingPolicyTest, SkipsUnpredictableAndBelowFloorForecasts) {
  const std::unique_ptr<WarmingPolicy> policy = MakeWarmingPolicy("predictive");
  const PlacementTable table(1, BalancerKind::kHash, 2, {{"quiet", 0}, {"noisy", 1}});
  std::vector<FunctionForecast> forecasts;
  forecasts.push_back(MakePredictable("quiet", 0.1, 1.0));  // Below the rate floor.
  FunctionForecast declined;
  declined.function = "noisy";
  declined.forecast.predictable = false;
  declined.forecast.rate = 50.0;  // Informational only; must not be acted on.
  forecasts.push_back(declined);
  EXPECT_TRUE(policy->Plan(forecasts, table, WarmingBudget()).empty());
}

TEST(WarmingPolicyTest, PlanIsDeterministic) {
  const std::unique_ptr<WarmingPolicy> policy = MakeWarmingPolicy("predictive");
  Placement assignment;
  std::vector<FunctionForecast> forecasts;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "fn" + std::to_string(i);
    assignment[name] = i % 3;
    forecasts.push_back(MakePredictable(name, 4.0, 0.8));  // Equal priorities.
  }
  const PlacementTable table(1, BalancerKind::kHash, 3, assignment);
  const std::vector<WarmingOrder> first = policy->Plan(forecasts, table, WarmingBudget());
  const std::vector<WarmingOrder> second = policy->Plan(forecasts, table, WarmingBudget());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].function, second[i].function);
    EXPECT_EQ(first[i].node, second[i].node);
  }
  EXPECT_THROW(MakeWarmingPolicy("psychic"), std::invalid_argument);
}

TEST(WarmingPolicyTest, OrdersFollowLiveMaskReHoming) {
  // Functions assigned to a dead node re-home over the live ring; warming a
  // dead node would be guaranteed waste, so orders must follow NodeOrHash.
  const std::unique_ptr<WarmingPolicy> policy = MakeWarmingPolicy("predictive");
  const PlacementTable table(2, BalancerKind::kHash, 2, {{"fn0", 0}, {"fn1", 0}},
                             std::vector<uint8_t>{0, 1});  // Node 0 is dead.
  const std::vector<FunctionForecast> forecasts = {MakePredictable("fn0", 5.0, 1.0),
                                                   MakePredictable("fn1", 5.0, 1.0)};
  const std::vector<WarmingOrder> orders = policy->Plan(forecasts, table, WarmingBudget());
  ASSERT_FALSE(orders.empty());
  for (const WarmingOrder& order : orders) {
    EXPECT_EQ(order.node, 1);
  }
}

// ---------------------------------------------------------------------------
// WarmingEngine cadence.

TEST(WarmingEngineTest, DueFiresExactlyOncePerInterval) {
  WarmingOptions options;
  options.enabled = true;
  options.interval = 100.0;
  WarmingEngine engine(options);
  EXPECT_FALSE(engine.Due(50.0));
  EXPECT_TRUE(engine.Due(100.0));
  EXPECT_FALSE(engine.Due(150.0));  // Same window.
  EXPECT_TRUE(engine.Due(250.0));
  EXPECT_FALSE(engine.Due(250.0));
}

TEST(WarmingEngineTest, DisabledEngineIsNeverDue) {
  WarmingOptions options;
  options.enabled = false;
  options.interval = 100.0;
  WarmingEngine engine(options);
  EXPECT_FALSE(engine.Due(1e9));
  engine.set_enabled(true);
  EXPECT_TRUE(engine.Due(1e9));
  engine.set_enabled(false);
  EXPECT_FALSE(engine.Due(2e9));
}

// ---------------------------------------------------------------------------
// Platform: the speculative pre-warm path.

class WarmingPlatformTest : public testing::Test {
 protected:
  static PlatformOptions Options(bool enabled) {
    PlatformOptions options;
    options.num_nodes = 1;
    options.containers_per_node = 2;
    options.warming.enabled = enabled;
    options.warming.interval = 0.0;  // Cycles only via explicit WarmNow().
    return options;
  }

  // Five rounds of two invokes each, spaced past the keep-alive so each round
  // starts cold; each round closes one demand slot of 2 — a steady (periodic)
  // series the hybrid forecaster predicts with high confidence.
  static double BuildSteadyDemand(OptimusPlatform* platform, const std::vector<float>& input) {
    double t = 0.0;
    for (int round = 0; round < 5; ++round) {
      t = 1000.0 * round;
      platform->Invoke("vgg", input, t);
      platform->Invoke("vgg", input, t + 1.0);
      platform->WarmNow(t + 2.0);
    }
    return t + 2.0;
  }

  AnalyticCostModel costs_;
  std::vector<float> input_ = std::vector<float>(8, 0.5f);
};

TEST_F(WarmingPlatformTest, PrewarmServesTheNextArrivalWarm) {
  OptimusPlatform platform(&costs_, Options(/*enabled=*/true));
  platform.Deploy("vgg", TinyVgg(11));
  const double t = BuildSteadyDemand(&platform, input_);

  // Next cycle fires after the keep-alive: the reactive container is gone,
  // and the forecast pre-warms a fresh one ahead of the next round.
  const size_t executed = platform.WarmNow(t + 998.0);
  EXPECT_GE(executed, 1u);
  EXPECT_GE(platform.PrewarmedContainers(), 1u);
  EXPECT_GE(platform.counters().warming_prewarms_cold, 1u);

  const InvokeResult result = platform.Invoke("vgg", input_, t + 999.0);
  EXPECT_EQ(result.start, StartType::kWarm);
  EXPECT_EQ(platform.counters().warming_hits, 1u);
  EXPECT_EQ(platform.PrewarmedContainers(), 0u);
}

TEST_F(WarmingPlatformTest, SpeculationUsesItsOwnAccountingBucket) {
  OptimusPlatform platform(&costs_, Options(/*enabled=*/true));
  platform.Deploy("vgg", TinyVgg(11));
  const double t = BuildSteadyDemand(&platform, input_);
  platform.WarmNow(t + 998.0);
  platform.Invoke("vgg", input_, t + 999.0);

  const PlatformCounters counters = platform.counters();
  // 11 successful invokes, all reactive: warm + transform + cold still
  // reconciles without any speculative contamination.
  EXPECT_EQ(counters.warm_starts + counters.transforms + counters.cold_starts, 11u);
  // Bucket conservation: every pre-warm is eventually a hit, waste, or still
  // live awaiting its first request.
  EXPECT_EQ(counters.warming_prewarms_cold + counters.warming_prewarms_transform,
            counters.warming_hits + counters.warming_waste + platform.PrewarmedContainers());
}

TEST_F(WarmingPlatformTest, UnusedPrewarmExpiresIntoWaste) {
  OptimusPlatform platform(&costs_, Options(/*enabled=*/true));
  platform.Deploy("vgg", TinyVgg(11));
  const double t = BuildSteadyDemand(&platform, input_);
  ASSERT_GE(platform.WarmNow(t + 998.0), 1u);
  ASSERT_GE(platform.PrewarmedContainers(), 1u);

  // No request ever lands; the next cycle past the keep-alive reaps the
  // speculative container and charges the waste bucket.
  platform.WarmNow(t + 998.0 + 700.0);
  EXPECT_GE(platform.counters().warming_waste, 1u);
  EXPECT_EQ(platform.counters().warming_hits, 0u);
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.warming_prewarms_cold + counters.warming_prewarms_transform,
            counters.warming_hits + counters.warming_waste + platform.PrewarmedContainers());
}

TEST_F(WarmingPlatformTest, DisabledWarmingIsANoop) {
  OptimusPlatform platform(&costs_, Options(/*enabled=*/false));
  platform.Deploy("vgg", TinyVgg(11));
  EXPECT_FALSE(platform.WarmingEnabled());
  platform.Invoke("vgg", input_, 0.0);
  EXPECT_EQ(platform.WarmNow(1.0), 0u);
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.warming_cycles, 0u);
  EXPECT_EQ(counters.warming_orders, 0u);
  EXPECT_EQ(platform.PrewarmedContainers(), 0u);

  // Runtime toggle: the engine exists even when construction disabled it.
  platform.SetWarmingEnabled(true);
  EXPECT_TRUE(platform.WarmingEnabled());
  EXPECT_EQ(platform.counters().warming_cycles, 0u);
  platform.WarmNow(2.0);
  EXPECT_EQ(platform.counters().warming_cycles, 1u);
}

TEST_F(WarmingPlatformTest, PrefetchFaultChargesFailuresNotTransforms) {
  OptimusPlatform platform(&costs_, Options(/*enabled=*/true));
  platform.Deploy("vgg", TinyVgg(11));
  const double t = BuildSteadyDemand(&platform, input_);

  fault::ScopedFaults faults("warming.prefetch=always");
  platform.WarmNow(t + 998.0);
  const PlatformCounters counters = platform.counters();
  EXPECT_GE(counters.warming_failures, 1u);
  EXPECT_EQ(counters.warming_failures, fault::Fires("warming.prefetch"));
  EXPECT_EQ(counters.warming_prewarms_cold, 0u);
  EXPECT_EQ(counters.warming_prewarms_transform, 0u);
  EXPECT_EQ(counters.transform_failures, 0u);  // Reactive bucket untouched.
  EXPECT_EQ(platform.PrewarmedContainers(), 0u);
}

TEST_F(WarmingPlatformTest, WarmingStatsJsonCarriesTheBucket) {
  OptimusPlatform platform(&costs_, Options(/*enabled=*/true));
  platform.Deploy("vgg", TinyVgg(11));
  BuildSteadyDemand(&platform, input_);
  const std::string json = platform.WarmingStatsJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"forecaster\":\"hybrid\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":5"), std::string::npos);
  EXPECT_NE(json.find("\"budget\":"), std::string::npos);
}

TEST_F(WarmingPlatformTest, ConcurrentInvokesAndWarmingCycles) {
  // TSan coverage for the background loop + invoke-path Due() triggers.
  PlatformOptions options = Options(/*enabled=*/true);
  options.warming.interval = 5.0;  // Background loop runs.
  options.containers_per_node = 4;
  OptimusPlatform platform(&costs_, options);
  platform.Deploy("vgg11", TinyVgg(11));
  platform.Deploy("vgg16", TinyVgg(16));

  std::vector<std::thread> workers;
  for (int worker = 0; worker < 3; ++worker) {
    workers.emplace_back([&platform, worker, this] {
      const std::string function = worker % 2 == 0 ? "vgg11" : "vgg16";
      for (int i = 0; i < 20; ++i) {
        platform.Invoke(function, input_, static_cast<double>(worker * 1000 + i * 7));
      }
    });
  }
  for (int i = 0; i < 4; ++i) {
    platform.WarmNow(static_cast<double>(3000 + i * 10));
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const PlatformCounters counters = platform.counters();
  EXPECT_EQ(counters.warm_starts + counters.transforms + counters.cold_starts, 60u);
  EXPECT_EQ(counters.warming_prewarms_cold + counters.warming_prewarms_transform,
            counters.warming_hits + counters.warming_waste + platform.PrewarmedContainers());
}

// ---------------------------------------------------------------------------
// Simulator: the virtual-time twin.

class WarmingSimTest : public testing::Test {
 protected:
  WarmingSimTest() {
    models_.push_back(TinyVgg(11));
    models_.push_back(TinyVgg(16));
    models_.push_back(TinyVgg(19));
    models_.push_back(TinyResNet(18));
    for (const Model& model : models_) {
      names_.push_back(model.name());
    }
    config_.system = SystemType::kOptimus;
    config_.num_nodes = 2;
    config_.containers_per_node = 4;
  }

  Trace BurstyTrace() const {
    AzureTraceOptions options;
    options.horizon_seconds = 4.0 * 3600;
    options.seed = 11;
    options.force_pattern = 1;  // Every function bursty: the warming target.
    return GenerateAzureTrace(names_, options);
  }

  std::vector<Model> models_;
  std::vector<std::string> names_;
  SimConfig config_;
  AnalyticCostModel costs_;
};

TEST_F(WarmingSimTest, WarmingReducesColdStartsUnderBurstyTrace) {
  const Trace trace = BurstyTrace();
  ASSERT_GT(trace.size(), 50u);

  const SimResult reactive = RunSimulation(models_, trace, config_, costs_);
  SimConfig warmed_config = config_;
  warmed_config.warming.enabled = true;
  warmed_config.warming.interval = 120.0;
  const SimResult warmed = RunSimulation(models_, trace, warmed_config, costs_);

  // Reactive baseline must be untouched by the warming fields.
  EXPECT_EQ(reactive.warming_cycles, 0u);
  EXPECT_EQ(reactive.WarmingPrewarms(), 0u);

  EXPECT_GT(warmed.warming_cycles, 0u);
  EXPECT_GT(warmed.warming_hits, 0u);
  // Every request still served exactly once in both runs.
  EXPECT_EQ(warmed.records.size(), trace.size());
  const size_t cold_reactive =
      reactive.CountOf(StartType::kCold) + reactive.CountOf(StartType::kTransform);
  const size_t cold_warmed =
      warmed.CountOf(StartType::kCold) + warmed.CountOf(StartType::kTransform);
  EXPECT_LT(cold_warmed, cold_reactive);
}

TEST_F(WarmingSimTest, SimulatorBucketObeysConservation) {
  const Trace trace = BurstyTrace();
  SimConfig config = config_;
  config.warming.enabled = true;
  config.warming.interval = 120.0;
  const SimResult result = RunSimulation(models_, trace, config, costs_);
  EXPECT_EQ(result.WarmingPrewarms(),
            result.warming_hits + result.warming_waste + result.warming_unused);
  EXPECT_EQ(result.warming_lead_seconds.size(), result.warming_hits);
  for (const double lead : result.warming_lead_seconds) {
    EXPECT_GE(lead, 0.0);
  }
  // Orders either executed, were skipped, or (no faults in the sim) nothing
  // else: the order ledger reconciles.
  EXPECT_EQ(result.warming_orders, result.WarmingPrewarms() + result.warming_skipped);
}

TEST_F(WarmingSimTest, PlatformAndSimulatorAgreeOnTheSchedule) {
  // Same cadence, same engine: a 1-hour horizon at a 120 s interval runs at
  // most horizon/interval cycles in the simulator, and the live platform's
  // Due() admits exactly the same count when driven by the same clock.
  WarmingOptions options;
  options.enabled = true;
  options.interval = 120.0;
  WarmingEngine engine(options);
  size_t live_cycles = 0;
  for (double t = 0.0; t < 3600.0; t += 1.0) {
    if (engine.Due(t)) {
      ++live_cycles;
    }
  }

  const Trace trace = {{0.0, names_[0]}, {3599.0, names_[0]}};
  SimConfig config = config_;
  config.warming.enabled = true;
  config.warming.interval = 120.0;
  const SimResult result = RunSimulation(models_, trace, config, costs_);
  EXPECT_EQ(result.warming_cycles, live_cycles);
}

}  // namespace
}  // namespace optimus
