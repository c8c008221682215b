// Streaming discrete-event core (DESIGN.md §18): the request observer sees
// exactly what the counters fold and perturbs nothing (warming and churn
// included), histogram accuracy, and bit-for-bit determinism of streaming
// summaries at scale.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/sim_stats.h"
#include "src/sim/simulator.h"
#include "src/workload/function_table.h"
#include "src/workload/poisson.h"
#include "src/workload/trace_source.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

class SimStreamTest : public testing::Test {
 protected:
  SimStreamTest() {
    models_.push_back(TinyVgg(11));
    models_.push_back(TinyVgg(16));
    models_.push_back(TinyVgg(19));
    models_.push_back(TinyResNet(18));
    for (const Model& model : models_) {
      names_.push_back(model.name());
    }
  }

  Trace MixedTrace(double horizon_seconds) {
    PoissonTraceOptions options;
    options.horizon_seconds = horizon_seconds;
    options.seed = 7;
    return GenerateMixedPoissonTrace(names_, options);
  }

  SimConfig BaseConfig(SystemType system) {
    SimConfig config;
    config.system = system;
    config.num_nodes = 2;
    config.containers_per_node = 3;
    config.placement.kind = BalancerKind::kHash;
    return config;
  }

  std::vector<Model> models_;
  std::vector<std::string> names_;
  AnalyticCostModel costs_;
};

// Every request the counters fold is shown to the observer exactly once, and
// the records it sees add up to the counters bit for bit (both fold in serve
// order).
TEST_F(SimStreamTest, StreamingCountersMatchRecords) {
  const Trace trace = MixedTrace(4000.0);
  ASSERT_GT(trace.size(), 100u);
  for (const SystemType system : {SystemType::kOpenWhisk, SystemType::kPagurus,
                                  SystemType::kTetris, SystemType::kOptimus}) {
    std::vector<int> seen(trace.size(), 0);
    std::array<uint64_t, 3> counts{};
    uint64_t observed = 0;
    double sum_wait = 0.0, sum_init = 0.0, sum_load = 0.0, sum_compute = 0.0;
    const SimResult result = RunSimulation(
        models_, trace, BaseConfig(system), costs_, [&](const RequestRecord& record) {
          ++observed;
          ++seen.at(record.ordinal);
          ++counts[static_cast<size_t>(record.start)];
          sum_wait += record.wait;
          sum_init += record.init;
          sum_load += record.load;
          sum_compute += record.compute;
        });
    // Queues drain on completions, so every request is served.
    ASSERT_EQ(result.total_requests, trace.size());
    EXPECT_EQ(observed, result.total_requests);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<ptrdiff_t>(trace.size()));
    EXPECT_EQ(result.start_counts, counts);
    EXPECT_EQ(result.sum_wait, sum_wait);
    EXPECT_EQ(result.sum_init, sum_init);
    EXPECT_EQ(result.sum_load, sum_load);
    EXPECT_EQ(result.sum_compute, sum_compute);
    EXPECT_EQ(result.service_hist.count(), trace.size());
  }
}

// Runs `config` over `trace` with and without an observer and expects every
// SimResult field to match bit for bit; returns the unobserved result.
SimResult ExpectObserverChangesNothing(const std::vector<Model>& models, const Trace& trace,
                                       const SimConfig& config, const CostModel& costs) {
  uint64_t observed = 0;
  const SimResult plain = RunSimulation(models, trace, config, costs);
  const SimResult watched =
      RunSimulation(models, trace, config, costs, [&](const RequestRecord&) { ++observed; });
  EXPECT_EQ(observed, plain.total_requests);
  EXPECT_EQ(watched.total_requests, plain.total_requests);
  EXPECT_EQ(watched.failed_requests, plain.failed_requests);
  EXPECT_EQ(watched.start_counts, plain.start_counts);
  EXPECT_EQ(watched.sum_wait, plain.sum_wait);
  EXPECT_EQ(watched.sum_init, plain.sum_init);
  EXPECT_EQ(watched.sum_load, plain.sum_load);
  EXPECT_EQ(watched.sum_compute, plain.sum_compute);
  EXPECT_EQ(watched.service_hist.buckets(), plain.service_hist.buckets());
  EXPECT_EQ(watched.service_hist.sum(), plain.service_hist.sum());
  EXPECT_EQ(watched.service_hist.min(), plain.service_hist.min());
  EXPECT_EQ(watched.service_hist.max(), plain.service_hist.max());
  EXPECT_EQ(watched.revocations, plain.revocations);
  EXPECT_EQ(watched.revives, plain.revives);
  EXPECT_EQ(watched.reclaimed_containers, plain.reclaimed_containers);
  EXPECT_EQ(watched.rehomed_requests, plain.rehomed_requests);
  EXPECT_EQ(watched.churn_rebalances, plain.churn_rebalances);
  EXPECT_EQ(watched.warming_cycles, plain.warming_cycles);
  EXPECT_EQ(watched.warming_orders, plain.warming_orders);
  EXPECT_EQ(watched.warming_prewarms_cold, plain.warming_prewarms_cold);
  EXPECT_EQ(watched.warming_prewarms_transform, plain.warming_prewarms_transform);
  EXPECT_EQ(watched.warming_hits, plain.warming_hits);
  EXPECT_EQ(watched.warming_waste, plain.warming_waste);
  EXPECT_EQ(watched.warming_skipped, plain.warming_skipped);
  EXPECT_EQ(watched.warming_unused, plain.warming_unused);
  EXPECT_EQ(watched.warming_lead_seconds, plain.warming_lead_seconds);
  return plain;
}

// Attaching an observer must not change the simulation or its accounting.
TEST_F(SimStreamTest, ObserverDoesNotPerturbRun) {
  const Trace trace = MixedTrace(4000.0);
  for (const SystemType system : {SystemType::kOpenWhisk, SystemType::kOptimus}) {
    const SimResult result =
        ExpectObserverChangesNothing(models_, trace, BaseConfig(system), costs_);
    EXPECT_EQ(result.total_requests, trace.size());
  }
}

// Histogram percentiles sit within one geometric bucket (~5% relative) of the
// exact order statistic of the observed service times.
TEST_F(SimStreamTest, HistogramPercentilesWithinBucketTolerance) {
  const Trace trace = MixedTrace(4000.0);
  std::vector<double> service;
  const SimResult result =
      RunSimulation(models_, trace, BaseConfig(SystemType::kOptimus), costs_,
                    [&](const RequestRecord& record) { service.push_back(record.ServiceTime()); });
  ASSERT_EQ(service.size(), trace.size());
  std::sort(service.begin(), service.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const size_t rank = std::min(service.size() - 1,
                                 static_cast<size_t>(q * static_cast<double>(service.size())));
    const double exact = service[rank];
    ASSERT_GT(exact, 0.0);
    // One 5% bucket of relative error, plus slack for the rank falling on a
    // bucket edge.
    EXPECT_NEAR(result.ServiceTimePercentile(q), exact, 0.06 * exact) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(result.service_hist.min(), service.front());
  EXPECT_DOUBLE_EQ(result.service_hist.max(), service.back());
}

// Warming accounting must reconcile with and without an observer, and the
// speculative counters must be identical across both:
//   prewarms_cold + prewarms_transform == hits + waste + unused.
TEST_F(SimStreamTest, WarmingReconciliationAcrossModes) {
  SimConfig config = BaseConfig(SystemType::kOptimus);
  config.warming.enabled = true;
  config.warming.interval = 120.0;
  const SimResult result =
      ExpectObserverChangesNothing(models_, MixedTrace(4000.0), config, costs_);
  EXPECT_GT(result.warming_cycles, 0u);
  EXPECT_EQ(result.WarmingPrewarms(),
            result.warming_hits + result.warming_waste + result.warming_unused);
  EXPECT_EQ(result.warming_lead_seconds.size(), result.warming_hits);
}

// Node churn produces the same lifecycle accounting with and without an
// observer.
TEST_F(SimStreamTest, ChurnCountersAcrossModes) {
  SimConfig config = BaseConfig(SystemType::kOptimus);
  config.churn.push_back({1000.0, 0, /*revive=*/false, /*grace=*/30.0});
  config.churn.push_back({2500.0, 0, /*revive=*/true, 0.0});
  const Trace trace = MixedTrace(4000.0);
  const SimResult result = ExpectObserverChangesNothing(models_, trace, config, costs_);
  EXPECT_EQ(result.revocations, 1u);
  EXPECT_EQ(result.revives, 1u);
  EXPECT_EQ(result.total_requests, trace.size());
}

// Two independent streaming runs of the same many-function workload (fresh
// sources, fresh tables) produce bit-identical summaries: sums, counts and
// histogram buckets.
TEST_F(SimStreamTest, StreamingDeterminismAtScale) {
  auto run_once = [this]() {
    FunctionTable functions;
    PoissonProcessSource::Options options;
    options.horizon_seconds = 400.0;
    options.seed = 97;
    PoissonProcessSource source(&functions, /*num_functions=*/2000, "fn_", options);
    SimWorkload workload;
    workload.models = &models_;
    workload.functions = &functions;
    for (size_t fn = 0; fn < functions.size(); ++fn) {
      workload.function_model.push_back(static_cast<int32_t>(fn % models_.size()));
    }
    SimConfig config = BaseConfig(SystemType::kOptimus);
    config.num_nodes = 50;
    config.containers_per_node = 8;
    return RunSimulationStream(workload, &source, config, costs_);
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  ASSERT_GT(a.total_requests, 5000u);  // ~2000 functions at the mixed rates.
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.start_counts, b.start_counts);
  EXPECT_EQ(a.sum_wait, b.sum_wait);
  EXPECT_EQ(a.sum_init, b.sum_init);
  EXPECT_EQ(a.sum_load, b.sum_load);
  EXPECT_EQ(a.sum_compute, b.sum_compute);
  EXPECT_EQ(a.service_hist.buckets(), b.service_hist.buckets());
  EXPECT_EQ(a.service_hist.sum(), b.service_hist.sum());
  EXPECT_EQ(a.service_hist.min(), b.service_hist.min());
  EXPECT_EQ(a.service_hist.max(), b.service_hist.max());
  EXPECT_EQ(a.ServiceTimePercentile(0.95), b.ServiceTimePercentile(0.95));
}

// Through the streaming entry point, each observed record names the function
// and arrival of the source's request at its ordinal.
TEST_F(SimStreamTest, StreamingApiObserverMatchesTrace) {
  FunctionTable functions;
  const Trace trace = MixedTrace(2000.0);
  TraceVectorSource source(trace, &functions);
  // Pre-intern and map functions (normally the RunSimulation wrapper's job).
  SimWorkload workload;
  workload.models = &models_;
  workload.functions = &functions;
  for (const std::string& name : names_) {
    functions.Intern(name);
  }
  for (size_t fn = 0; fn < functions.size(); ++fn) {
    workload.function_model.push_back(static_cast<int32_t>(fn));
  }
  std::vector<RequestRecord> records;
  const SimResult result = RunSimulationStream(workload, &source, BaseConfig(SystemType::kOptimus),
                                               costs_, RecordByOrdinal(&records));
  ASSERT_EQ(result.total_requests, trace.size());
  ASSERT_EQ(records.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(records[i].function, functions.Find(trace[i].function));
    EXPECT_DOUBLE_EQ(records[i].arrival, trace[i].arrival);
  }
}

// An arrival for a function with no model must throw exactly like the
// pre-streaming simulator did.
TEST_F(SimStreamTest, UnregisteredFunctionThrows) {
  Trace trace;
  trace.push_back({0.0, "no_such_model"});
  EXPECT_THROW(RunSimulation(models_, trace, BaseConfig(SystemType::kOptimus), costs_),
               std::runtime_error);
}

// --- sim_stats unit coverage. ----------------------------------------------

TEST(LatencyHistogramTest, PercentileWithinRelativeBucketWidth) {
  LatencyHistogram hist;
  std::vector<double> values;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double v = 0.001 * std::exp(rng.Normal(0.0, 1.5));  // Log-normal spread.
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const size_t rank = std::min(values.size() - 1,
                                 static_cast<size_t>(q * static_cast<double>(values.size())));
    const double exact = values[rank];
    EXPECT_NEAR(hist.Percentile(q), exact, 0.06 * exact) << "q=" << q;
  }
  EXPECT_EQ(hist.count(), values.size());
  EXPECT_DOUBLE_EQ(hist.min(), values.front());
  EXPECT_DOUBLE_EQ(hist.max(), values.back());
}

TEST(LatencyHistogramTest, ExtremesClampIntoRange) {
  LatencyHistogram hist;
  hist.Record(0.0);      // Non-positive folds into bucket 0.
  hist.Record(1e300);    // Far past the last bucket.
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_GE(hist.Percentile(0.0), 0.0);
  EXPECT_LE(hist.Percentile(1.0), 1e300);
}

}  // namespace
}  // namespace optimus
