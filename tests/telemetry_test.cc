// Tests for the telemetry subsystem (DESIGN.md §12): registry semantics,
// histogram bucket math and percentiles against a sorted reference,
// concurrent hammering (run under TSan in CI), the trace collector's ring,
// deterministic sampling, Chrome trace export, and the end-to-end guarantee
// that a traced transform-triggering Invoke records plan-lookup, per-meta-op,
// and inference spans with predicted-vs-actual costs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/core/platform.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "tests/test_util.h"

namespace optimus {
namespace telemetry {
namespace {

// ---- Bucket math ----------------------------------------------------------

TEST(HistogramBucketsTest, SmallValuesAreExact) {
  for (uint64_t nanos = 0; nanos < 4; ++nanos) {
    const size_t index = BucketIndexForNanos(nanos);
    EXPECT_EQ(index, nanos);
    EXPECT_EQ(BucketLowerBoundNanos(index), nanos);
    EXPECT_EQ(BucketUpperBoundNanos(index), nanos);
  }
}

TEST(HistogramBucketsTest, BoundsRoundTripAndCover) {
  // Every value must land in a bucket whose [lower, upper] range contains it,
  // buckets must tile the axis with no gaps, and the relative width must stay
  // within the documented 25%.
  uint64_t expected_next_lower = 4;
  for (size_t index = 4; index < 200; ++index) {
    const uint64_t lower = BucketLowerBoundNanos(index);
    const uint64_t upper = BucketUpperBoundNanos(index);
    EXPECT_EQ(lower, expected_next_lower) << "gap before bucket " << index;
    EXPECT_GE(upper, lower);
    EXPECT_EQ(BucketIndexForNanos(lower), index);
    EXPECT_EQ(BucketIndexForNanos(upper), index);
    const double width = static_cast<double>(upper - lower + 1);
    EXPECT_LE(width / static_cast<double>(lower), 0.25 + 1e-12)
        << "bucket " << index << " too wide";
    expected_next_lower = upper + 1;
  }
}

TEST(HistogramBucketsTest, BoundaryValuesMapConsistently) {
  for (const uint64_t nanos :
       {uint64_t{4}, uint64_t{5}, uint64_t{7}, uint64_t{8}, uint64_t{1023}, uint64_t{1024},
        uint64_t{1025}, uint64_t{1} << 40, (uint64_t{1} << 62) + 12345}) {
    const size_t index = BucketIndexForNanos(nanos);
    EXPECT_LE(BucketLowerBoundNanos(index), nanos);
    EXPECT_GE(BucketUpperBoundNanos(index), nanos);
  }
}

// ---- Histogram percentiles vs. a sorted reference -------------------------

TEST(HistogramTest, PercentilesTrackSortedReference) {
  Histogram histogram;
  std::vector<double> values;
  // Log-uniform-ish deterministic spread from 100ns to ~1s.
  for (int i = 0; i < 2000; ++i) {
    const double seconds = 1e-7 * std::pow(1.008, i);
    values.push_back(seconds);
    histogram.Observe(seconds);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.count, values.size());
  for (const double p : {0.5, 0.9, 0.95, 0.99}) {
    const double reference =
        values[static_cast<size_t>(std::ceil(p * static_cast<double>(values.size()))) - 1];
    const double estimate = snapshot.Percentile(p);
    // Bucket resolution bounds the error at 25% relative.
    EXPECT_NEAR(estimate, reference, reference * 0.25) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(snapshot.Percentile(1.0), snapshot.max_seconds);
  EXPECT_NEAR(snapshot.max_seconds, values.back(), values.back() * 1e-6);
  EXPECT_NEAR(snapshot.Mean(), snapshot.sum_seconds / static_cast<double>(snapshot.count),
              1e-12);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram histogram;
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.Percentile(0.99), 0.0);
  EXPECT_EQ(snapshot.Mean(), 0.0);
}

TEST(HistogramTest, NegativeAndNanClampToZeroBucket) {
  Histogram histogram;
  histogram.Observe(-1.0);
  histogram.Observe(std::nan(""));
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_EQ(snapshot.buckets[0], 2u);
}

// ---- Concurrent hammering (exercised under TSan in CI) --------------------

TEST(TelemetryConcurrencyTest, CountersAndHistogramsSurviveHammering) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_events_total");
  Histogram& histogram = registry.GetHistogram("test_seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Inc();
        histogram.Observe(1e-6 * static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetryConcurrencyTest, RegistryLookupsRaceWithRecording) {
  MetricsRegistry registry;
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      static const char* const kPhases[] = {"p0", "p1", "p2", "p3"};
      for (int i = 0; i < 2000; ++i) {
        registry.GetCounter("shared_total").Inc();
        registry.GetHistogram("latency_seconds", {{"phase", kPhases[i % 4]}}).Observe(1e-6);
        if (t == 0 && i % 500 == 0) {
          (void)registry.RenderPrometheus();
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("shared_total").Value(), kThreads * 2000u);
}

// ---- Registry semantics ---------------------------------------------------

TEST(MetricsRegistryTest, SeriesReferencesAreStableAndShared) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("optimus_x_total", {{"k", "v"}});
  Counter& b = registry.GetCounter("optimus_x_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.GetCounter("optimus_x_total", {{"k", "w"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.GetCounter("optimus_thing");
  EXPECT_THROW(registry.GetHistogram("optimus_thing"), std::logic_error);
  EXPECT_THROW(registry.GetGauge("optimus_thing", {{"a", "b"}}), std::logic_error);
}

TEST(MetricsRegistryTest, KillSwitchDropsWritesButKeepsReads) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("optimus_kill_total");
  Histogram& histogram = registry.GetHistogram("optimus_kill_seconds");
  Gauge& gauge = registry.GetGauge("optimus_kill_gauge");
  counter.Inc();
  registry.set_enabled(false);
  counter.Inc();
  histogram.Observe(1.0);
  gauge.Set(5.0);
  EXPECT_EQ(counter.Value(), 1u);
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_EQ(gauge.Value(), 0.0);
  registry.set_enabled(true);
  counter.Inc();
  EXPECT_EQ(counter.Value(), 2u);
}

TEST(MetricsRegistryTest, RenderPrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("optimus_events_total", {{"kind", "warm"}}, "Events by kind").Inc(3);
  registry.GetGauge("optimus_level", {}, "A level").Set(1.5);
  Histogram& histogram = registry.GetHistogram("optimus_lat_seconds", {}, "Latency");
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE optimus_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("optimus_events_total{kind=\"warm\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE optimus_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE optimus_lat_seconds summary"), std::string::npos);
  EXPECT_NE(text.find("optimus_lat_seconds{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("optimus_lat_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("optimus_lat_seconds_sum 2"), std::string::npos);
  EXPECT_NE(text.find("# HELP optimus_events_total Events by kind"), std::string::npos);
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("optimus_esc_total", {{"path", "a\"b\\c\nd"}}).Inc();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// ---- Trace collector ------------------------------------------------------

TEST(TraceCollectorTest, SamplingIsDeterministicForASeed) {
  MetricsRegistry registry_a;
  MetricsRegistry registry_b;
  TraceCollectorOptions options;
  options.sample_period = 8;
  options.seed = 42;
  TraceCollector collector_a(&registry_a, options);
  TraceCollector collector_b(&registry_b, options);
  std::vector<bool> decisions_a;
  std::vector<bool> decisions_b;
  size_t sampled = 0;
  for (int i = 0; i < 512; ++i) {
    auto trace_a = collector_a.MaybeStartTrace("fn");
    auto trace_b = collector_b.MaybeStartTrace("fn");
    decisions_a.push_back(trace_a != nullptr);
    decisions_b.push_back(trace_b != nullptr);
    sampled += trace_a != nullptr ? 1u : 0u;
  }
  EXPECT_EQ(decisions_a, decisions_b);
  // ~1/8 of 512 = 64 expected; allow generous slack for the seeded stream.
  EXPECT_GT(sampled, 20u);
  EXPECT_LT(sampled, 150u);
}

TEST(TraceCollectorTest, PeriodZeroDisablesAndOneTracesAll) {
  MetricsRegistry registry;
  TraceCollectorOptions options;
  options.sample_period = 0;
  TraceCollector collector(&registry, options);
  EXPECT_EQ(collector.MaybeStartTrace("fn"), nullptr);
  collector.set_sample_period(1);
  EXPECT_NE(collector.MaybeStartTrace("fn"), nullptr);
}

TEST(TraceCollectorTest, RingWrapsDroppingOldest) {
  MetricsRegistry registry;
  TraceCollectorOptions options;
  options.capacity = 4;
  TraceCollector collector(&registry, options);
  for (int i = 0; i < 10; ++i) {
    collector.Finish(collector.StartTrace("fn" + std::to_string(i)));
  }
  EXPECT_EQ(collector.TracesStarted(), 10u);
  EXPECT_EQ(collector.TracesCompleted(), 10u);
  EXPECT_EQ(collector.TracesDropped(), 6u);
  const auto drained = collector.Drain();
  ASSERT_EQ(drained.size(), 4u);
  std::set<std::string> roots;
  for (const auto& trace : drained) {
    roots.insert(trace->root());
  }
  // The four newest survive.
  EXPECT_EQ(roots, (std::set<std::string>{"fn6", "fn7", "fn8", "fn9"}));
  EXPECT_TRUE(collector.Drain().empty());
}

TEST(TraceCollectorTest, SpansCloseOnExceptionUnwind) {
  MetricsRegistry registry;
  TraceCollector collector(&registry);
  auto trace = collector.StartTrace("fn");
  try {
    ScopedSpan outer(trace.get(), "outer", "test");
    ScopedSpan inner(trace.get(), "inner", "test");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(collector.SpansOpened(), 2u);
  EXPECT_EQ(collector.SpansClosed(), 2u);
  ASSERT_EQ(trace->spans().size(), 2u);
  // Inner unwinds first.
  EXPECT_EQ(trace->spans()[0].name, "inner");
  EXPECT_EQ(trace->spans()[1].name, "outer");
  collector.Finish(std::move(trace));
}

TEST(TraceCollectorTest, NullSpanIsInert) {
  ScopedSpan span(nullptr, "noop", "test");
  span.Arg("k", 1.0);  // Must not crash.
}

// ---- Chrome trace export --------------------------------------------------

TEST(ChromeTraceExportTest, EmitsValidEventsRoundTrip) {
  MetricsRegistry registry;
  TraceCollector collector(&registry);
  auto trace = collector.StartTrace("my_fn");
  {
    ScopedSpan span(trace.get(), "invoke", "platform");
    span.Arg("predicted_s", 0.125);
    span.Arg("actual_s", 0.25);
  }
  const uint64_t id = trace->id();
  collector.Finish(std::move(trace));
  const std::string json = ExportChromeTrace(collector.Drain());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"invoke\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"platform\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_s\":0.125"), std::string::npos);
  EXPECT_NE(json.find("\"actual_s\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(id)), std::string::npos);
  EXPECT_NE(json.find("my_fn"), std::string::npos);
  // Balanced braces/brackets — a cheap structural sanity check; the CI step
  // additionally parses the gateway's /trace body with a real JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ChromeTraceExportTest, EmptyDrainIsValidEmptyDocument) {
  const std::string json = ExportChromeTrace({});
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

// ---- End-to-end: traced transform-triggering invoke -----------------------

TEST(PlatformTracingTest, TransformInvokeRecordsAllPhaseSpans) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 1;
  options.containers_per_node = 1;  // Node saturates after one cold start.
  OptimusPlatform platform(&costs, options);
  platform.Deploy("vgg11", TinyVgg(11));
  platform.Deploy("vgg16", TinyVgg(16));
  const std::vector<float> input(8, 0.5f);

  // Cold-start vgg11, let it idle past the threshold, then invoke vgg16 on
  // the full node: the vgg11 container is the donor and must transform.
  platform.Invoke("vgg11", input, 0.0);
  auto trace = platform.traces().StartTrace("vgg16");
  const InvokeResult result = platform.Invoke("vgg16", input, 100.0, trace.get());
  ASSERT_EQ(result.start, StartType::kTransform);
  ASSERT_EQ(result.donor_function, "vgg11");

  std::multiset<std::string> names;
  size_t meta_op_spans = 0;
  for (const TraceSpan& span : trace->spans()) {
    names.insert(span.name);
    if (span.category == "meta_op") {
      ++meta_op_spans;
      bool has_predicted = false;
      bool has_actual = false;
      for (const auto& [key, value] : span.args) {
        has_predicted = has_predicted || key == std::string("predicted_s");
        has_actual = has_actual || key == std::string("actual_s");
      }
      EXPECT_TRUE(has_predicted) << span.name << " span missing predicted_s";
      EXPECT_TRUE(has_actual) << span.name << " span missing actual_s";
    }
  }
  EXPECT_GE(names.count("plan_lookup"), 1u);
  EXPECT_EQ(names.count("decide"), 1u);
  EXPECT_EQ(names.count("inference"), 1u);
  EXPECT_EQ(names.count("invoke"), 1u);
  // A VGG-11 -> VGG-16 transform executes Replace/Reshape/Add steps; every
  // executed step must have produced a span.
  EXPECT_GT(meta_op_spans, 0u);

  // The registry saw the same story: one transform start, drift recorded.
  EXPECT_EQ(platform.Transforms(), 1u);
  EXPECT_GE(platform.metrics()
                .GetHistogram("optimus_cost_drift_ratio", {{"phase", "transform"}})
                .Count(),
            1u);
  platform.traces().Finish(std::move(trace));
  EXPECT_EQ(platform.traces().SpansOpened(), platform.traces().SpansClosed());
}

TEST(PlatformTracingTest, ColdInvokeRecordsScratchLoadSpan) {
  AnalyticCostModel costs;
  PlatformOptions options;
  OptimusPlatform platform(&costs, options);
  platform.Deploy("mobilenet", TinyMobileNet());
  auto trace = platform.traces().StartTrace("mobilenet");
  const InvokeResult result =
      platform.Invoke("mobilenet", std::vector<float>(8, 0.5f), 0.0, trace.get());
  ASSERT_EQ(result.start, StartType::kCold);
  bool saw_scratch_load = false;
  for (const TraceSpan& span : trace->spans()) {
    saw_scratch_load = saw_scratch_load || span.name == std::string("scratch_load");
  }
  EXPECT_TRUE(saw_scratch_load);
  EXPECT_GE(platform.metrics()
                .GetHistogram("optimus_phase_seconds", {{"phase", "scratch_load"}})
                .Count(),
            1u);
}

}  // namespace
}  // namespace telemetry
}  // namespace optimus
