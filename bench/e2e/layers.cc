#include "bench/e2e/layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <random>
#include <sstream>
#include <thread>

#include "bench/bench_util.h"

namespace optimus {
namespace e2e {

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
  }
  return sum / static_cast<double>(values.size());
}

std::string SeriesKey(const std::string& name, const telemetry::Labels& labels) {
  std::string key = name + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    key += (i > 0 ? "," : "") + labels[i].first + "=" + labels[i].second;
  }
  return key + "}";
}

RegistrySnapshot TakeSnapshot(telemetry::MetricsRegistry& registry) {
  static const std::vector<std::pair<std::string, telemetry::Labels>> kCounters = {
      {"optimus_starts_total", {{"kind", "warm"}}},
      {"optimus_starts_total", {{"kind", "transform"}}},
      {"optimus_starts_total", {{"kind", "cold"}}},
      {"optimus_gateway_retries_total", {}},
      {"optimus_gateway_sheds_total", {}},
      {"optimus_gateway_deadlines_total", {}},
      {"optimus_plan_cache_hits_total", {}},
      {"optimus_plan_cache_misses_total", {}},
      {"optimus_transform_failures_total", {}},
  };
  RegistrySnapshot snapshot;
  registry.VisitHistograms([&snapshot](const std::string& name, const telemetry::Labels& labels,
                                       const telemetry::HistogramSnapshot& histogram) {
    snapshot.histograms[SeriesKey(name, labels)] = histogram;
  });
  for (const auto& [name, labels] : kCounters) {
    snapshot.counters[SeriesKey(name, labels)] = registry.GetCounter(name, labels).Value();
  }
  return snapshot;
}

RegistryDelta::RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after) {
  for (const auto& [key, histogram] : after.histograms) {
    telemetry::HistogramSnapshot delta = histogram;
    const auto it = before.histograms.find(key);
    if (it != before.histograms.end()) {
      delta.count -= it->second.count;
      delta.sum_seconds -= it->second.sum_seconds;
      for (size_t i = 0; i < delta.buckets.size(); ++i) {
        delta.buckets[i] -= it->second.buckets[i];
      }
    }
    histograms_[key] = delta;
  }
  for (const auto& [key, value] : after.counters) {
    const auto it = before.counters.find(key);
    counters_[key] = value - (it != before.counters.end() ? it->second : 0);
  }
}

uint64_t RegistryDelta::Count(const std::string& key) const {
  const auto it = histograms_.find(key);
  return it != histograms_.end() ? it->second.count : 0;
}

double RegistryDelta::SumSeconds(const std::string& key) const {
  const auto it = histograms_.find(key);
  return it != histograms_.end() ? it->second.sum_seconds : 0.0;
}

double RegistryDelta::MeanSeconds(const std::string& key) const {
  const uint64_t count = Count(key);
  return count == 0 ? 0.0 : SumSeconds(key) / static_cast<double>(count);
}

uint64_t RegistryDelta::Counter(const std::string& key) const {
  const auto it = counters_.find(key);
  return it != counters_.end() ? it->second : 0;
}

std::string LayerOf(const telemetry::TraceSpan& span) {
  if (span.name == "request") {
    return "gateway";
  }
  if (span.name == "invoke") {
    return "platform";
  }
  if (span.category == "meta_op") {
    return "meta_op";
  }
  return span.name;
}

void SpanTotals::AddTrace(const std::vector<telemetry::TraceSpan>& spans) {
  // Nesting is recovered from the intervals: ordered by start (longer span
  // first on ties), a span is a child of the innermost open span that has not
  // ended before it starts.
  std::vector<const telemetry::TraceSpan*> order;
  order.reserve(spans.size());
  for (const telemetry::TraceSpan& span : spans) {
    order.push_back(&span);
  }
  std::sort(order.begin(), order.end(),
            [](const telemetry::TraceSpan* a, const telemetry::TraceSpan* b) {
              if (a->start_ns != b->start_ns) {
                return a->start_ns < b->start_ns;
              }
              return a->duration_ns > b->duration_ns;
            });
  struct Open {
    const telemetry::TraceSpan* span;
    uint64_t end_ns;
    uint64_t covered_ns;
  };
  std::vector<Open> stack;
  const auto close = [this](const Open& open) {
    const uint64_t self =
        open.span->duration_ns > open.covered_ns ? open.span->duration_ns - open.covered_ns : 0;
    self_seconds[LayerOf(*open.span)] += static_cast<double>(self) * 1e-9;
  };
  for (const telemetry::TraceSpan* span : order) {
    const uint64_t end_ns = span->start_ns + span->duration_ns;
    while (!stack.empty() && stack.back().end_ns <= span->start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      Open& parent = stack.back();
      const uint64_t overlap_end = std::min(end_ns, parent.end_ns);
      if (overlap_end > span->start_ns) {
        parent.covered_ns += overlap_end - span->start_ns;
      }
    }
    stack.push_back({span, end_ns, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

std::map<std::string, double> TracedSelfTimes(const ClientTotals& client, double request_seconds,
                                              const SpanTotals& spans) {
  const double responses = static_cast<double>(client.responses);
  std::map<std::string, double> self_ms;
  self_ms["generator"] = Ratio(client.late_ms, static_cast<double>(client.ok));
  self_ms["client"] = Ratio(client.exchange_ms - request_seconds * 1e3, responses);
  for (const auto& [layer, seconds] : spans.self_seconds) {
    self_ms[layer] = Ratio(seconds * 1e3, responses);
  }
  return self_ms;
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  out += benchutil::JsonEscapeString(text);
  out += '"';
  return out;
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // Full precision: a value is printed as measured, never rounded.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) {
      out += ",";
    }
    out += JsonString(metrics[i].name);
    out += ":{\"value\":";
    out += value;
    out += ",\"unit\":";
    out += JsonString(metrics[i].unit);
    out += "}";
  }
  return out + "}";
}

}  // namespace

void Result::Violation(const std::string& what) {
  correct = false;
  violations.push_back(what);
}

void Result::EndToEnd(const std::string& name, const std::string& unit, double value) {
  end_to_end.push_back({name, unit, value});
}

void Result::Layer(const std::string& name, const std::string& unit, double value) {
  per_layer.push_back({name, unit, value});
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(workload) << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    out << (i > 0 ? "," : "") << JsonString(violations[i]);
  }
  out << "],\"end_to_end\":" << JsonMetrics(end_to_end)
      << ",\"per_layer\":" << JsonMetrics(per_layer) << "}";
  return out.str();
}

bool AnotherSetUp(const std::vector<double>& setup_seconds) {
  double total = 0.0;
  for (const double seconds : setup_seconds) {
    total += seconds;
  }
  return setup_seconds.size() < 3 || (setup_seconds.size() < 15 && total < 2.0);
}

namespace {

constexpr size_t kCalibrationThreads = 4;
constexpr size_t kCalibrationKeys = 1 << 16;
constexpr size_t kMatrixN = 64;

// One calibration thread's memory. It is static, so calibrating adds a fixed
// 2.2 MB to the resident size instead of heap use that would move
// peak_rss_mb from run to run.
struct CalibrationWorkspace {
  std::array<uint64_t, kCalibrationKeys> keys;
  std::array<float, kMatrixN * kMatrixN> a, b, c;
};

// Sorting and a small matrix product: integer, branch, cache and floating
// point work in one fixed package of about 5 ms. Returns its thread CPU ms.
double CalibrationKernelMs(CalibrationWorkspace* w) {
  timespec start{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  std::mt19937_64 rng(42);
  for (uint64_t& key : w->keys) {
    key = rng();
  }
  std::sort(w->keys.begin(), w->keys.end());
  w->a.fill(1.0f);
  w->b.fill(0.5f);
  w->c.fill(0.0f);
  for (size_t i = 0; i < kMatrixN; ++i) {
    for (size_t k = 0; k < kMatrixN; ++k) {
      for (size_t j = 0; j < kMatrixN; ++j) {
        w->c[i * kMatrixN + j] += w->a[i * kMatrixN + k] * w->b[k * kMatrixN + j];
      }
    }
  }
  // Keeps the work observable so the compiler cannot drop it.
  volatile uint64_t sink = w->keys[7] + static_cast<uint64_t>(w->c[5]);
  (void)sink;
  timespec end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  return static_cast<double>(end.tv_sec - start.tv_sec) * 1e3 +
         static_cast<double>(end.tv_nsec - start.tv_nsec) * 1e-6;
}

}  // namespace

double CalibrationMs() {
  static std::array<CalibrationWorkspace, kCalibrationThreads> workspaces;
  std::array<double, kCalibrationThreads> ms{};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCalibrationThreads; ++t) {
    // The first run warms the caches; the second is timed.
    threads.emplace_back([&ms, t] {
      CalibrationKernelMs(&workspaces[t]);
      ms[t] = CalibrationKernelMs(&workspaces[t]);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  double sum = 0.0;
  for (const double value : ms) {
    sum += value;
  }
  return sum / static_cast<double>(kCalibrationThreads);
}

double HostSpeed::Scale() {
  const double now_ms = CalibrationMs();
  const double factor = kReferenceCalibrationMs / ((last_ms_ + now_ms) / 2.0);
  last_ms_ = now_ms;
  sum_ms_ += now_ms;
  ++count_;
  return factor;
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

int SelfTest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); };

  // Snapshot deltas: a series present at both ends subtracts; one that first
  // appears in `after` counts from zero; counters subtract likewise.
  telemetry::MetricsRegistry registry;
  telemetry::Histogram& seen = registry.GetHistogram("h", {{"k", "a"}});
  seen.Observe(0.010);
  seen.Observe(0.020);
  registry.GetCounter("optimus_starts_total", {{"kind", "warm"}}).Inc(5);
  const RegistrySnapshot before = TakeSnapshot(registry);
  seen.Observe(0.030);
  registry.GetHistogram("late").Observe(0.5);
  registry.GetCounter("optimus_starts_total", {{"kind", "warm"}}).Inc(3);
  const RegistrySnapshot after = TakeSnapshot(registry);
  const RegistryDelta delta(before, after);
  expect(delta.Count("h{k=a}") == 1, "histogram count delta");
  expect(near(delta.SumSeconds("h{k=a}"), 0.030), "histogram sum delta");
  expect(near(delta.MeanSeconds("h{k=a}"), 0.030), "histogram mean delta");
  expect(delta.Count("late{}") == 1 && near(delta.SumSeconds("late{}"), 0.5),
         "series absent from the first snapshot counts from zero");
  expect(delta.Count("missing{}") == 0 && delta.MeanSeconds("missing{}") == 0.0,
         "unknown series reads as empty");
  expect(delta.Counter(SeriesKey("optimus_starts_total", {{"kind", "warm"}})) == 3,
         "counter delta");
  expect(delta.Counter(SeriesKey("optimus_starts_total", {{"kind", "cold"}})) == 0,
         "untouched counter delta is zero");

  // Self times: request [0,100) holds invoke [10,90), which holds a meta-op
  // [20,30) and inference [40,80). Self times must sum to the root.
  std::vector<telemetry::TraceSpan> spans(4);
  spans[0] = {"inference", "inference", 40, 40, {}};
  spans[1] = {"Reshape", "meta_op", 20, 10, {}};
  spans[2] = {"invoke", "platform", 10, 80, {}};
  spans[3] = {"request", "gateway", 0, 100, {}};
  SpanTotals totals;
  totals.AddTrace(spans);
  expect(near(totals.self_seconds["gateway"], 20e-9), "request self = 100 - 80");
  expect(near(totals.self_seconds["platform"], 30e-9), "invoke self = 80 - 10 - 40");
  expect(near(totals.self_seconds["meta_op"], 10e-9), "meta-op self");
  expect(near(totals.self_seconds["inference"], 40e-9), "inference self");
  double sum = 0.0;
  for (const auto& [layer, seconds] : totals.self_seconds) {
    sum += seconds;
  }
  expect(near(sum, 100e-9), "self times sum to the root");

  // Two requests of 150 ns each at the client, 100 ns of it in the gateway as
  // the registry timed it; the second was also 10 ns late. With both traces
  // the self times sum to the client mean; with one trace missing they fall
  // short by half a trace.
  const auto layer_sum = [](const std::map<std::string, double>& self_ms) {
    double total = 0.0;
    for (const auto& [layer, ms] : self_ms) {
      total += ms;
    }
    return total;
  };
  const ClientTotals client{2, 2, 300e-6, 10e-6};
  const double client_mean_ms = (300e-6 + 10e-6) / 2.0;
  SpanTotals both;
  both.AddTrace(spans);
  both.AddTrace(spans);
  const std::map<std::string, double> full = TracedSelfTimes(client, 200e-9, both);
  expect(near(full.at("client"), 50e-6) && near(full.at("generator"), 5e-6) &&
             near(full.at("inference"), 40e-6),
         "traced self times per request");
  expect(near(layer_sum(full), client_mean_ms), "self times sum to the client mean");
  const double shortfall = client_mean_ms - layer_sum(TracedSelfTimes(client, 200e-9, totals));
  expect(near(shortfall, 50e-6), "a missing trace leaves a shortfall");

  expect(near(Mean({1.0, 2.0, 6.0}), 3.0), "mean");
  return failures;
}

}  // namespace e2e
}  // namespace optimus
