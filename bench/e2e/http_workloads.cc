// The three HTTP-facing workloads. Each starts an OptimusHttpService on
// loopback with 4 workers, deploys its functions with POST /deploy, and drives
// POST /invoke from at most 4 client threads, one connection each.
//
//   warm_small           closed loop, 4 connections, four NAS-Bench-201
//                        functions that stay warm: transport and gateway
//                        dominate; transform, plan and load do no work.
//   churn_mixed          open loop, Poisson arrivals, Zipf(1.0) popularity
//                        over 16 functions on 12 containers: the paper's
//                        regime of more functions than containers.
//   deploy_during_serve  3 connections of warm invokes while a 4th deploys
//                        64 new NAS-Bench-201 architectures on a schedule:
//                        the only workload with planning on a client's path.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <thread>

#include "bench/bench_util.h"
#include "bench/e2e/client.h"
#include "bench/e2e/workloads.h"
#include "src/common/rng.h"
#include "src/core/meta_op.h"
#include "src/gateway/service.h"
#include "src/graph/serialization.h"
#include "src/zoo/nasbench.h"
#include "src/zoo/registry.h"

namespace optimus {
namespace e2e {

namespace {

constexpr int kServerWorkers = 4;
constexpr int kClientThreads = 4;
// Requests per client thread kept for the Chrome trace file.
constexpr size_t kKeptPerThread = 250;
constexpr size_t kKeptServerTraces = 1000;
// Length of a timed slice between two host calibrations: short against the
// host's slow stretches, long against the open loop's mean gap (20 ms).
constexpr double kSliceSeconds = 1.0;

enum class Shape { kClosed, kOpen, kClosedWithDeploys };

struct Spec {
  Shape shape = Shape::kClosed;
  PlatformOptions platform;
  // Deployed at set-up, in this order; requests aligned with the names.
  std::vector<std::string> names;
  std::vector<std::string> deploy_requests;
  std::vector<std::string> invoke_requests;  // Same input vector for all.
  bool prime = true;  // Invoke every function once at set-up.
  double slo_ms = 5.0;
  double warmup_s = 1.0;
  // Open loop: arrival rate and the per-function popularity weights.
  double rate = 0.0;
  std::vector<double> popularity;
  // Deploys sent during the timed phase (kClosedWithDeploys).
  std::vector<std::string> extra_names;
  std::vector<std::string> extra_deploy_requests;
  bool expect_all_warm = false;
  bool expect_nonwarm = false;
};

struct Scheduled {
  uint64_t at_ns = 0;  // Offset from the phase start.
  size_t fn = 0;
};

std::string DeployRequest(const std::string& name, const Model& model) {
  const ModelFile file = SerializeModel(model);
  return BuildPost("/deploy?name=" + name, std::string(file.begin(), file.end()));
}

// Poisson arrivals conditioned on exactly round(rate * seconds) of them in
// [0, seconds), and exactly each function's popularity share of them in a
// seeded order. Fixing both counts keeps throughput and the start mix from
// inheriting sampling noise; the gaps stay exponential and the order random.
std::vector<Scheduled> OpenLoopSchedule(const Spec& spec, double seconds, Rng* rng) {
  const size_t n = static_cast<size_t>(std::llround(spec.rate * seconds));
  std::vector<double> cumulative(n + 1);
  double total = 0.0;
  for (double& value : cumulative) {
    total += rng->Exponential(1.0);
    value = total;
  }
  // Largest-remainder apportionment of the n requests by popularity.
  double weight_sum = 0.0;
  for (const double weight : spec.popularity) {
    weight_sum += weight;
  }
  std::vector<size_t> functions;
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t fn = 0; fn < spec.popularity.size(); ++fn) {
    const double share = static_cast<double>(n) * spec.popularity[fn] / weight_sum;
    functions.insert(functions.end(), static_cast<size_t>(share), fn);
    remainders.push_back({share - std::floor(share), fn});
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (size_t i = 0; functions.size() < n; ++i) {
    functions.push_back(remainders[i].second);
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(functions[i - 1],
              functions[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  std::vector<Scheduled> schedule(n);
  for (size_t i = 0; i < n; ++i) {
    schedule[i].at_ns = static_cast<uint64_t>(cumulative[i] / total * seconds * 1e9);
    schedule[i].fn = functions[i];
  }
  return schedule;
}

// The first 200 response for each function fixes the output line every later
// response must repeat: a transformed container must compute exactly what a
// scratch-loaded one does.
class OutputBook {
 public:
  explicit OutputBook(size_t functions) : outputs_(functions) {}

  bool Matches(size_t fn, std::string_view output) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::optional<std::string>& expected = outputs_[fn];
    if (!expected.has_value()) {
      expected = std::string(output);
      return true;
    }
    return *expected == output;
  }

 private:
  std::mutex mutex_;
  std::vector<std::optional<std::string>> outputs_;
};

struct ThreadStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t slo_met = 0;
  std::array<uint64_t, 3> starts{};  // Indexed by StartType.
  std::vector<double> latency_ms;    // Successful invokes.
  double late_ms_sum = 0.0;          // Open loop: send time minus due time.
  uint64_t connects = 0;
  // Client spans of every exchange that got a response.
  uint64_t responses = 0;
  uint64_t connect_ns = 0, send_ns = 0, wait_ns = 0, read_ns = 0;
  std::vector<ClientTiming> kept;  // Traced phase: the first few, for the trace file.
  std::vector<std::string> violations;
};

bool ParseInvokeBody(const std::string& body, StartType* start, std::string_view* output) {
  const std::string_view text(body);
  if (text.rfind("start=", 0) != 0) {
    return false;
  }
  const std::string_view kind = text.substr(6, text.find('\n') - 6);
  if (kind == "Warm") {
    *start = StartType::kWarm;
  } else if (kind == "Transform") {
    *start = StartType::kTransform;
  } else if (kind == "Cold") {
    *start = StartType::kCold;
  } else {
    return false;
  }
  const size_t at = text.find("\noutput=");
  if (at == std::string_view::npos) {
    return false;
  }
  const size_t begin = at + 8;
  *output = text.substr(begin, text.find('\n', begin) - begin);
  return true;
}

// One invoke; `due_ns` is the open loop's scheduled send time (0 for closed
// loops, whose latency runs from the actual send).
void Invoke(HttpClient& client, const Spec& spec, size_t fn,
            uint64_t due_ns, bool keep, OutputBook* book, ThreadStats* stats) {
  ClientResponse response;
  ClientTiming timing;
  ++stats->attempted;
  if (!client.Exchange(spec.invoke_requests[fn], &response, &timing)) {
    ++stats->failed;
    return;
  }
  ++stats->responses;
  stats->connect_ns += timing.connect_ns;
  stats->send_ns += timing.send_ns;
  stats->wait_ns += timing.wait_ns;
  stats->read_ns += timing.read_ns;
  if (keep && stats->kept.size() < kKeptPerThread) {
    stats->kept.push_back(timing);
  }
  if (response.status != 200) {
    ++stats->failed;
    return;
  }
  StartType start = StartType::kCold;
  std::string_view output;
  if (!ParseInvokeBody(response.body, &start, &output)) {
    ++stats->failed;
    stats->violations.push_back("malformed invoke response for " + spec.names[fn]);
    return;
  }
  ++stats->starts[static_cast<size_t>(start)];
  if (!book->Matches(fn, output)) {
    ++stats->failed;
    stats->violations.push_back("output mismatch for " + spec.names[fn] + " on a " +
                                StartTypeName(start) + " start");
    return;
  }
  const uint64_t end_ns = timing.start_ns + timing.total_ns();
  const uint64_t from_ns = due_ns != 0 ? std::min(due_ns, timing.start_ns) : timing.start_ns;
  const double latency_ms = static_cast<double>(end_ns - from_ns) * 1e-6;
  ++stats->ok;
  stats->latency_ms.push_back(latency_ms);
  stats->late_ms_sum += static_cast<double>(timing.start_ns - from_ns) * 1e-6;
  if (latency_ms <= spec.slo_ms) {
    ++stats->slo_met;
  }
}

void SleepUntilNanos(uint64_t target_ns) {
  const uint64_t now = telemetry::MonotonicNanos();
  if (target_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(target_ns - now));
  }
}

// What one phase of load needs beyond the spec.
struct PhasePlan {
  double seconds = 0.0;
  std::vector<Scheduled> schedule;  // Open loop.
  size_t deploy_begin = 0;          // Slice of the extra deploys.
  size_t deploy_end = 0;
  uint64_t seed = 1;  // Closed-loop function choice.
  bool keep = false;  // Keep client spans for the trace file.
};

struct PhaseResult {
  std::vector<ThreadStats> threads;
  double wall_s = 0.0;
  std::vector<double> deploy_s;  // Sorted.
  uint64_t deploys_failed = 0;
  std::vector<std::string> violations;
};

PhaseResult RunPhase(OptimusHttpService& service, const Spec& spec, const PhasePlan& plan,
                     OutputBook* book) {
  PhaseResult result;
  const uint16_t port = service.port();
  const bool deploys = spec.shape == Shape::kClosedWithDeploys;
  const int invokers = deploys ? kClientThreads - 1 : kClientThreads;
  result.threads.resize(static_cast<size_t>(invokers));
  const uint64_t start_ns = telemetry::MonotonicNanos();
  const uint64_t stop_ns = start_ns + static_cast<uint64_t>(plan.seconds * 1e9);
  std::atomic<size_t> next{0};
  std::atomic<bool> deploys_done{!deploys};

  std::vector<std::thread> threads;
  for (int t = 0; t < invokers; ++t) {
    threads.emplace_back([&, t] {
      ThreadStats& stats = result.threads[static_cast<size_t>(t)];
      HttpClient client(port);
      if (spec.shape == Shape::kOpen) {
        for (size_t i = next.fetch_add(1); i < plan.schedule.size(); i = next.fetch_add(1)) {
          const uint64_t due_ns = start_ns + plan.schedule[i].at_ns;
          SleepUntilNanos(due_ns);
          Invoke(client, spec, plan.schedule[i].fn, due_ns, plan.keep, book, &stats);
        }
      } else {
        Rng rng(plan.seed * 7919 + static_cast<uint64_t>(t));
        const int64_t last = static_cast<int64_t>(spec.names.size()) - 1;
        while (telemetry::MonotonicNanos() < stop_ns || !deploys_done.load()) {
          const size_t fn = static_cast<size_t>(rng.UniformInt(0, last));
          Invoke(client, spec, fn, 0, plan.keep, book, &stats);
        }
      }
      stats.connects = client.connects();
    });
  }
  if (deploys) {
    // Deploys are due on a fixed schedule spread over the phase; a deploy
    // that runs long delays the next, and the phase lasts until the last
    // deploy returns.
    threads.emplace_back([&] {
      HttpClient client(port);
      const size_t count = plan.deploy_end - plan.deploy_begin;
      for (size_t k = 0; k < count; ++k) {
        SleepUntilNanos(start_ns + static_cast<uint64_t>(plan.seconds * 1e9 *
                                                         static_cast<double>(k) /
                                                         static_cast<double>(count)));
        const size_t index = plan.deploy_begin + k;
        ClientResponse response;
        ClientTiming timing;
        if (!client.Exchange(spec.extra_deploy_requests[index], &response, &timing) ||
            response.status != 200 || response.body != "deployed " + spec.extra_names[index] + "\n") {
          ++result.deploys_failed;
          result.violations.push_back("deploy of " + spec.extra_names[index] + " failed");
          continue;
        }
        result.deploy_s.push_back(static_cast<double>(timing.total_ns()) * 1e-9);
      }
      deploys_done.store(true);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // An open-loop phase lasts its full length even when its last arrival
  // finishes early, so its throughput is the offered rate.
  SleepUntilNanos(stop_ns);
  result.wall_s = static_cast<double>(telemetry::MonotonicNanos() - start_ns) * 1e-9;
  std::sort(result.deploy_s.begin(), result.deploy_s.end());
  for (ThreadStats& stats : result.threads) {
    result.violations.insert(result.violations.end(), stats.violations.begin(),
                             stats.violations.end());
  }
  return result;
}

// An untraced timed phase: the slices merged as measured, plus the latency
// samples and wall time scaled to the reference host speed.
struct TimedPhase {
  PhaseResult raw;
  std::vector<double> scaled_latency_ms;  // Sorted.
  double scaled_wall_s = 0.0;
};

// Runs `plan` as consecutive slices of about kSliceSeconds, each with its
// share of the deploys and, in the open loop, its own schedule, and calibrates
// the host after each slice. Requests in flight at the end of a slice finish
// before the calibration starts.
TimedPhase RunTimedPhase(OptimusHttpService& service, const Spec& spec, const PhasePlan& plan,
                         Rng* schedule_rng, HostSpeed* host, OutputBook* book) {
  TimedPhase timed;
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(std::llround(plan.seconds / kSliceSeconds)));
  const size_t deploys = plan.deploy_end - plan.deploy_begin;
  for (size_t k = 0; k < slices; ++k) {
    PhasePlan slice = plan;
    slice.seconds = plan.seconds / static_cast<double>(slices);
    slice.seed = plan.seed * 1009 + k;
    slice.deploy_begin = plan.deploy_begin + deploys * k / slices;
    slice.deploy_end = plan.deploy_begin + deploys * (k + 1) / slices;
    if (spec.shape == Shape::kOpen) {
      slice.schedule = OpenLoopSchedule(spec, slice.seconds, schedule_rng);
    }
    PhaseResult phase = RunPhase(service, spec, slice, book);
    const double scale = host->Scale();
    timed.scaled_wall_s += phase.wall_s * scale;
    for (ThreadStats& stats : phase.threads) {
      for (const double ms : stats.latency_ms) {
        timed.scaled_latency_ms.push_back(ms * scale);
      }
      timed.raw.threads.push_back(std::move(stats));
    }
    timed.raw.wall_s += phase.wall_s;
    timed.raw.deploy_s.insert(timed.raw.deploy_s.end(), phase.deploy_s.begin(),
                              phase.deploy_s.end());
    timed.raw.deploys_failed += phase.deploys_failed;
    timed.raw.violations.insert(timed.raw.violations.end(), phase.violations.begin(),
                                phase.violations.end());
  }
  std::sort(timed.raw.deploy_s.begin(), timed.raw.deploy_s.end());
  std::sort(timed.scaled_latency_ms.begin(), timed.scaled_latency_ms.end());
  return timed;
}

// Drains completed traces while a traced phase runs and folds them into
// per-layer self times; keeps the first few for the trace file.
class TraceDrainer {
 public:
  explicit TraceDrainer(telemetry::TraceCollector* collector)
      : collector_(collector), thread_([this] { Loop(); }) {}
  ~TraceDrainer() { Finish(); }

  TraceDrainer(const TraceDrainer&) = delete;
  TraceDrainer& operator=(const TraceDrainer&) = delete;

  // Stops the thread and folds whatever is left in the ring.
  void Finish() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      DrainOnce();
    }
  }

  const SpanTotals& totals() const { return totals_; }
  const std::vector<std::unique_ptr<telemetry::TraceContext>>& kept() const { return kept_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      DrainOnce();
    }
  }

  void DrainOnce() {
    for (std::unique_ptr<telemetry::TraceContext>& trace : collector_->Drain()) {
      totals_.AddTrace(trace->spans());
      if (kept_.size() < kKeptServerTraces) {
        kept_.push_back(std::move(trace));
      }
    }
  }

  telemetry::TraceCollector* collector_;
  SpanTotals totals_;
  std::vector<std::unique_ptr<telemetry::TraceContext>> kept_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: it reads the members above.
};

// Server traces (pid 1, one track per request) plus the benchmark's client
// spans (pid 2, one track per client thread), on one clock.
void WriteChromeTrace(const std::string& path, const TraceDrainer& drainer,
                      const PhaseResult& phase) {
  std::string json = telemetry::ExportChromeTrace(drainer.kept());
  const size_t close = json.rfind("]}");
  if (close == std::string::npos) {
    return;
  }
  std::string events;
  bool first = json[close - 1] == '[';
  const auto add = [&events, &first](const std::string& event) {
    events += (first ? "" : ",") + event;
    first = false;
  };
  add("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"optimus server\"}}");
  add("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"bench client\"}}");
  const auto span = [](const char* name, uint64_t start_ns, uint64_t dur_ns, size_t tid) {
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":2,\"tid\":%zu}",
                  name, static_cast<double>(start_ns) / 1e3, static_cast<double>(dur_ns) / 1e3,
                  tid);
    return std::string(buffer);
  };
  for (size_t t = 0; t < phase.threads.size(); ++t) {
    for (const ClientTiming& x : phase.threads[t].kept) {
      uint64_t at = x.start_ns;
      add(span("client_request", at, x.total_ns(), t));
      add(span("connect", at, x.connect_ns, t));
      at += x.connect_ns;
      add(span("send", at, x.send_ns, t));
      at += x.send_ns;
      add(span("wait", at, x.wait_ns, t));
      at += x.wait_ns;
      add(span("read", at, x.read_ns, t));
    }
  }
  json.insert(close, events);
  std::ofstream out(path, std::ios::trunc);
  out << json;
}

Spec MakeSpec(const RunOptions& options) {
  Spec spec;
  PlatformOptions& platform = spec.platform;
  platform.trace_sample_period = 0;  // Untraced until a traced phase turns it on.
  platform.trace_capacity = 1 << 15;
  const std::vector<int64_t> nas = {0, 1000, 5000, 12000};
  if (options.workload == "warm_small" || options.workload == "deploy_during_serve") {
    platform.num_nodes = 2;
    platform.containers_per_node = 4;
    for (const int64_t index : nas) {
      spec.names.push_back("nasbench_" + std::to_string(index));
      spec.deploy_requests.push_back(DeployRequest(spec.names.back(), BuildNasBenchModel(index)));
    }
    spec.expect_all_warm = true;
    if (options.workload == "deploy_during_serve") {
      spec.shape = Shape::kClosedWithDeploys;
      Rng rng(options.seed * 104729 + 17);
      std::set<int64_t> taken(nas.begin(), nas.end());
      const size_t count = options.smoke ? 8 : 64;
      while (spec.extra_names.size() < count) {
        const int64_t index = rng.UniformInt(0, kNasBenchSpaceSize - 1);
        if (taken.insert(index).second) {
          spec.extra_names.push_back("nasbench_" + std::to_string(index));
          spec.extra_deploy_requests.push_back(
              DeployRequest(spec.extra_names.back(), BuildNasBenchModel(index)));
        }
      }
    }
    return spec;
  }
  // churn_mixed: bases with fine-tuned variants (same structure, different
  // weights: _b/_c) beside distinct architectures, on fewer containers than
  // functions, with idle threshold and keep-alive short enough to churn.
  spec.shape = Shape::kOpen;
  platform.num_nodes = 4;
  platform.containers_per_node = 3;
  platform.idle_threshold = 0.15;
  platform.keep_alive = 2.5;
  spec.prime = false;
  spec.slo_ms = 250.0;
  spec.warmup_s = 2.0;
  spec.rate = 50.0;
  spec.expect_nonwarm = !options.smoke;
  // Listed by popularity rank, Zipf(1.0). The ranking is part of the
  // workload, not of the seed: which model is most popular moves every
  // latency metric, while the seed only draws arrival times and the function
  // of each request. Half-width CNNs and the two smallest BERTs keep the
  // deployed weights near 0.5 GB and a cold start near 0.1 s.
  const ModelRegistry bert = BertZoo();
  const ModelRegistry cnn = ImgclsmobZoo();
  const std::vector<std::pair<std::string, std::string>> functions = {
      {"resnet50", "resnet50_w0.500"},     {"bert_mini", "bert_mini"},
      {"resnet18", "resnet18_w0.500"},     {"bert_tiny", "bert_tiny"},
      {"mobilenet", "mobilenet_w0.50"},    {"resnet50_b", "resnet50_w0.500"},
      {"inception_v1", "inception_v1_c100"}, {"bert_mini_b", "bert_mini"},
      {"densenet121", "densenet121_g16"},  {"resnet101", "resnet101_w0.500"},
      {"bert_tiny_b", "bert_tiny"},        {"squeezenet", "squeezenet_c1000"},
      {"resnet50_c", "resnet50_w0.500"},   {"resnet152", "resnet152_w0.500"},
      {"bert_mini_c", "bert_mini"},        {"bert_tiny_c", "bert_tiny"},
  };
  for (size_t rank = 0; rank < functions.size(); ++rank) {
    const auto& [name, model] = functions[rank];
    spec.names.push_back(name);
    spec.deploy_requests.push_back(
        DeployRequest(name, bert.Has(model) ? bert.Build(model) : cnn.Build(model)));
    spec.popularity.push_back(1.0 / static_cast<double>(rank + 1));
  }
  return spec;
}

// One seeded input vector, sent to every function.
void AddInvokeRequests(uint64_t seed, Spec* spec) {
  Rng rng(seed * 6151 + 3);
  std::string input;
  for (int i = 0; i < 16; ++i) {
    char value[32];
    std::snprintf(value, sizeof(value), "%s%.6f", i > 0 ? "," : "", rng.Uniform(-1.0, 1.0));
    input += value;
  }
  for (const std::string& name : spec->names) {
    spec->invoke_requests.push_back(BuildPost("/invoke?name=" + name, input));
  }
}

// Starts a service, deploys every function in order (deploy order fixes the
// incremental placement), and primes each function once when the workload
// wants every function warm. Failures are recorded as violations.
std::unique_ptr<OptimusHttpService> SetUp(const Spec& spec, const CostModel* costs,
                                          OutputBook* book, Result* result) {
  auto service = std::make_unique<OptimusHttpService>(costs, spec.platform, GatewayOptions());
  service->Start(/*port=*/0, kServerWorkers);
  HttpClient client(service->port());
  for (size_t fn = 0; fn < spec.names.size(); ++fn) {
    ClientResponse response;
    ClientTiming timing;
    if (!client.Exchange(spec.deploy_requests[fn], &response, &timing) ||
        response.status != 200) {
      result->Violation("set-up deploy of " + spec.names[fn] + " failed");
    }
  }
  if (spec.prime) {
    ThreadStats stats;
    for (size_t fn = 0; fn < spec.names.size(); ++fn) {
      Invoke(client, spec, fn, 0, false, book, &stats);
    }
    for (const std::string& violation : stats.violations) {
      result->Violation(violation);
    }
    if (stats.ok != spec.names.size()) {
      result->Violation("priming invokes failed");
    }
  }
  return service;
}

// Every client thread's counts and samples merged (not the kept spans), with
// the latency samples sorted.
ThreadStats Sum(const PhaseResult& phase) {
  ThreadStats totals;
  for (const ThreadStats& stats : phase.threads) {
    totals.attempted += stats.attempted;
    totals.ok += stats.ok;
    totals.failed += stats.failed;
    totals.slo_met += stats.slo_met;
    totals.connects += stats.connects;
    totals.responses += stats.responses;
    for (size_t k = 0; k < 3; ++k) {
      totals.starts[k] += stats.starts[k];
    }
    totals.latency_ms.insert(totals.latency_ms.end(), stats.latency_ms.begin(),
                             stats.latency_ms.end());
    totals.late_ms_sum += stats.late_ms_sum;
    totals.connect_ns += stats.connect_ns;
    totals.send_ns += stats.send_ns;
    totals.wait_ns += stats.wait_ns;
    totals.read_ns += stats.read_ns;
  }
  std::sort(totals.latency_ms.begin(), totals.latency_ms.end());
  return totals;
}

// Correctness of one phase: failures, client-observed start counts against
// the platform's counters, and the workload's expected start mix.
void CheckPhase(const Spec& spec, const PhaseResult& phase, const ThreadStats& totals,
                const RegistryDelta& delta, Result* result) {
  for (const std::string& violation : phase.violations) {
    result->Violation(violation);
  }
  for (size_t k = 0; k < 3; ++k) {
    const uint64_t platform =
        delta.Counter(SeriesKey("optimus_starts_total", {{"kind", kStartKinds[k]}}));
    if (platform != totals.starts[k]) {
      result->Violation(std::string("client saw ") + std::to_string(totals.starts[k]) + " " +
                        kStartKinds[k] + " starts, platform counted " + std::to_string(platform));
    }
  }
  const uint64_t nonwarm = totals.starts[1] + totals.starts[2];
  if (spec.expect_all_warm && nonwarm != 0) {
    result->Violation(std::to_string(nonwarm) + " non-warm starts in an all-warm workload");
  }
  if (spec.expect_nonwarm && (totals.starts[1] == 0 || totals.starts[2] == 0)) {
    result->Violation("churn_mixed saw no transform or no cold start");
  }
  if (totals.ok == 0) {
    result->Violation("no successful invokes in the timed phase");
  }
}

// Per-layer metrics read off the untraced phase's registry delta.
void ReportLayers(const PhaseResult& phase, const ThreadStats& totals,
                  const RegistryDelta& delta, const RegistrySnapshot& after, Result* result) {
  const std::string request_key =
      SeriesKey("optimus_gateway_request_seconds", {{"route", "invoke"}});
  double invoke_sum_s = 0.0;
  for (const char* kind : kStartKinds) {
    invoke_sum_s += delta.SumSeconds(SeriesKey("optimus_invoke_seconds", {{"start", kind}}));
  }
  const double request_mean_ms = delta.MeanSeconds(request_key) * 1e3;
  const auto phase_ms = [&delta](const char* phase_name) {
    return delta.MeanSeconds(SeriesKey("optimus_phase_seconds", {{"phase", phase_name}})) * 1e3;
  };

  const double ok = static_cast<double>(totals.ok);
  const double attempted = static_cast<double>(totals.attempted);
  result->Layer("net.connects_per_req", "1/req",
                Ratio(static_cast<double>(totals.connects), attempted));
  const double exchange_ms =
      static_cast<double>(totals.connect_ns + totals.send_ns + totals.wait_ns + totals.read_ns) *
      1e-6;
  result->Layer("net.transport_ms", "ms",
                Ratio(exchange_ms, static_cast<double>(totals.responses)) - request_mean_ms);
  result->Layer("net.generator_late_ms", "ms", Ratio(totals.late_ms_sum, ok));
  result->Layer("gateway.service_ms", "ms",
                Ratio((delta.SumSeconds(request_key) - invoke_sum_s) * 1e3,
                      static_cast<double>(delta.Count(request_key))));
  result->Layer("gateway.batch_size_mean", "count",
                delta.MeanSeconds(SeriesKey("optimus_batch_size")));
  result->Layer("gateway.retries", "count",
                static_cast<double>(delta.Counter(SeriesKey("optimus_gateway_retries_total"))));
  result->Layer("gateway.sheds", "count",
                static_cast<double>(delta.Counter(SeriesKey("optimus_gateway_sheds_total"))));
  result->Layer("gateway.deadlines", "count",
                static_cast<double>(delta.Counter(SeriesKey("optimus_gateway_deadlines_total"))));
  for (const char* kind : kStartKinds) {
    result->Layer(std::string("platform.invoke_ms.") + kind, "ms",
                  delta.MeanSeconds(SeriesKey("optimus_invoke_seconds", {{"start", kind}})) * 1e3);
  }
  result->Layer("plan.decide_ms", "ms", phase_ms("decide"));
  const double hits =
      static_cast<double>(delta.Counter(SeriesKey("optimus_plan_cache_hits_total")));
  const double misses =
      static_cast<double>(delta.Counter(SeriesKey("optimus_plan_cache_misses_total")));
  result->Layer("plan.cache_hit_ratio", "ratio", Ratio(hits, hits + misses));
  // Planning over the serving instance's whole life: deploy-time plan
  // warming at set-up, plus deploys and lazy plans in the timed phase.
  const auto planning = after.histograms.find(SeriesKey("optimus_plan_seconds"));
  result->Layer("plan.planning_s", "s",
                planning != after.histograms.end() ? planning->second.sum_seconds : 0.0);
  const double transforms =
      static_cast<double>(totals.starts[static_cast<size_t>(StartType::kTransform)]);
  result->Layer("transform.ms", "ms", phase_ms("transform"));
  for (int k = 0; k < kNumMetaOpKinds; ++k) {
    const char* kind = MetaOpKindName(static_cast<MetaOpKind>(k));
    result->Layer(std::string("transform.meta_op_ms.") + kind, "ms",
                  Ratio(delta.SumSeconds(SeriesKey("optimus_meta_op_seconds", {{"kind", kind}})) * 1e3,
                        transforms));
  }
  const double transform_failures =
      static_cast<double>(delta.Counter(SeriesKey("optimus_transform_failures_total")));
  result->Layer("transform.success_ratio", "ratio",
                Ratio(transforms, transforms + transform_failures));
  result->Layer("load.scratch_ms", "ms", phase_ms("scratch_load"));
  result->Layer("inference.ms", "ms", phase_ms("inference"));
  for (size_t k = 0; k < 3; ++k) {
    result->Layer(std::string("starts.") + kStartKinds[k], "count",
                  static_cast<double>(totals.starts[k]));
  }
  result->Layer("slo_attainment", "ratio", Ratio(static_cast<double>(totals.slo_met), attempted));
  result->Layer("error_rate", "ratio", Ratio(static_cast<double>(totals.failed), attempted));
  result->Layer("nonwarm_share", "ratio",
                Ratio(static_cast<double>(totals.starts[1] + totals.starts[2]), ok));
  result->Layer("deploy_p50_s", "s", benchutil::ExactPercentile(phase.deploy_s, 0.5));
}

double ParseMicros(const std::string& request) {
  // ParseHttpRequest on the exact bytes the benchmark sends, median of 10k
  // calls, each timed on its own.
  std::vector<double> micros;
  micros.reserve(10000);
  HttpRequest parsed;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t start = telemetry::MonotonicNanos();
    const bool complete = ParseHttpRequest(request, &parsed);
    micros.push_back(static_cast<double>(telemetry::MonotonicNanos() - start) * 1e-3);
    if (!complete) {
      return 0.0;
    }
  }
  std::sort(micros.begin(), micros.end());
  return benchutil::ExactPercentile(std::move(micros), 0.5);
}

// The traced layer metrics; all zero in an untraced run.
void ReportSelfTimes(double overhead, double client_mean_ms, std::map<std::string, double> self_ms,
                     Result* result) {
  double layer_sum_ms = 0.0;
  for (const auto& [layer, value] : self_ms) {
    layer_sum_ms += value;
  }
  result->Layer("trace.overhead", "ratio", overhead);
  result->Layer("trace.latency_mean_ms", "ms", client_mean_ms);
  result->Layer("trace.layer_sum_ms", "ms", layer_sum_ms);
  result->Layer("platform.self_ms", "ms", self_ms["platform"]);
  for (const char* layer : {"generator", "client", "gateway", "decide", "plan_lookup", "meta_op",
                            "scratch_load", "inference"}) {
    result->Layer(std::string("trace.self_ms.") + layer, "ms", self_ms[layer]);
  }
}

// Runs `plan` with every request traced, and splits the client's latency into
// per-layer self times (TracedSelfTimes): the client's exchange minus the
// gateway's request time from the registry, and each server span minus its
// children from the traces.
void RunTracedPhase(OptimusHttpService& service, const Spec& spec, const PhasePlan& plan,
                    double untraced_mean_ms, const std::string& trace_out, OutputBook* book,
                    Result* result) {
  telemetry::TraceCollector& collector = service.platform().traces();
  const uint64_t dropped_before = collector.TracesDropped();
  collector.set_sample_period(1);
  TraceDrainer drainer(&collector);
  const RegistrySnapshot before = TakeSnapshot(service.platform().metrics());
  const PhaseResult phase = RunPhase(service, spec, plan, book);
  const RegistrySnapshot after = TakeSnapshot(service.platform().metrics());
  collector.set_sample_period(0);
  drainer.Finish();
  for (const std::string& violation : phase.violations) {
    result->Violation(violation);
  }
  const ThreadStats totals = Sum(phase);
  result->attempted += totals.attempted + phase.deploy_s.size() + phase.deploys_failed;
  result->failed += totals.failed + phase.deploys_failed;
  if (collector.TracesDropped() != dropped_before) {
    result->Violation("trace ring overflowed during the traced phase");
  }
  ClientTotals client;
  client.responses = totals.responses;
  client.ok = totals.ok;
  client.exchange_ms =
      static_cast<double>(totals.connect_ns + totals.send_ns + totals.wait_ns + totals.read_ns) *
      1e-6;
  client.late_ms = totals.late_ms_sum;
  const double request_s = RegistryDelta(before, after).SumSeconds(
      SeriesKey("optimus_gateway_request_seconds", {{"route", "invoke"}}));
  const double mean_ms = Mean(totals.latency_ms);
  ReportSelfTimes(Ratio(mean_ms, untraced_mean_ms), mean_ms,
                  TracedSelfTimes(client, request_s, drainer.totals()), result);
  if (!trace_out.empty()) {
    WriteChromeTrace(trace_out, drainer, phase);
  }
}

}  // namespace

Result RunHttpWorkload(const RunOptions& options) {
  Result result;
  result.workload = options.workload;
  Spec spec = MakeSpec(options);
  AddInvokeRequests(options.seed, &spec);
  const AnalyticCostModel costs;
  OutputBook book(spec.names.size());
  const double seconds = options.smoke ? 1.0 : options.seconds;
  // The untraced phase is the whole timed length, or its first half in a
  // traced run.
  const double untraced_s = options.traced ? seconds / 2.0 : seconds;
  Rng schedule_rng(options.seed * 2654435761ULL + 11);

  // Set-up, repeated: each instance is torn down except the last. The host is
  // calibrated before and after each, and setup_s is the median scaled time.
  const bool single_setup = options.traced || options.smoke;
  HostSpeed host;
  std::vector<double> setup_s;
  std::vector<double> scaled_setup_s;
  std::unique_ptr<OptimusHttpService> service;
  while (setup_s.empty() || (!single_setup && AnotherSetUp(setup_s))) {
    if (service != nullptr) {
      service->Stop();
      service.reset();
    }
    const uint64_t start = telemetry::MonotonicNanos();
    service = SetUp(spec, &costs, &book, &result);
    setup_s.push_back(static_cast<double>(telemetry::MonotonicNanos() - start) * 1e-9);
    scaled_setup_s.push_back(setup_s.back() * host.Scale());
  }

  // Warm-up: the same invokes, untimed and without deploys, so timing starts
  // in steady state.
  {
    PhasePlan warmup;
    warmup.seconds = options.smoke ? 0.2 : spec.warmup_s;
    warmup.seed = options.seed + 1000;
    if (spec.shape == Shape::kOpen) {
      warmup.schedule = OpenLoopSchedule(spec, warmup.seconds, &schedule_rng);
    }
    const PhaseResult phase = RunPhase(*service, spec, warmup, &book);
    for (const std::string& violation : phase.violations) {
      result.Violation(violation);
    }
  }

  const size_t deploy_split = options.traced ? spec.extra_names.size() / 2 : spec.extra_names.size();
  PhasePlan plan;
  plan.seconds = untraced_s;
  plan.seed = options.seed;
  plan.deploy_end = deploy_split;
  host.Scale();  // The first slice is timed from here.
  const RegistrySnapshot before = TakeSnapshot(service->platform().metrics());
  const TimedPhase timed = RunTimedPhase(*service, spec, plan, &schedule_rng, &host, &book);
  const RegistrySnapshot after = TakeSnapshot(service->platform().metrics());
  const PhaseResult& phase = timed.raw;
  const RegistryDelta delta(before, after);
  const ThreadStats totals = Sum(phase);
  CheckPhase(spec, phase, totals, delta, &result);
  result.attempted = totals.attempted + phase.deploy_s.size() + phase.deploys_failed;
  result.failed = totals.failed + phase.deploys_failed;

  // Gated times are scaled to the reference host speed (HostSpeed); the
  // per-layer times are as measured. The open loop's throughput is not: its
  // schedule runs on the wall clock whatever the host's speed.
  const std::vector<double>& latency_ms = timed.scaled_latency_ms;
  std::sort(scaled_setup_s.begin(), scaled_setup_s.end());
  result.EndToEnd("setup_s", "s", benchutil::ExactPercentile(scaled_setup_s, 0.5));
  result.EndToEnd("throughput_rps", "1/s",
                  static_cast<double>(totals.ok) /
                      (spec.shape == Shape::kOpen ? phase.wall_s : timed.scaled_wall_s));
  result.EndToEnd("latency_mean_ms", "ms", Mean(latency_ms));
  result.EndToEnd("latency_p50_ms", "ms", benchutil::ExactPercentile(latency_ms, 0.5));
  result.EndToEnd("latency_p95_ms", "ms", benchutil::ExactPercentile(latency_ms, 0.95));
  // The 99th percentile is reported but not gated: on churn_mixed it is set
  // by which requests happen to queue behind a cold start, and moves by a
  // third between seeds.
  result.Layer("latency_p99_ms", "ms", benchutil::ExactPercentile(latency_ms, 0.99));
  ReportLayers(phase, totals, delta, after, &result);
  result.Layer("gateway.parse_us", "us", ParseMicros(spec.invoke_requests.front()));
  const double mean_ms = Mean(totals.latency_ms);

  if (options.traced) {
    PhasePlan traced = plan;
    traced.deploy_begin = deploy_split;
    traced.deploy_end = spec.extra_names.size();
    traced.seed = options.seed + 1;
    traced.keep = true;
    if (spec.shape == Shape::kOpen) {
      traced.schedule = OpenLoopSchedule(spec, traced.seconds, &schedule_rng);
    }
    RunTracedPhase(*service, spec, traced, mean_ms, options.trace_out, &book, &result);
  } else {
    ReportSelfTimes(0.0, 0.0, {}, &result);
  }
  service->Stop();
  result.EndToEnd("peak_rss_mb", "MB", PeakRssMb());
  result.Layer("host.calibration_ms", "ms", host.mean_ms());
  return result;
}

}  // namespace e2e
}  // namespace optimus
