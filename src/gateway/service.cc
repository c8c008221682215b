#include "src/gateway/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "src/common/clock.h"
#include "src/common/fault.h"

namespace optimus {

namespace {

std::vector<float> ParseFloats(const std::string& csv) {
  std::vector<float> values;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) {
      values.push_back(std::stof(token));
    }
  }
  return values;
}

std::string FormatOutput(const std::vector<float>& output, size_t limit = 8) {
  std::ostringstream out;
  for (size_t i = 0; i < output.size() && i < limit; ++i) {
    if (i > 0) {
      out << ",";
    }
    out << output[i];
  }
  return out.str();
}

std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

int HttpStatusFor(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return 200;
    case ErrorCode::kInvalidArgument:
      return 400;
    case ErrorCode::kNotFound:
      return 404;
    case ErrorCode::kAlreadyExists:
      return 409;
    case ErrorCode::kResourceExhausted:
      return 429;
    case ErrorCode::kUnavailable:
      return 503;
    case ErrorCode::kDeadlineExceeded:
      return 504;
    case ErrorCode::kInternal:
      return 500;
  }
  return 500;
}

HttpResponse JsonError(ErrorCode code, const std::string& message) {
  HttpResponse response;
  response.status = HttpStatusFor(code);
  response.content_type = "application/json";
  std::ostringstream body;
  body << "{\"error\":{\"code\":\"" << ErrorCodeName(code) << "\",\"http\":" << response.status
       << ",\"message\":\"" << JsonEscape(message) << "\"}}\n";
  response.body = body.str();
  return response;
}

HttpResponse JsonError(const Status& status) { return JsonError(status.code(), status.message()); }

// Monotonic wall seconds off the shared SystemClock (DESIGN.md §18) —
// deadline math and the default request clock read the same source.
double WallSeconds() { return SystemClock::Instance().Now(); }

}  // namespace

OptimusHttpService::OptimusHttpService(const CostModel* costs, const PlatformOptions& options,
                                       std::function<double()> clock)
    : OptimusHttpService(costs, options, GatewayOptions(), std::move(clock)) {}

OptimusHttpService::OptimusHttpService(const CostModel* costs, const PlatformOptions& options,
                                       const GatewayOptions& gateway,
                                       std::function<double()> clock)
    : platform_(costs, options),
      gateway_(gateway),
      clock_(std::move(clock)),
      retries_(platform_.metrics().GetCounter("optimus_gateway_retries_total", {},
                                              "Invoke retries after retryable platform errors")),
      sheds_(platform_.metrics().GetCounter("optimus_gateway_sheds_total", {},
                                            "Invokes shed with 429 at saturation")),
      drops_(platform_.metrics().GetCounter("optimus_gateway_drops_total", {},
                                            "Invokes dropped by the gateway.drop fault point")),
      deadlines_(platform_.metrics().GetCounter("optimus_gateway_deadlines_total", {},
                                                "Invokes rejected with 504 (deadline expired)")),
      invoke_request_seconds_(
          platform_.metrics().GetHistogram("optimus_gateway_request_seconds",
                                           {{"route", "invoke"}},
                                           "Gateway wall seconds per request by route")),
      live_containers_(platform_.metrics().GetGauge("optimus_live_containers", {},
                                                    "Containers currently alive")),
      functions_gauge_(platform_.metrics().GetGauge("optimus_functions", {},
                                                    "Functions registered in the repository")),
      jitter_rng_(gateway.jitter_seed) {
  if (!clock_) {
    // Default to the process-wide SystemClock so gateway timestamps, platform
    // keep-alive, and warming cadence share one monotonic time source.
    clock_ = [] { return SystemClock::Instance().Now(); };
  }
}

void OptimusHttpService::Start(uint16_t port, int num_workers) {
  server_.Start(port, [this](const HttpRequest& request) { return Handle(request); },
                num_workers);
}

void OptimusHttpService::Stop() { server_.Stop(); }

double OptimusHttpService::JitterFactor() {
  MutexLock lock(jitter_mutex_);
  return 1.0 + jitter_rng_.NextDouble();
}

HttpResponse OptimusHttpService::HandleDeploy(const HttpRequest& request) {
  auto name = request.query.find("name");
  if (name == request.query.end() || name->second.empty()) {
    return JsonError(ErrorCode::kInvalidArgument, "missing ?name=");
  }
  try {
    platform_.DeployFile(name->second, ModelFile(request.body.begin(), request.body.end()));
  } catch (const std::invalid_argument& error) {
    return JsonError(ErrorCode::kAlreadyExists, error.what());
  } catch (const std::exception& error) {
    return JsonError(ErrorCode::kInvalidArgument, error.what());
  }
  HttpResponse response;
  response.body = "deployed " + name->second + "\n";
  return response;
}

bool OptimusHttpService::AdmitTenant(const std::string& tenant, double* retry_after) {
  const double now = clock_();
  const double burst =
      gateway_.tenant_burst > 0.0 ? gateway_.tenant_burst : gateway_.tenant_rate;
  MutexLock lock(tenant_mutex_);
  TenantBucket& bucket = tenant_buckets_[tenant];
  if (bucket.requests == nullptr) {
    // First request from this tenant: full bucket, bind its series.
    bucket.tokens = burst;
    bucket.last_refill = now;
    bucket.requests = &platform_.metrics().GetCounter(
        "optimus_gateway_tenant_requests_total", {{"tenant", tenant}},
        "Invoke requests per tenant (admitted + rejected)");
    bucket.rejections = &platform_.metrics().GetCounter(
        "optimus_gateway_tenant_rejections_total", {{"tenant", tenant}},
        "Invokes rejected 429 by the tenant's token bucket");
  }
  bucket.requests->Inc();
  bucket.tokens = std::min(
      burst, bucket.tokens + std::max(0.0, now - bucket.last_refill) * gateway_.tenant_rate);
  bucket.last_refill = now;
  if (!fault::Triggered("tenant.quota_exhausted") && bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  bucket.rejections->Inc();
  const double deficit = bucket.tokens < 1.0 ? 1.0 - bucket.tokens : 1.0;
  *retry_after = deficit / gateway_.tenant_rate;
  return false;
}

HttpResponse OptimusHttpService::HandleInvoke(const HttpRequest& request) {
  // Per-tenant admission runs before anything else — a tenant over quota is
  // turned away without consuming an inflight slot, so its burst cannot
  // crowd out other tenants' capacity (DESIGN.md §16).
  if (gateway_.tenant_rate > 0.0) {
    const auto tenant = request.query.find("tenant");
    if (tenant != request.query.end() && !tenant->second.empty()) {
      double retry_after = 0.0;
      if (!AdmitTenant(tenant->second, &retry_after)) {
        HttpResponse response = JsonError(
            ErrorCode::kResourceExhausted,
            "tenant '" + tenant->second + "' quota exhausted; retry after Retry-After seconds");
        // Retry-After is integral delay-seconds (RFC 7231); round up, min 1.
        response.headers["Retry-After"] =
            std::to_string(std::max<long long>(1, std::llround(std::ceil(retry_after))));
        return response;
      }
    }
  }

  // Load shedding next: when the gateway is saturated, refuse immediately
  // with 429 instead of queueing into collapse.
  if (inflight_invokes_.fetch_add(1, std::memory_order_acq_rel) >=
      gateway_.max_inflight_invokes) {
    inflight_invokes_.fetch_sub(1, std::memory_order_acq_rel);
    sheds_.Inc();
    return JsonError(ErrorCode::kResourceExhausted, "gateway saturated; request shed");
  }
  struct InflightGuard {
    std::atomic<int>* counter;
    ~InflightGuard() { counter->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&inflight_invokes_};

  auto name = request.query.find("name");
  if (name == request.query.end() || name->second.empty()) {
    return JsonError(ErrorCode::kInvalidArgument, "missing ?name=");
  }

  double deadline = gateway_.default_deadline;
  auto deadline_param = request.query.find("deadline");
  if (deadline_param != request.query.end()) {
    try {
      deadline = std::stod(deadline_param->second);
    } catch (const std::exception&) {
      return JsonError(ErrorCode::kInvalidArgument,
                       "malformed ?deadline=" + deadline_param->second);
    }
    if (deadline < 0.0) {
      return JsonError(ErrorCode::kInvalidArgument, "?deadline= must be >= 0");
    }
  }

  std::vector<float> input;
  try {
    input = ParseFloats(request.body);
  } catch (const std::exception&) {
    return JsonError(ErrorCode::kInvalidArgument, "malformed input vector");
  }

  // Trace lifecycle: the sampled context is created here (the request's
  // entry point), threaded through the retry loop into the platform, and
  // always published to the collector — the RAII request span closes on
  // every return path, so span accounting reconciles even under faults.
  const uint64_t request_start_ns = telemetry::MonotonicNanos();
  std::unique_ptr<telemetry::TraceContext> trace =
      platform_.traces().MaybeStartTrace(name->second);
  HttpResponse response;
  {
    telemetry::ScopedSpan request_span(trace.get(), "request", "gateway");
    response = InvokeWithRetries(name->second, input, deadline, trace.get());
    request_span.Arg("http_status", static_cast<double>(response.status));
  }
  platform_.traces().Finish(std::move(trace));
  invoke_request_seconds_.Observe(
      static_cast<double>(telemetry::MonotonicNanos() - request_start_ns) * 1e-9);
  return response;
}

HttpResponse OptimusHttpService::InvokeWithRetries(const std::string& function,
                                                   const std::vector<float>& input,
                                                   double deadline,
                                                   telemetry::TraceContext* trace) {
  const double start = WallSeconds();

  // Injected gateway faults: a dropped request surfaces as 503 (the client
  // may retry); a slow one eats into the deadline below.
  if (fault::Triggered("gateway.drop")) {
    drops_.Inc();
    return JsonError(ErrorCode::kUnavailable, "request dropped (injected fault)");
  }
  if (fault::Triggered("gateway.slow")) {
    std::this_thread::sleep_for(std::chrono::duration<double>(gateway_.slow_fault_delay));
  }

  for (int attempt = 0;; ++attempt) {
    if (deadline > 0.0 && WallSeconds() - start >= deadline) {
      deadlines_.Inc();
      return JsonError(ErrorCode::kDeadlineExceeded,
                       "deadline of " + std::to_string(deadline) + "s exceeded");
    }
    InvokeResult result;
    const Status status = platform_.TryInvoke(function, input, clock_(), &result, trace);
    if (status.ok()) {
      std::ostringstream body;
      body << "start=" << StartTypeName(result.start) << "\n"
           << "estimated_latency=" << result.estimated_latency << "\n";
      if (!result.donor_function.empty()) {
        body << "donor=" << result.donor_function << "\n";
      }
      body << "output=" << FormatOutput(result.output) << "\n";
      HttpResponse response;
      response.body = body.str();
      return response;
    }
    if (!IsRetryable(status.code()) || attempt >= gateway_.max_retries) {
      return JsonError(status);
    }
    // Exponential backoff with deterministic jitter before the retry.
    retries_.Inc();
    const double backoff =
        gateway_.retry_backoff * static_cast<double>(1 << attempt) * JitterFactor();
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

HttpResponse OptimusHttpService::HandleHealthz() {
  // Cluster health at a glance (DESIGN.md §16): per-node lifecycle state,
  // draining/accepting counts, and the serving placement version. "ok" means
  // every node accepts routes; anything less is "degraded" (but still 200 —
  // the gateway itself is serving).
  const std::vector<NodeLifecycle> states = platform_.NodeLifecycles();
  const int accepting = platform_.AcceptingNodes();
  std::ostringstream body;
  body << "{\"status\":\""
       << (accepting == static_cast<int>(states.size()) ? "ok" : "degraded") << "\",\"nodes\":[";
  for (size_t node = 0; node < states.size(); ++node) {
    if (node > 0) {
      body << ",";
    }
    body << "{\"node\":" << node << ",\"state\":\"" << NodeLifecycleName(states[node]) << "\"}";
  }
  body << "],\"num_nodes\":" << states.size() << ",\"accepting\":" << accepting
       << ",\"draining\":" << platform_.DrainingNodes()
       << ",\"placement_version\":" << platform_.PlacementVersion()
       << ",\"rebalances\":" << platform_.placement().Rebalances() << "}\n";
  HttpResponse response;
  response.content_type = "application/json";
  response.body = body.str();
  return response;
}

HttpResponse OptimusHttpService::HandleNodeAction(const HttpRequest& request) {
  // POST /nodes/<id>/drain [?grace=<sec>]  and  POST /nodes/<id>/revive.
  const std::string rest = request.path.substr(sizeof("/nodes/") - 1);
  const size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    return JsonError(ErrorCode::kNotFound, "no such route: POST " + request.path);
  }
  int node = -1;
  try {
    size_t consumed = 0;
    node = std::stoi(rest.substr(0, slash), &consumed);
    if (consumed != slash) {
      throw std::invalid_argument("trailing characters");
    }
  } catch (const std::exception&) {
    return JsonError(ErrorCode::kInvalidArgument, "malformed node id in " + request.path);
  }
  if (node < 0 || node >= platform_.num_nodes()) {
    return JsonError(ErrorCode::kNotFound, "no such node: " + std::to_string(node));
  }
  const std::string action = rest.substr(slash + 1);
  bool ok = false;
  double grace = gateway_.drain_grace;
  if (action == "drain") {
    const auto grace_param = request.query.find("grace");
    if (grace_param != request.query.end()) {
      try {
        grace = std::stod(grace_param->second);
      } catch (const std::exception&) {
        return JsonError(ErrorCode::kInvalidArgument, "malformed ?grace=" + grace_param->second);
      }
    }
    ok = platform_.RevokeNode(node, grace, clock_());
  } else if (action == "revive") {
    ok = platform_.ReviveNode(node);
  } else {
    return JsonError(ErrorCode::kNotFound, "no such node action: " + action);
  }
  std::ostringstream body;
  body << "{\"node\":" << node << ",\"action\":\"" << action << "\",\"ok\":"
       << (ok ? "true" : "false") << ",\"state\":\""
       << NodeLifecycleName(platform_.NodeState(node)) << "\"";
  if (action == "drain") {
    body << ",\"grace\":" << grace;
  }
  body << "}\n";
  HttpResponse response;
  response.content_type = "application/json";
  response.body = body.str();
  return response;
}

HttpResponse OptimusHttpService::HandleWarmingAction(const HttpRequest& request) {
  // POST /warming/enable, /warming/disable, /warming/run.
  const std::string action = request.path.substr(sizeof("/warming/") - 1);
  std::ostringstream body;
  if (action == "enable" || action == "disable") {
    platform_.SetWarmingEnabled(action == "enable");
    body << "{\"action\":\"" << action
         << "\",\"enabled\":" << (platform_.WarmingEnabled() ? "true" : "false") << "}\n";
  } else if (action == "run") {
    // Synchronous warming cycle on the caller's thread (deterministic for
    // tests and operators; the background loop uses the same WarmNow).
    const size_t executed = platform_.WarmNow(clock_());
    body << "{\"action\":\"run\",\"enabled\":"
         << (platform_.WarmingEnabled() ? "true" : "false") << ",\"executed\":" << executed
         << "}\n";
  } else {
    return JsonError(ErrorCode::kNotFound, "no such warming action: " + action);
  }
  HttpResponse response;
  response.content_type = "application/json";
  response.body = body.str();
  return response;
}

HttpResponse OptimusHttpService::HandleMetrics() {
  // Point-in-time gauges are refreshed at scrape time, Prometheus-style.
  live_containers_.Set(static_cast<double>(platform_.NumLiveContainers()));
  functions_gauge_.Set(static_cast<double>(platform_.NumFunctions()));
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = platform_.metrics().RenderPrometheus();
  return response;
}

HttpResponse OptimusHttpService::HandleTrace() {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = telemetry::ExportChromeTrace(platform_.traces().Drain());
  return response;
}

HttpResponse OptimusHttpService::Handle(const HttpRequest& request) {
  if (request.method == "POST" && request.path == "/deploy") {
    return HandleDeploy(request);
  }

  if (request.method == "POST" && request.path == "/invoke") {
    return HandleInvoke(request);
  }

  if (request.method == "GET" && request.path == "/stats") {
    const PlatformCounters counters = platform_.counters();
    const PlanCache& cache = platform_.plan_cache();
    std::ostringstream body;
    body << "functions=" << platform_.NumFunctions() << "\n"
         << "containers=" << platform_.NumLiveContainers() << "\n"
         << "warm=" << counters.warm_starts << "\n"
         << "transform=" << counters.transforms << "\n"
         << "cold=" << counters.cold_starts << "\n"
         << "transform_failures=" << counters.transform_failures << "\n"
         << "transform_fallbacks=" << counters.transform_fallbacks << "\n"
         << "decide_failures=" << counters.decide_failures << "\n"
         << "failed_invokes=" << counters.failed_invokes << "\n"
         << "node_revocations=" << counters.node_revocations << "\n"
         << "node_revives=" << counters.node_revives << "\n"
         << "reclaimed_containers=" << counters.reclaimed_containers << "\n"
         << "accepting_nodes=" << counters.accepting_nodes << "\n"
         << "draining_nodes=" << counters.draining_nodes << "\n"
         << "cached_plans=" << cache.Size() << "\n"
         << "quarantined_pairs=" << cache.QuarantinedPairs() << "\n"
         << "execution_failures=" << cache.ExecutionFailures() << "\n"
         << "gateway_retries=" << Retries() << "\n"
         << "gateway_sheds=" << Sheds() << "\n"
         << "gateway_drops=" << Drops() << "\n"
         << "gateway_deadlines=" << DeadlinesExceeded() << "\n"
         << "warming_enabled=" << (platform_.WarmingEnabled() ? 1 : 0) << "\n"
         << "warming_cycles=" << counters.warming_cycles << "\n"
         << "warming_orders=" << counters.warming_orders << "\n"
         << "warming_prewarms_cold=" << counters.warming_prewarms_cold << "\n"
         << "warming_prewarms_transform=" << counters.warming_prewarms_transform << "\n"
         << "warming_hits=" << counters.warming_hits << "\n"
         << "warming_misses=" << counters.warming_misses << "\n"
         << "warming_waste=" << counters.warming_waste << "\n"
         << "warming_skipped=" << counters.warming_skipped << "\n"
         << "warming_failures=" << counters.warming_failures << "\n"
         << "placement_version=" << platform_.PlacementVersion() << "\n"
         << "placement_policy=" << BalancerKindId(platform_.placement().options().policy.kind)
         << "\n"
         << "rebalances=" << platform_.placement().Rebalances() << "\n"
         << "rebalance_failures=" << platform_.placement().RebalanceFailures() << "\n"
         << "placement=" << platform_.placement().StatsJson() << "\n";
    HttpResponse response;
    response.body = body.str();
    return response;
  }

  if (request.method == "GET" && request.path == "/healthz") {
    return HandleHealthz();
  }

  if (request.method == "POST" && request.path.rfind("/nodes/", 0) == 0) {
    return HandleNodeAction(request);
  }

  if (request.method == "GET" && request.path == "/metrics") {
    return HandleMetrics();
  }

  if (request.method == "GET" && request.path == "/trace") {
    return HandleTrace();
  }

  if (request.method == "GET" && request.path == "/placement") {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = platform_.placement().StatsJson() + "\n";
    return response;
  }

  if (request.method == "GET" && request.path == "/demand") {
    // Per-function demand history — the exact slotted series the placement
    // solver's correlation term and the warming forecaster consume.
    const std::map<std::string, DemandSeries> history = platform_.placement().DemandHistory();
    std::ostringstream body;
    body << "{\"slots\":" << platform_.placement().DemandSlots() << ",\"functions\":{";
    bool first = true;
    for (const auto& [function, series] : history) {
      if (!first) {
        body << ",";
      }
      first = false;
      body << "\"" << JsonEscape(function) << "\":[";
      for (size_t i = 0; i < series.size(); ++i) {
        if (i > 0) {
          body << ",";
        }
        body << series[i];
      }
      body << "]";
    }
    body << "}}\n";
    HttpResponse response;
    response.content_type = "application/json";
    response.body = body.str();
    return response;
  }

  if (request.method == "GET" && request.path == "/warming") {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = platform_.WarmingStatsJson() + "\n";
    return response;
  }

  if (request.method == "POST" && request.path.rfind("/warming/", 0) == 0) {
    return HandleWarmingAction(request);
  }

  if (request.method == "POST" && request.path == "/rebalance") {
    const auto dry = request.query.find("dry_run");
    if (dry != request.query.end() && dry->second != "0" && dry->second != "false") {
      // Dry run: same solver, no snapshot swap — report the would-be moves.
      PlacementDiff diff;
      try {
        diff = platform_.PreviewRebalance();
      } catch (const std::exception& error) {
        return JsonError(ErrorCode::kInternal, error.what());
      }
      constexpr size_t kMaxMoves = 64;
      std::ostringstream body;
      body << "{\"dry_run\":true,\"version\":" << diff.version
           << ",\"would_move\":" << diff.moves.size() << ",\"unchanged\":" << diff.unchanged
           << ",\"moves\":[";
      for (size_t i = 0; i < diff.moves.size() && i < kMaxMoves; ++i) {
        if (i > 0) {
          body << ",";
        }
        body << "{\"function\":\"" << JsonEscape(diff.moves[i].function)
             << "\",\"from\":" << diff.moves[i].from << ",\"to\":" << diff.moves[i].to << "}";
      }
      body << "],\"truncated\":" << (diff.moves.size() > kMaxMoves ? "true" : "false") << "}\n";
      HttpResponse response;
      response.content_type = "application/json";
      response.body = body.str();
      return response;
    }
    const bool swapped = platform_.RebalanceNow("manual");
    HttpResponse response;
    response.content_type = "application/json";
    std::ostringstream body;
    body << "{\"swapped\":" << (swapped ? "true" : "false")
         << ",\"version\":" << platform_.PlacementVersion() << "}\n";
    response.body = body.str();
    return response;
  }

  if (request.method == "GET" && request.path == "/functions") {
    HttpResponse response;
    response.body = "count=" + std::to_string(platform_.NumFunctions()) + "\n";
    return response;
  }

  return JsonError(ErrorCode::kNotFound,
                   "no such route: " + request.method + " " + request.path);
}

}  // namespace optimus
