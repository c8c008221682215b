// The Optimus REST gateway service (§7): HTTP routes over OptimusPlatform.
//
// Routes:
//   POST /deploy?name=<fn>   body = serialized model file  -> deploys <fn>
//   POST /invoke?name=<fn>   body = comma-separated floats -> runs inference
//        [&deadline=<sec>]   per-request deadline override (wall seconds)
//        [&tenant=<id>]      tenant attribution for token-bucket admission
//                            (quota-aware 429 + Retry-After when exhausted)
//   GET  /functions                                        -> registered names
//   GET  /stats                                            -> counters (incl.
//                            a placement block: version/policy/rebalances)
//   GET  /placement          placement table state as JSON (version, policy,
//                            per-node function counts, rebalance counters)
//   POST /rebalance          synchronously recomputes the placement
//                            (reason="manual"); JSON {"swapped":...,"version":...}
//        [?dry_run=1]        preview only: runs the same solver but never
//                            swaps the table; JSON {"dry_run":true,"version",
//                            "would_move","unchanged","moves":[{function,
//                            from,to}...],"truncated"}
//   GET  /demand             per-function demand history (the slotted series
//                            the placement solver and forecaster consume)
//   GET  /warming            warming subsystem state + counters as JSON
//                            (DESIGN.md §17)
//   POST /warming/enable     turn the forecast-driven warming loop on
//   POST /warming/disable    turn it off (in-flight cycle finishes)
//   POST /warming/run        run one synchronous warming cycle now; JSON
//                            includes the number of executed pre-warm orders
//   GET  /healthz            cluster health: per-node lifecycle state,
//                            draining/accepting counts, placement version
//   POST /nodes/<id>/drain   revoke a node (grace window; ?grace=<sec>
//                            overrides, 0 kills immediately)
//   POST /nodes/<id>/revive  bring a Down node back into rotation
//   GET  /metrics            Prometheus text exposition of the platform's
//                            metrics registry (DESIGN.md §12)
//   GET  /trace              drains completed request traces as Chrome
//                            trace_event JSON (chrome://tracing, Perfetto)
//
// Invocation responses are line-oriented "key=value" text:
//   start=Warm|Transform|Cold
//   estimated_latency=<seconds>
//   donor=<function>           (only when a transformation occurred)
//   output=<csv of the first 8 output values>
//
// Error responses map the platform's ErrorCode taxonomy to HTTP statuses and
// carry a JSON body {"error":{"code":"<NAME>","http":<status>,"message":...}}:
//   400 INVALID_ARGUMENT   bad input / malformed request
//   404 NOT_FOUND          unknown function or route
//   409 ALREADY_EXISTS     duplicate deploy
//   429 RESOURCE_EXHAUSTED shed: too many in-flight invokes (back off, retry)
//   500 INTERNAL           permanent internal failure
//   503 UNAVAILABLE        transient failure, retries exhausted (or dropped)
//   504 DEADLINE_EXCEEDED  per-request deadline expired
//
// Each /invoke is handed straight to the platform (§7): every attempt is one
// OptimusPlatform::TryInvoke on the request's own worker thread.
//
// Failure hardening (DESIGN.md §11): each /invoke gets a wall-clock deadline;
// retryable (UNAVAILABLE) platform errors are retried with exponential
// backoff plus deterministic jitter while the deadline allows; when more than
// max_inflight_invokes requests are already being served, new invokes are
// shed immediately with 429 rather than queued into collapse.

#ifndef OPTIMUS_SRC_GATEWAY_SERVICE_H_
#define OPTIMUS_SRC_GATEWAY_SERVICE_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sync.h"
#include "src/core/platform.h"
#include "src/gateway/http.h"

namespace optimus {

struct GatewayOptions {
  // Wall-clock deadline per /invoke (seconds); 0 disables. Overridable per
  // request with ?deadline=<sec>.
  double default_deadline = 1.0;
  // Additional attempts for retryable (UNAVAILABLE) platform errors.
  int max_retries = 2;
  // Base backoff before retry k is base * 2^k, scaled by a deterministic
  // jitter factor in [1, 2).
  double retry_backoff = 0.005;
  uint64_t jitter_seed = 0x5eed;
  // Invokes allowed in flight before new ones are shed with 429.
  int max_inflight_invokes = 64;
  // Delay injected when the "gateway.slow" fault point fires.
  double slow_fault_delay = 0.05;
  // Per-tenant admission (DESIGN.md §16): requests carrying ?tenant=<id> are
  // admitted through that tenant's token bucket — `tenant_rate` tokens/sec
  // refill, `tenant_burst` capacity (defaults to tenant_rate when <= 0).
  // A tenant over quota is rejected with 429 + Retry-After *before* the
  // global inflight check, so one tenant's burst can neither consume
  // inflight slots nor starve other tenants. <= 0 disables admission;
  // requests without a tenant attribute always bypass it.
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  // Default grace window (virtual seconds) for POST /nodes/<id>/drain,
  // overridable per request with ?grace=<sec>.
  double drain_grace = 30.0;
};

class OptimusHttpService {
 public:
  // `clock` supplies the platform's virtual time in seconds; the default uses
  // wall time since service construction. A caller-supplied clock must be
  // thread-safe: requests are handled concurrently on the server's workers.
  OptimusHttpService(const CostModel* costs, const PlatformOptions& options,
                     std::function<double()> clock = nullptr);
  OptimusHttpService(const CostModel* costs, const PlatformOptions& options,
                     const GatewayOptions& gateway, std::function<double()> clock = nullptr);

  // Starts serving on 127.0.0.1:`port` (0 picks an ephemeral port) with
  // `num_workers` concurrent request handlers.
  void Start(uint16_t port = 0, int num_workers = 4);
  void Stop();

  uint16_t port() const { return server_.port(); }
  OptimusPlatform& platform() { return platform_; }
  const GatewayOptions& gateway_options() const { return gateway_; }

  // Gateway-level counters (thin views over the platform's metrics registry,
  // which is the single source of truth — also exported via /stats and
  // /metrics).
  size_t Retries() const { return static_cast<size_t>(retries_.Value()); }
  size_t Sheds() const { return static_cast<size_t>(sheds_.Value()); }
  size_t Drops() const { return static_cast<size_t>(drops_.Value()); }
  size_t DeadlinesExceeded() const { return static_cast<size_t>(deadlines_.Value()); }

  // The route dispatcher (exposed for direct testing without sockets).
  // Thread-safe: routes delegate to the platform, which synchronizes itself,
  // so requests are served concurrently without a gateway-wide lock.
  HttpResponse Handle(const HttpRequest& request);

 private:
  // One tenant's token bucket plus its telemetry series (bound lazily on the
  // tenant's first request). State is guarded by tenant_mutex_.
  struct TenantBucket {
    double tokens = 0.0;
    double last_refill = 0.0;
    telemetry::Counter* requests = nullptr;
    telemetry::Counter* rejections = nullptr;
  };

  HttpResponse HandleDeploy(const HttpRequest& request);
  HttpResponse HandleInvoke(const HttpRequest& request);
  HttpResponse HandleHealthz();
  // POST /nodes/<id>/drain and /nodes/<id>/revive admin actions.
  HttpResponse HandleNodeAction(const HttpRequest& request);
  // POST /warming/enable|disable|run admin actions (DESIGN.md §17).
  HttpResponse HandleWarmingAction(const HttpRequest& request);
  // Token-bucket admission for `tenant` at clock_() time. Returns true when
  // admitted; otherwise *retry_after receives the seconds until the bucket
  // holds a full token again (the 429's Retry-After). The injected
  // `tenant.quota_exhausted` fault forces a rejection.
  bool AdmitTenant(const std::string& tenant, double* retry_after);
  // The shed-checked, deadline-bounded retry loop; `trace` may be null.
  HttpResponse InvokeWithRetries(const std::string& function, const std::vector<float>& input,
                                 double deadline, telemetry::TraceContext* trace);
  HttpResponse HandleMetrics();
  HttpResponse HandleTrace();
  double JitterFactor();  // Deterministic in [1, 2).

  OptimusPlatform platform_;
  GatewayOptions gateway_;
  std::function<double()> clock_;
  HttpServer server_;
  std::atomic<int> inflight_invokes_{0};
  telemetry::Counter& retries_;
  telemetry::Counter& sheds_;
  telemetry::Counter& drops_;
  telemetry::Counter& deadlines_;
  telemetry::Histogram& invoke_request_seconds_;
  telemetry::Gauge& live_containers_;
  telemetry::Gauge& functions_gauge_;
  // Per-tenant buckets. kTenantAdmission sits at the very bottom of the
  // hierarchy: admission runs before any other gateway/platform lock, holding
  // only this mutex (plus the registry's, rank-above, for first-request
  // series binding).
  Mutex tenant_mutex_{LockRank::kTenantAdmission, "gateway.tenant"};
  std::map<std::string, TenantBucket> tenant_buckets_ GUARDED_BY(tenant_mutex_);
  // kJitter is a leaf rank: JitterFactor holds it for one RNG draw only.
  Mutex jitter_mutex_{LockRank::kJitter, "gateway.jitter"};
  Rng jitter_rng_ GUARDED_BY(jitter_mutex_);
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_GATEWAY_SERVICE_H_
