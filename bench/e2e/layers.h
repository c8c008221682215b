// Measurement helpers for the end-to-end benchmark: registry snapshots and
// their deltas, span self-time aggregation, and the result record optimus_e2e
// prints.
//
// Every layer is measured from outside the program: the benchmark reads the
// platform's public metrics registry before and after a timed phase and
// subtracts, and it folds completed request traces into per-layer self times
// (a span's duration minus the part of it its child spans cover).

#ifndef OPTIMUS_BENCH_E2E_LAYERS_H_
#define OPTIMUS_BENCH_E2E_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace optimus {
namespace e2e {

// Series label of each StartType, indexed by its value.
inline constexpr const char* kStartKinds[3] = {"warm", "transform", "cold"};

// num / den, or 0 when den is 0 (a layer that did no work).
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Mean(const std::vector<double>& values);

// "name{k=v,...}" — the key a series is stored under in a snapshot.
std::string SeriesKey(const std::string& name, const telemetry::Labels& labels = {});

// Every histogram series of a registry plus a fixed list of counters.
struct RegistrySnapshot {
  std::map<std::string, telemetry::HistogramSnapshot> histograms;
  std::map<std::string, uint64_t> counters;
};

// Snapshots `registry`. The counters read are the platform's and gateway's
// request-path counters (starts, retries, sheds, plan-cache lookups, ...).
RegistrySnapshot TakeSnapshot(telemetry::MetricsRegistry& registry);

// after - before, series by series. A series absent from `before` counts from
// zero. Histogram maxima are not differenced (they are not additive).
class RegistryDelta {
 public:
  RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after);

  uint64_t Count(const std::string& key) const;
  double SumSeconds(const std::string& key) const;
  // Mean of the observations made between the snapshots; 0 when none.
  double MeanSeconds(const std::string& key) const;
  uint64_t Counter(const std::string& key) const;

 private:
  std::map<std::string, telemetry::HistogramSnapshot> histograms_;
  std::map<std::string, uint64_t> counters_;
};

// Layer a server span belongs to: request -> gateway, invoke -> platform,
// meta-op kinds -> meta_op; other span names map to themselves.
std::string LayerOf(const telemetry::TraceSpan& span);

// Self time per layer summed over many traces.
struct SpanTotals {
  std::map<std::string, double> self_seconds;

  void AddTrace(const std::vector<telemetry::TraceSpan>& spans);
};

// What the client measured over a traced phase.
struct ClientTotals {
  uint64_t responses = 0;   // Exchanges that got a response.
  uint64_t ok = 0;          // Invokes answered 200 with a matching output.
  double exchange_ms = 0.0;  // connect + send + wait + read, over every response.
  double late_ms = 0.0;      // Open loop: send time minus due time, over the ok invokes.
};

// Per-request self times of a traced phase, in ms, by layer:
//   generator  open loop only: how late the client sent after the due time;
//   client     the exchange minus the gateway's request time as the registry
//              measured it (`request_seconds`, the delta of
//              optimus_gateway_request_seconds): connect, send, read, and the
//              loopback and server I/O around the request;
//   <server>   each traced span's duration minus its children's (`spans`).
// The registry and the traces time the gateway separately, so the self times
// sum to the client's mean latency only when the traces cover every request
// the registry counted; a missing or truncated trace leaves a shortfall.
std::map<std::string, double> TracedSelfTimes(const ClientTotals& client, double request_seconds,
                                              const SpanTotals& spans);

// One measured value as optimus_e2e prints it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  // Why `correct` is false.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Violation(const std::string& what);
  void EndToEnd(const std::string& name, const std::string& unit, double value);
  void Layer(const std::string& name, const std::string& unit, double value);
  // One JSON object on one line.
  std::string ToJson() const;
};

// Whether to time one more set-up for setup_s, given the seconds each one so
// far took: at least three, and up to fifteen while they total under two
// seconds, so a cheap set-up gets a steadier median.
bool AnotherSetUp(const std::vector<double>& setup_seconds);

// Host speed. The shared virtual machine the benchmark runs on does the same
// work up to half again as slowly in some stretches, lasting seconds to
// minutes, as in others, so raw wall times of one code differ between runs by
// more than any regression bound. The gated times are therefore scaled to a
// reference host speed. A fixed calibration kernel, built from the standard
// library alone so that no change to Optimus can change its cost, runs on
// every CPU between short stretches of timed work, while the workload's own
// threads wait. Its thread CPU time is the host's speed at that moment.

// CPU milliseconds the calibration kernel takes at the reference speed: a
// round figure near its time on a 4-vCPU Xeon virtual machine, so scaled
// times read close to raw ones there.
inline constexpr double kReferenceCalibrationMs = 5.0;

// Runs the calibration kernel on 4 threads at once, twice each; returns the
// mean thread CPU milliseconds of the second runs.
double CalibrationMs();

class HostSpeed {
 public:
  HostSpeed() : last_ms_(CalibrationMs()), sum_ms_(last_ms_) {}

  // Calibrates again and returns the factor that scales a wall time measured
  // since the previous calibration to the reference speed:
  // kReferenceCalibrationMs over the mean of the two calibrations.
  double Scale();
  // Mean of every calibration so far.
  double mean_ms() const { return sum_ms_ / static_cast<double>(count_); }

 private:
  double last_ms_;
  double sum_ms_;
  int count_ = 1;
};

// Peak resident set size of this process in MiB.
double PeakRssMb();

// Checks the delta arithmetic and self-time folding on synthetic inputs;
// returns the number of failed checks (each printed to stderr).
int SelfTest();

}  // namespace e2e
}  // namespace optimus

#endif  // OPTIMUS_BENCH_E2E_LAYERS_H_
