// Online demand forecasters for predictive warming (DESIGN.md §17).
//
// A Forecaster turns one function's slotted demand history (the DemandSeries
// the placement subsystem already accumulates, §5.1) into a prediction of the
// *next* slot's arrival count. Predictors are deliberately cheap — O(slots)
// arithmetic, no training state — because the warming loop re-evaluates every
// function once per cycle.
//
// The classifier mirrors the temporal classes the Azure-like generator emits
// (src/workload/azure.h, after Shahrad et al., ATC'20):
//   * periodic  — steady timer-driven arrivals (low CV), or a spike train
//                 with a stable period (strong autocorrelation at some lag);
//   * bursty    — on/off phases: quiet slots punctuated by dense spikes;
//   * sporadic  — rare, irregular arrivals. The honest forecast here is "no
//                 idea": the hybrid forecaster *declines to predict*, so the
//                 warming policy never spends budget on noise.
// A high-rate Poisson stream is statistically indistinguishable from a
// timer at slot granularity — both classify periodic — and that is the right
// call for warming either way: steady demand means keep the function warm.

#ifndef OPTIMUS_SRC_WARMING_FORECASTER_H_
#define OPTIMUS_SRC_WARMING_FORECASTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/workload/trace.h"

namespace optimus {

// Temporal structure of one function's demand series.
enum class DemandClass : uint8_t { kSporadic = 0, kPeriodic, kBursty };

// Stable lower-case names ("sporadic" / "periodic" / "bursty") for JSON,
// logs, and metric labels.
const char* DemandClassName(DemandClass demand_class);

// Summary statistics ClassifyDemand decides from (exposed for tests and the
// gateway's debugging surface).
struct DemandStats {
  size_t slots = 0;
  double total = 0.0;          // Sum of all slot counts.
  double mean = 0.0;           // Arrivals per slot.
  double cv = 0.0;             // Coefficient of variation (stddev / mean).
  double best_autocorr = 0.0;  // Strongest autocorrelation over lags 2..n/2.
  size_t best_lag = 0;         // Lag (in slots) of that autocorrelation.
};

DemandStats AnalyzeDemandSeries(const DemandSeries& series);

// Classification thresholds (shared with tests so the satellite trace-class
// regression pins the same constants the production classifier uses).
inline constexpr size_t kClassifyMinSlots = 4;
inline constexpr double kClassifyMinTotal = 3.0;       // Events to say anything.
inline constexpr double kClassifySteadyCv = 0.6;       // Below: steady periodic.
inline constexpr double kClassifyPeriodicAutocorr = 0.55;  // Spike-train period.
inline constexpr double kClassifySporadicMean = 1.0;   // Irregular + rarer than
                                                       // 1/slot: sporadic.

// Classifies from precomputed statistics, so a caller that needs both the
// class and the statistics analyses the series once.
DemandClass ClassifyDemand(const DemandStats& stats);
DemandClass ClassifyDemand(const DemandSeries& series);

// A per-function prediction for the next demand slot.
struct Forecast {
  // False when the forecaster declines (sporadic fallback): `rate` is then
  // only informational and the warming policy must not act on it.
  bool predictable = false;
  double rate = 0.0;        // Predicted arrivals in the next slot.
  double confidence = 0.0;  // [0, 1]; scales the order's priority.
  DemandClass demand_class = DemandClass::kSporadic;
  const char* method = "none";  // "ewma" | "periodic" | "seasonal" | "none".
};

class Forecaster {
 public:
  virtual ~Forecaster() = default;
  virtual const char* name() const = 0;
  // Predicts the next slot from the slotted history (most recent sample
  // last). Must be cheap and side-effect free: the engine calls it for every
  // function on every warming cycle, possibly from concurrent cycles.
  virtual Forecast Predict(const DemandSeries& history) const = 0;
};

// Exponentially weighted moving average of the slot counts. Always predicts
// (never declines); the workhorse for bursty/steady demand.
class EwmaForecaster final : public Forecaster {
 public:
  explicit EwmaForecaster(double alpha);
  const char* name() const override { return "ewma"; }
  Forecast Predict(const DemandSeries& history) const override;

 private:
  double alpha_;
};

// The production forecaster: classifies the series, then
//   * periodic (steady)      → EWMA rate at high confidence;
//   * periodic (spike train) → seasonal-naive: the value one detected period
//                              ago is the next slot's forecast;
//   * bursty                 → fast-alpha EWMA (tracks burst fronts quickly);
//   * sporadic               → declines to predict.
class HybridForecaster final : public Forecaster {
 public:
  explicit HybridForecaster(double ewma_alpha);
  const char* name() const override { return "hybrid"; }
  Forecast Predict(const DemandSeries& history) const override;

 private:
  double alpha_;
};

// "ewma" or "hybrid"; throws std::invalid_argument for unknown kinds.
std::unique_ptr<Forecaster> MakeForecaster(const std::string& kind, double ewma_alpha);

}  // namespace optimus

#endif  // OPTIMUS_SRC_WARMING_FORECASTER_H_
