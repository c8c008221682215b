#include "src/warming/forecaster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace optimus {

const char* DemandClassName(DemandClass demand_class) {
  switch (demand_class) {
    case DemandClass::kSporadic:
      return "sporadic";
    case DemandClass::kPeriodic:
      return "periodic";
    case DemandClass::kBursty:
      return "bursty";
  }
  return "unknown";
}

DemandStats AnalyzeDemandSeries(const DemandSeries& series) {
  DemandStats stats;
  stats.slots = series.size();
  if (series.empty()) {
    return stats;
  }
  for (const double count : series) {
    stats.total += count;
  }
  const double n = static_cast<double>(series.size());
  stats.mean = stats.total / n;
  double variance = 0.0;
  for (const double count : series) {
    const double delta = count - stats.mean;
    variance += delta * delta;
  }
  variance /= n;
  if (stats.mean > 0.0) {
    stats.cv = std::sqrt(variance) / stats.mean;
  }
  if (variance <= 0.0 || series.size() < 2 * kClassifyMinSlots) {
    return stats;  // Flat series, or too short for a meaningful lag search.
  }
  // Normalized autocovariance over lags 2..n/2. Lag 1 is excluded: adjacent
  // slots correlate whenever a burst straddles a slot boundary, which says
  // nothing about periodicity.
  const double denom = variance * n;
  for (size_t lag = 2; lag <= series.size() / 2; ++lag) {
    double cov = 0.0;
    for (size_t i = 0; i + lag < series.size(); ++i) {
      cov += (series[i] - stats.mean) * (series[i + lag] - stats.mean);
    }
    const double autocorr = cov / denom;
    if (autocorr > stats.best_autocorr) {
      stats.best_autocorr = autocorr;
      stats.best_lag = lag;
    }
  }
  return stats;
}

DemandClass ClassifyDemand(const DemandStats& stats) {
  if (stats.slots < kClassifyMinSlots || stats.total < kClassifyMinTotal) {
    return DemandClass::kSporadic;  // Not enough evidence to say anything.
  }
  if (stats.best_autocorr >= kClassifyPeriodicAutocorr && stats.best_lag > 0) {
    return DemandClass::kPeriodic;  // Spike train with a stable period.
  }
  if (stats.cv < kClassifySteadyCv) {
    return DemandClass::kPeriodic;  // Steady timer-like arrivals.
  }
  if (stats.mean < kClassifySporadicMean) {
    return DemandClass::kSporadic;  // Irregular and rare: decline.
  }
  return DemandClass::kBursty;
}

DemandClass ClassifyDemand(const DemandSeries& series) {
  return ClassifyDemand(AnalyzeDemandSeries(series));
}

namespace {

double Ewma(const DemandSeries& history, double alpha) {
  double rate = history.empty() ? 0.0 : history.front();
  for (size_t i = 1; i < history.size(); ++i) {
    rate = alpha * history[i] + (1.0 - alpha) * rate;
  }
  return rate;
}

double ClampAlpha(double alpha) { return std::clamp(alpha, 0.01, 1.0); }

}  // namespace

EwmaForecaster::EwmaForecaster(double alpha) : alpha_(ClampAlpha(alpha)) {}

Forecast EwmaForecaster::Predict(const DemandSeries& history) const {
  Forecast forecast;
  forecast.demand_class = ClassifyDemand(history);
  forecast.rate = Ewma(history, alpha_);
  forecast.predictable = forecast.rate > 0.0;
  forecast.confidence = forecast.predictable ? 0.5 : 0.0;
  forecast.method = forecast.predictable ? "ewma" : "none";
  return forecast;
}

HybridForecaster::HybridForecaster(double ewma_alpha) : alpha_(ClampAlpha(ewma_alpha)) {}

Forecast HybridForecaster::Predict(const DemandSeries& history) const {
  Forecast forecast;
  const DemandStats stats = AnalyzeDemandSeries(history);
  forecast.demand_class = ClassifyDemand(stats);
  switch (forecast.demand_class) {
    case DemandClass::kPeriodic:
      if (stats.best_autocorr >= kClassifyPeriodicAutocorr && stats.best_lag > 0 &&
          stats.cv >= kClassifySteadyCv) {
        // Spike train: the slot one period back is the best guess for the
        // next slot (seasonal-naive).
        forecast.rate = history[history.size() - stats.best_lag];
        forecast.confidence = std::min(1.0, stats.best_autocorr);
        forecast.method = "seasonal";
      } else {
        forecast.rate = Ewma(history, alpha_);
        forecast.confidence = 0.9;
        forecast.method = "periodic";
      }
      // A seasonal/steady model is a real prediction even when it predicts a
      // quiet slot: rate 0 means "spend no budget here", not "don't know".
      // (All-zero histories never classify periodic — kClassifyMinTotal.)
      forecast.predictable = true;
      break;
    case DemandClass::kBursty:
      // Slow EWMA tracks the long-run burst arrival rate. Burst timing is
      // memoryless (the Azure off-phases are exponential), so the expected
      // demand next slot IS the long-run mean — a fast EWMA would peak right
      // after a burst, exactly when keep-alive already covers the function,
      // and decay to zero before the container expires.
      forecast.rate = Ewma(history, 0.5 * alpha_);
      forecast.confidence = 0.6;
      forecast.method = "ewma";
      forecast.predictable = forecast.rate > 0.0;
      break;
    case DemandClass::kSporadic:
      // Decline: a prediction here is noise, and acting on it burns the
      // speculation budget that bursty/periodic functions should get.
      forecast.rate = Ewma(history, alpha_);
      forecast.predictable = false;
      forecast.confidence = 0.0;
      forecast.method = "none";
      break;
  }
  return forecast;
}

std::unique_ptr<Forecaster> MakeForecaster(const std::string& kind, double ewma_alpha) {
  if (kind == "ewma") {
    return std::make_unique<EwmaForecaster>(ewma_alpha);
  }
  if (kind == "hybrid") {
    return std::make_unique<HybridForecaster>(ewma_alpha);
  }
  throw std::invalid_argument("MakeForecaster: unknown forecaster kind: " + kind);
}

}  // namespace optimus
