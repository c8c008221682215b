#include "src/sim/sim_stats.h"

#include <algorithm>
#include <cmath>

namespace optimus {

size_t LatencyHistogram::BucketIndex(double seconds) {
  if (!(seconds > kFirstUpper)) {  // Also catches NaN and non-positives.
    return 0;
  }
  const double position = std::log(seconds / kFirstUpper) / std::log(kGrowth);
  // ceil: bucket i's upper bound is kFirstUpper * kGrowth^i, inclusive.
  const double index = std::ceil(position - 1e-12);
  // ~760 buckets reach past 1e10 s; anything above folds into the last one.
  constexpr double kMaxIndex = 800.0;
  return static_cast<size_t>(std::min(index, kMaxIndex));
}

void LatencyHistogram::Record(double seconds) {
  const size_t index = BucketIndex(seconds);
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1, 0);
  }
  ++buckets_[index];
  ++count_;
  sum_ += seconds;
  min_ = count_ == 1 ? seconds : std::min(min_, seconds);
  max_ = std::max(max_, seconds);
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double clamped = std::min(1.0, std::max(0.0, q));
  const uint64_t rank = std::min<uint64_t>(
      count_ - 1, static_cast<uint64_t>(clamped * static_cast<double>(count_)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative > rank) {
      if (i == 0) {
        return min_;
      }
      const double upper = kFirstUpper * std::pow(kGrowth, static_cast<double>(i));
      const double mid = upper / std::sqrt(kGrowth);  // Geometric bucket midpoint.
      return std::min(max_, std::max(min_, mid));
    }
  }
  return max_;
}

}  // namespace optimus
