// Streaming simulation statistics (DESIGN.md §18): a constant-memory
// service-time distribution, so the simulator's accounting stays
// independent of request count.
//
// LatencyHistogram is log-bucketed (5% geometric buckets): percentiles to
// within one bucket's relative width, in a few KB regardless of count. It is
// deterministic in its input sequence, so two simulator runs produce
// bit-identical summaries.

#ifndef OPTIMUS_SRC_SIM_SIM_STATS_H_
#define OPTIMUS_SRC_SIM_SIM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace optimus {

// Histogram over positive values with geometrically spaced buckets. Bucket 0
// catches values <= kFirstUpper; bucket i spans
// (kFirstUpper * kGrowth^(i-1), kFirstUpper * kGrowth^i]. With 5% growth a
// percentile read is within ~5% relative error of the exact order statistic.
class LatencyHistogram {
 public:
  static constexpr double kFirstUpper = 1e-6;  // Seconds.
  static constexpr double kGrowth = 1.05;

  void Record(double seconds);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return max_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  // Quantile q in [0, 1] with the nearest-rank convention
  // rank = min(count-1, floor(q * count)); returns the geometric midpoint of
  // the rank's bucket, clamped into [min, max].
  double Percentile(double q) const;

  // Exposed for determinism tests: bit-identical runs produce bit-identical
  // bucket vectors.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  static size_t BucketIndex(double seconds);

  std::vector<uint64_t> buckets_;  // Grown lazily to the highest seen bucket.
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_SIM_SIM_STATS_H_
