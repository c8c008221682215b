// TraceSource — pull-based, time-ordered arrival generation (DESIGN.md §18).
//
// The streaming simulator core never materializes a workload: it pulls one
// arrival at a time from a TraceSource, so only the *next* arrival lives in
// the event queue and workload memory is O(functions), not O(requests).
// Two sources cover the existing workloads:
//
//   * TraceVectorSource    — adapter over a materialized Trace (the legacy
//     path every existing bench and test goes through, bit-for-bit);
//   * PoissonProcessSource — a k-way merge over per-function exponential
//     streams (min-heap of next arrival per function), generating the §8.1
//     Poisson mix for millions of requests in bounded memory.

#ifndef OPTIMUS_SRC_WORKLOAD_TRACE_SOURCE_H_
#define OPTIMUS_SRC_WORKLOAD_TRACE_SOURCE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/function_table.h"
#include "src/workload/poisson.h"
#include "src/workload/trace.h"

namespace optimus {

// One pulled arrival: virtual time plus the interned function.
struct Arrival {
  double time = 0.0;
  FunctionId function = kInvalidFunction;
};

// A time-ordered arrival stream. Next() yields arrivals with non-decreasing
// time; implementations must be deterministic (replays and the simulator's
// determinism tests depend on it).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  // Writes the next arrival into *out and returns true, or returns false
  // when the stream is exhausted (*out untouched).
  virtual bool Next(Arrival* out) = 0;

  // Exclusive end of the stream in virtual seconds: no arrival occurs at or
  // past this time. Drives the warming-cycle schedule (one cycle per
  // interval until the horizon), matching the legacy `last arrival + 1`.
  virtual double Horizon() const = 0;

  // Vestige: nothing reads it since the simulator's per-request records were
  // deleted. bench/e2e's TimingSource still overrides it, so the next
  // benchmark change drops that override and then deletes this.
  virtual uint64_t SizeHint() const { return 0; }
};

// Adapter over a materialized Trace. Functions are interned into `functions`
// lazily as they stream past; arrival order is exactly the trace's order, so
// the streaming core replays the legacy semantics bit-for-bit.
class TraceVectorSource final : public TraceSource {
 public:
  // Both referents must outlive the source.
  TraceVectorSource(const Trace& trace, FunctionTable* functions)
      : trace_(trace), functions_(functions) {}

  bool Next(Arrival* out) override;
  double Horizon() const override;

 private:
  const Trace& trace_;
  FunctionTable* functions_;
  size_t cursor_ = 0;
};

// Streaming Poisson mix (§8.1): every function is an independent Poisson
// process with a per-class rate (frequent / middle / infrequent assigned
// round-robin, like GenerateMixedPoissonTrace); arrivals merge through a
// min-heap of one pending arrival per function. Memory is O(functions);
// each Next() is O(log functions). Fully deterministic from the seed; ties
// in time break by FunctionId.
class PoissonProcessSource final : public TraceSource {
 public:
  struct Options {
    double horizon_seconds = 4.0 * 3600;
    uint64_t seed = 1;
    // Multiplies every class rate — scale request volume without changing
    // the horizon or the per-function arrival structure.
    double rate_multiplier = 1.0;
  };

  // Interns `num_functions` names ("<prefix><index>") into `functions` and
  // gives each its own forked RNG stream. The table must outlive the source.
  PoissonProcessSource(FunctionTable* functions, size_t num_functions,
                       const std::string& name_prefix, const Options& options);

  bool Next(Arrival* out) override;
  double Horizon() const override { return options_.horizon_seconds; }

  // Interned ids of this source's functions, in construction order.
  const std::vector<FunctionId>& function_ids() const { return function_ids_; }
  size_t num_functions() const { return rngs_.size(); }

 private:
  struct Pending {
    double time;
    size_t index;  // Into function_ids_ / rngs_.
    bool operator>(const Pending& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return index > other.index;
    }
  };

  double RateOf(size_t index) const;
  void PushNext(size_t index, double from_time);

  Options options_;
  std::vector<FunctionId> function_ids_;
  std::vector<Rng> rngs_;  // One independent stream per function.
  // Binary min-heap of the next arrival per still-active function.
  std::vector<Pending> heap_;
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_WORKLOAD_TRACE_SOURCE_H_
