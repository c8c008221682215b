// The benchmark's workloads. Each runs in-process against the public API and
// returns every metric it measured; main.cc prints the result.

#ifndef OPTIMUS_BENCH_E2E_WORKLOADS_H_
#define OPTIMUS_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench/e2e/layers.h"

namespace optimus {
namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // Length of the timed phase.
  // Splits the timed length into an untraced half and a half with every
  // request traced, and reports span self times and the tracing overhead.
  bool traced = false;
  // Tiny scale for the ctest smoke entry: one set-up, about a second of load.
  bool smoke = false;
  std::string trace_out;  // Chrome trace file written by a traced run.
};

// warm_small, churn_mixed and deploy_during_serve: an in-process
// OptimusHttpService on loopback, driven over real sockets.
Result RunHttpWorkload(const RunOptions& options);

// sim_azure: RunSimulationStream over a generated Azure-like trace.
Result RunSimWorkload(const RunOptions& options);

}  // namespace e2e
}  // namespace optimus

#endif  // OPTIMUS_BENCH_E2E_WORKLOADS_H_
