// optimus_e2e: runs one benchmark workload and prints one JSON result line.
//
//   optimus_e2e --workload W --seed S --seconds N [--traced]
//               [--trace-out FILE] [--smoke]
//   optimus_e2e --selftest
//
// Workloads: warm_small, churn_mixed, deploy_during_serve, sim_azure
// (bench/e2e/README.md says why each exists). The seed fixes every input the
// workload generates; the program under test sees only those inputs. The exit
// status is 0 when every correctness check passed, 1 when one failed, and 2
// on a usage error or an unexpected exception. bench/e2e/run.py builds this
// binary and turns its result into the benchmark's output line.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench/e2e/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: optimus_e2e --workload warm_small|churn_mixed|deploy_during_serve|"
               "sim_azure --seed S --seconds N [--traced] [--trace-out FILE] [--smoke]\n"
               "       optimus_e2e --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using optimus::e2e::Result;
  using optimus::e2e::RunOptions;
  // A peer that hangs up must surface as a failed send, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      return optimus::e2e::SelfTest() == 0 ? 0 : 1;
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  const bool http = options.workload == "warm_small" || options.workload == "churn_mixed" ||
                    options.workload == "deploy_during_serve";
  if ((!http && options.workload != "sim_azure") || !(options.seconds > 0.0) ||
      options.seconds > 600.0) {
    return Usage();
  }

  try {
    const Result result = http ? optimus::e2e::RunHttpWorkload(options)
                               : optimus::e2e::RunSimWorkload(options);
    for (const std::string& violation : result.violations) {
      std::fprintf(stderr, "violation: %s\n", violation.c_str());
    }
    std::printf("%s\n", result.ToJson().c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optimus_e2e: %s\n", error.what());
    return 2;
  }
}
