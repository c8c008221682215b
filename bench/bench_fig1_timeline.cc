// Figure 1: the timeline of serverless ML inference and where each system
// optimizes it.
//
// One request for a function without a warm container arrives at a node that
// holds an idle container of a structurally similar function. The bench
// prints, per system, the phase timeline (sandbox+runtime init, model load /
// package handling / transformation, inference) — reproducing the figure's
// message: existing works shorten step 1 (runtime init) or step 3 (compute),
// Optimus attacks step 2 (model loading), which dominates.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/systems.h"
#include "src/zoo/vgg.h"

namespace optimus {
namespace {

void Run() {
  AnalyticCostModel costs;
  std::map<std::string, Model> repository;
  repository.emplace("function_c", BuildVgg(16));  // Donor's function (Model X).
  repository.emplace("function_d", BuildVgg(19));  // Requested function (Model Y).

  std::map<std::string, const Model*> repository_ptrs;
  for (const auto& [name, model] : repository) {
    repository_ptrs.emplace(name, &model);
  }
  PolicyContext context;
  context.repository = &repository_ptrs;
  context.costs = &costs;
  context.profile = SystemProfile::Cpu();

  Container donor;
  donor.id = 1;
  donor.function = "function_c";
  donor.state = ContainerState::kIdle;
  donor.last_active = 0.0;

  const Model& dest = repository.at("function_d");
  const ModelCosts dest_costs = ModelCosts::Of(dest, costs, context.profile);
  const double compute = dest_costs.inference;

  benchutil::PrintHeader(
      "Figure 1: request timeline for function D (warm idle container of function C exists)");
  std::printf("%-12s %16s %18s %12s %12s %9s\n", "system", "init(s)", "load/transform(s)",
              "compute(s)", "total(s)", "load%");
  benchutil::PrintRule(84);

  for (const SystemType system : benchutil::kAllSystems) {
    auto policy = MakeStartupPolicy(system, context);
    StartupRequest request;
    request.dest = &dest;
    request.dest_costs = &dest_costs;
    request.donors = {&donor};
    request.resident_functions = {"function_c"};
    request.has_free_slot = false;  // The node is full: the cold-start regime.
    const StartupResult result = policy->Acquire(request);
    const double total = result.init_seconds + result.load_seconds + compute;
    std::printf("%-12s %16.3f %18.3f %12.3f %12.3f %8.1f%%\n", SystemTypeName(system),
                result.init_seconds, result.load_seconds, compute, total,
                100.0 * result.load_seconds / total);
  }

  std::printf(
      "\nPaper check: Pagurus removes init but keeps the full model load; Tetris\n"
      "cannot share across functions (weights differ); Optimus shrinks the dominant\n"
      "model-loading step via inter-function model transformation.\n");
}

}  // namespace
}  // namespace optimus

int main() {
  optimus::Run();
  return 0;
}
