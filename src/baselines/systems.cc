#include "src/baselines/systems.h"

#include <limits>

namespace optimus {

const char* SystemTypeName(SystemType type) {
  switch (type) {
    case SystemType::kOpenWhisk:
      return "OpenWhisk";
    case SystemType::kPagurus:
      return "Pagurus";
    case SystemType::kTetris:
      return "Tetris";
    case SystemType::kOptimus:
      return "Optimus";
  }
  return "Unknown";
}

namespace {

// Small fixed cost Pagurus pays to swap the container's package set.
constexpr double kPagurusRepackage = 0.05;
// Per-shared-operation cost of Tetris' address mapping.
constexpr double kTetrisMapPerOp = 0.0001;

double FullLoadCost(const ModelCosts& costs) { return costs.scratch_load + costs.device_transfer; }

class OpenWhiskPolicy final : public StartupPolicy {
 public:
  explicit OpenWhiskPolicy(const PolicyContext& context) : context_(context) {}

  StartupResult Acquire(const StartupRequest& request) override {
    StartupResult result;
    result.type = StartType::kCold;
    result.init_seconds = context_.profile.InitCost();
    result.load_seconds = FullLoadCost(*request.dest_costs);
    return result;
  }

  SystemType Type() const override { return SystemType::kOpenWhisk; }

 private:
  PolicyContext context_;
};

class PagurusPolicy final : public StartupPolicy {
 public:
  explicit PagurusPolicy(const PolicyContext& context) : context_(context) {}

  StartupResult Acquire(const StartupRequest& request) override {
    StartupResult result;
    result.load_seconds = FullLoadCost(*request.dest_costs);
    if (!request.donors.empty() && !request.has_free_slot) {
      // Repurpose an idle container: the sandbox and ML runtime are alive, so
      // only the package delta and the model load remain.
      result.type = StartType::kTransform;
      result.init_seconds = kPagurusRepackage;
      result.donor = request.donors.front();
    } else {
      result.type = StartType::kCold;
      result.init_seconds = context_.profile.InitCost();
    }
    return result;
  }

  SystemType Type() const override { return SystemType::kPagurus; }

 private:
  PolicyContext context_;
};

class TetrisPolicy final : public StartupPolicy {
 public:
  explicit TetrisPolicy(const PolicyContext& context) : context_(context) {}

  StartupResult Acquire(const StartupRequest& request) override {
    StartupResult result;
    // Tensor sharing requires identical type, shape, AND weights. Weights are
    // per-function, so only a resident container of the same function lets
    // the new container map every tensor; otherwise nothing can be shared and
    // the load runs in full.
    bool same_function_resident = false;
    for (const std::string& resident : request.resident_functions) {
      if (resident == request.dest->name()) {
        same_function_resident = true;
        break;
      }
    }
    const bool runtime_resident = !request.resident_functions.empty();
    result.init_seconds = context_.profile.sandbox_init + context_.profile.gpu_runtime_init +
                          (runtime_resident ? 0.0 : context_.profile.runtime_init);
    if (same_function_resident) {
      result.type = StartType::kTransform;
      result.load_seconds =
          context_.costs->DeserializeCost(request.dest_costs->weight_bytes) +
          kTetrisMapPerOp * static_cast<double>(request.dest->NumOps());
    } else {
      result.type = StartType::kCold;
      result.load_seconds = FullLoadCost(*request.dest_costs);
    }
    return result;
  }

  SystemType Type() const override { return SystemType::kTetris; }

 private:
  PolicyContext context_;
};

class OptimusPolicy final : public StartupPolicy {
 public:
  explicit OptimusPolicy(const PolicyContext& context)
      : context_(context), cache_(context.costs, context.planner) {}

  StartupResult Acquire(const StartupRequest& request) override {
    StartupResult result;
    const double scratch = FullLoadCost(*request.dest_costs);

    // Pick the donor whose cached transformation plan is cheapest. Donors are
    // only consumed when the node is full; with a free slot a fresh container
    // preserves the donors' warm state for their own functions.
    Container* best_donor = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    const std::vector<Container*> no_donors;
    for (Container* donor : request.has_free_slot ? no_donors : request.donors) {
      auto it = context_.repository->find(donor->function);
      if (it == context_.repository->end()) {
        continue;
      }
      const TransformPlan& plan = cache_.GetOrPlan(*it->second, *request.dest);
      if (plan.total_cost < best_cost) {
        best_cost = plan.total_cost;
        best_donor = donor;
      }
    }

    if (best_donor != nullptr) {
      result.donor = best_donor;
      // Safeguard (§4.4 Module 3): if the plan is slower than loading the
      // model from scratch inside the donor container, load from scratch.
      if (best_cost < scratch) {
        result.type = StartType::kTransform;
        result.load_seconds = best_cost + request.dest_costs->device_transfer;
      } else {
        result.type = StartType::kCold;
        result.load_seconds = scratch;
      }
      result.init_seconds = 0.0;  // The donor's sandbox and runtime are warm.
      return result;
    }

    result.type = StartType::kCold;
    result.init_seconds = context_.profile.InitCost();
    result.load_seconds = scratch;
    return result;
  }

  SystemType Type() const override { return SystemType::kOptimus; }

  PlanCache& cache() { return cache_; }

 private:
  PolicyContext context_;
  PlanCache cache_;
};

}  // namespace

std::unique_ptr<StartupPolicy> MakeStartupPolicy(SystemType type, const PolicyContext& context) {
  switch (type) {
    case SystemType::kOpenWhisk:
      return std::make_unique<OpenWhiskPolicy>(context);
    case SystemType::kPagurus:
      return std::make_unique<PagurusPolicy>(context);
    case SystemType::kTetris:
      return std::make_unique<TetrisPolicy>(context);
    case SystemType::kOptimus:
      return std::make_unique<OptimusPolicy>(context);
  }
  return nullptr;
}

}  // namespace optimus
