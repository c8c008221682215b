// Container-startup policies for the four compared systems (paper §8.1):
//
//  * OpenWhisk — every miss starts a new container from scratch: sandbox +
//    runtime init, then a full model load.
//  * Pagurus — inter-function container sharing at the *package* level: a
//    sufficiently idle container of another function is repurposed, saving
//    sandbox + runtime init, but the new model still loads from scratch.
//  * Tetris — tensor sharing: a new container maps the runtime and any
//    operations identical (type, shape, and weights) to ones already resident
//    on the node, paying load cost only for the rest. Sharing requires exact
//    weight identity, which across different functions rarely holds — the
//    limitation §2.1 calls out.
//  * Optimus — inter-function *model transformation*: a donor container's
//    model is transformed via the cached meta-operator plan, with the
//    safeguard falling back to a scratch load when transformation is slower.

#ifndef OPTIMUS_SRC_BASELINES_SYSTEMS_H_
#define OPTIMUS_SRC_BASELINES_SYSTEMS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/container/container.h"
#include "src/core/plan_cache.h"
#include "src/runtime/cost_model.h"

namespace optimus {

enum class SystemType : uint8_t {
  kOpenWhisk = 0,
  kPagurus,
  kTetris,
  kOptimus,
};

const char* SystemTypeName(SystemType type);

// What the policy sees when a warm start is unavailable.
struct StartupRequest {
  // The destination function's model (structure-only) and its cost record,
  // computed with the PolicyContext's cost model and profile.
  const Model* dest = nullptr;
  const ModelCosts* dest_costs = nullptr;
  // §4.2 transformation donors: idle-threshold-exceeded containers of other
  // functions on the node.
  std::vector<Container*> donors;
  // Functions of every container currently on the node (for Tetris sharing).
  std::vector<std::string> resident_functions;
  // Whether the node can launch a new container without evicting. Donor
  // repurposing is reserved for full nodes: consuming an idle container while
  // capacity is free would destroy warm state its owner may still use.
  bool has_free_slot = false;
};

struct StartupResult {
  StartType type = StartType::kCold;
  double init_seconds = 0.0;  // Sandbox/runtime (and GPU) initialization.
  double load_seconds = 0.0;  // Model load / transformation latency.
  // Donor container to repurpose, or nullptr to start a new container.
  Container* donor = nullptr;
};

// A system's container-acquisition policy, consulted after a warm-start miss.
class StartupPolicy {
 public:
  virtual ~StartupPolicy() = default;

  virtual StartupResult Acquire(const StartupRequest& request) = 0;
  virtual SystemType Type() const = 0;
};

// Shared context the policies draw on. `repository` maps function name to its
// (structure-only) model; the map and the pointed-to models must outlive the
// policy. Pointer values let many functions alias one model structure (the
// million-function simulation regime) without duplicating Model storage.
struct PolicyContext {
  const std::map<std::string, const Model*>* repository = nullptr;
  const CostModel* costs = nullptr;
  SystemProfile profile;
  PlannerKind planner = PlannerKind::kGroup;
};

std::unique_ptr<StartupPolicy> MakeStartupPolicy(SystemType type, const PolicyContext& context);

}  // namespace optimus

#endif  // OPTIMUS_SRC_BASELINES_SYSTEMS_H_
