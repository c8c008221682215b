// Cost models for model loading and meta-operator execution.
//
// The paper's Module 1 (§4.4) profiles meta-operator execution times offline
// and uses them to plan transformations. We expose that as the CostModel
// interface with two implementations:
//
//  * AnalyticCostModel — constants calibrated to the relationships measured in
//    the paper's Figures 2-5 and 8 (structure-load dominance, CONV scaling,
//    Replace ∝ bytes, Add ≈ scratch load, Reduce constant, Edge negligible).
//  * MeasuredCostModel (src/runtime/profiler.h) — fitted from real wall-clock
//    micro measurements on this machine.
//
// All costs are in seconds.

#ifndef OPTIMUS_SRC_RUNTIME_COST_MODEL_H_
#define OPTIMUS_SRC_RUNTIME_COST_MODEL_H_

#include <cstdint>

#include "src/graph/model.h"

namespace optimus {

// Latency of the three model-loading phases the paper measures (Fig. 3).
struct LoadBreakdown {
  double deserialize = 0.0;
  double structure = 0.0;
  double weights = 0.0;

  double Total() const { return deserialize + structure + weights; }
};

class CostModel {
 public:
  virtual ~CostModel() = default;

  // --- Primitive costs (implemented per model) -------------------------------

  // Cost of instantiating one operation's structure in the runtime graph,
  // including the per-op graph-assembly overhead.
  virtual double OpStructureCost(OpKind kind, const OpAttributes& attrs) const = 0;

  // Cost of writing `bytes` of weight data into `tensor_count` resident
  // tensors. Frameworks pay a fixed per-tensor dispatch overhead on top of
  // the byte traffic, which is what keeps weight assignment at ~10% of the
  // load (Fig. 3) even for models with small weights.
  virtual double WeightAssignCost(int64_t bytes, int64_t tensor_count) const = 0;

  // Cost of parsing a serialized model file of `bytes` bytes.
  virtual double DeserializeCost(int64_t bytes) const = 0;

  // Cost of reshaping an op's weight storage from `src` to `dst` attributes
  // (crop/zero-pad copies); excludes the subsequent weight Replace.
  virtual double ReshapeCost(OpKind kind, const OpAttributes& src,
                             const OpAttributes& dst) const = 0;

  // Constant cost of deleting an operation.
  virtual double ReduceCost() const = 0;

  // Cost of one edge modification.
  virtual double EdgeCost() const = 0;

  // Fixed overhead of a Replace meta-operator (on top of the byte traffic).
  virtual double ReplaceOverhead() const = 0;

  // --- Derived costs (shared) ----------------------------------------------

  // Replace = overwrite the op's weights with the destination function's.
  double ReplaceCost(OpKind kind, const OpAttributes& attrs) const;

  // Add = create the op from scratch: structure + weight assignment.
  double AddCost(OpKind kind, const OpAttributes& attrs) const;

  // Full scratch-load latency decomposition for a model.
  LoadBreakdown ModelLoadBreakdown(const Model& model) const;

  // Total scratch-load latency (the safeguard's comparison baseline, §4.4).
  double ScratchLoadCost(const Model& model) const;
};

// Paper-calibrated analytic cost model. Deterministic; used by the planner,
// the plan cache, and the cluster simulator.
class AnalyticCostModel final : public CostModel {
 public:
  double OpStructureCost(OpKind kind, const OpAttributes& attrs) const override;
  double WeightAssignCost(int64_t bytes, int64_t tensor_count) const override;
  double DeserializeCost(int64_t bytes) const override;
  double ReshapeCost(OpKind kind, const OpAttributes& src,
                     const OpAttributes& dst) const override;
  double ReduceCost() const override;
  double EdgeCost() const override;
  double ReplaceOverhead() const override;
};

// System-level phase costs used by the cluster simulator (§8 testbed).
struct SystemProfile {
  // Container sandbox creation (namespace/cgroup/image mount).
  double sandbox_init = 0.30;
  // Language runtime + ML framework import.
  double runtime_init = 0.45;
  // Extra runtime initialization for GPU-enabled containers (driver + CUDA
  // context), per §8.5's observation that GPU init is expensive.
  double gpu_runtime_init = 0.0;
  // Host-to-device weight transfer rate (s/byte); 0 for CPU-only serving.
  double gpu_transfer_per_byte = 0.0;
  // Inference compute speed factor (1.0 = CPU; <1.0 = faster accelerator).
  double compute_scale = 1.0;

  static SystemProfile Cpu() { return SystemProfile{}; }

  static SystemProfile Gpu() {
    SystemProfile profile;
    profile.gpu_runtime_init = 2.2;
    profile.gpu_transfer_per_byte = 0.10e-9;  // ~10 GB/s effective PCIe.
    profile.compute_scale = 0.25;
    return profile;
  }

  // Inference compute latency for one request on `model`.
  double InferenceCost(const Model& model) const;

  // Cold-start initialization before model loading begins.
  double InitCost() const { return sandbox_init + runtime_init + gpu_runtime_init; }

  // Extra per-load cost of moving weights to the device.
  double DeviceTransferCost(const Model& model) const;
};

// Memory footprint of serving `model` in a container (runtime baseline plus
// resident weights with framework overhead).
int64_t ContainerFootprintBytes(const Model& model);

// Costs of serving one model that depend only on its structure and the
// system profile, computed once and read on request paths instead of walking
// the model's graph per request (the paper profiles and plans at
// registration, §4.4). Each field equals its direct call exactly. Keep the
// record beside the model it was computed from — the platform's repository
// entry, the simulator's model table — and never key records by Model*
// alone: transformation mutates ModelInstance graphs in place.
struct ModelCosts {
  int64_t params = 0;            // Model::ParamCount
  int64_t weight_bytes = 0;      // Model::WeightBytes
  double scratch_load = 0.0;     // CostModel::ScratchLoadCost
  double inference = 0.0;        // SystemProfile::InferenceCost
  double device_transfer = 0.0;  // SystemProfile::DeviceTransferCost
  int64_t container_bytes = 0;   // ContainerFootprintBytes

  static ModelCosts Of(const Model& model, const CostModel& costs, const SystemProfile& profile);
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_RUNTIME_COST_MODEL_H_
