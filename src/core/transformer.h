// High-level inter-function model transformation with the safeguard
// (paper §4.4, Module 3).
//
// Transformer is the in-container "scheduler service" of §7: given a warm but
// idle container holding the source model and a destination function's model,
// it reads the cached transformation strategy and either executes it or —
// when transformation would be slower than a scratch load — falls back to
// loading the destination from scratch, guaranteeing worst-case parity with
// traditional systems.
//
// Failure semantics (DESIGN.md §11): the paper's safeguard only covers the
// case where transformation would be *slow*; this layer also covers the case
// where it *fails*. A pair that has exhausted its execution retry budget in
// the PlanCache quarantine is routed to the scratch path up front, and a plan
// that throws mid-execution is charged to the quarantine before the error
// propagates — the caller owns destroying the now-poisoned container.

#ifndef OPTIMUS_SRC_CORE_TRANSFORMER_H_
#define OPTIMUS_SRC_CORE_TRANSFORMER_H_

#include "src/core/executor.h"
#include "src/core/plan_cache.h"
#include "src/runtime/loader.h"

namespace optimus {

// The safeguard's verdict for a candidate transformation.
struct TransformDecision {
  bool use_transform = false;
  bool quarantined = false;     // Pair rejected by the execution quarantine.
  double transform_cost = 0.0;  // Estimated plan-execution cost (seconds).
  double scratch_cost = 0.0;    // Estimated scratch-load cost (seconds).

  // Latency the chosen path is expected to take.
  double ChosenCost() const { return use_transform ? transform_cost : scratch_cost; }
};

// Outcome of TransformOrLoad.
struct TransformOutcome {
  TransformDecision decision;
  TransformExecutionStats execution;  // Only populated when transformed.
};

class Transformer {
 public:
  // With a registry (DESIGN.md §12) the transformer reports per-meta-op-kind
  // execution latency and predicted-vs-actual cost drift, and wires the
  // scratch-load path's metrics through its loader; with none, only the plan
  // cache's privately-owned registry exists and the rest is skipped.
  Transformer(const CostModel* costs, PlannerKind planner = PlannerKind::kGroup,
              telemetry::MetricsRegistry* metrics = nullptr);

  // Safeguard check: compares the (cached) plan cost against the destination's
  // scratch-load cost. Quarantined pairs never choose the transform path (the
  // cached plan is not even consulted, so a latched planning failure for a
  // quarantined pair cannot surface here). A non-null `trace` records the
  // plan-lookup span.
  TransformDecision Decide(const Model& source, const Model& dest,
                           telemetry::TraceContext* trace = nullptr);
  // The same check against a caller-supplied scratch-load cost for dest —
  // request paths pass their ModelCosts record's, once per donor candidate,
  // instead of walking dest's graph each time.
  TransformDecision Decide(const Model& source, const Model& dest, double dest_scratch_cost,
                           telemetry::TraceContext* trace = nullptr);

  // Transforms `instance` (holding `source`) into `dest`, or scratch-loads
  // `dest` when the safeguard (or the quarantine) rejects the transformation.
  // On success instance->model ends Identical() to dest.
  //
  // On a mid-plan execution failure (including the "transform.donor" and
  // "executor.step" fault points) the failure is reported to the plan cache's
  // quarantine and the exception propagates with *instance poisoned — the
  // caller must discard the container and fall back to a fresh scratch load.
  TransformOutcome TransformOrLoad(ModelInstance* instance, const Model& dest,
                                   telemetry::TraceContext* trace = nullptr);

  PlanCache& cache() { return cache_; }
  const PlanCache& cache() const { return cache_; }
  const Loader& loader() const { return loader_; }
  const CostModel& costs() const { return *costs_; }

 private:
  // Feeds one executed plan's per-kind timings and drift into the registry.
  void RecordExecution(const TransformPlan& plan, const TransformExecutionStats& stats);

  const CostModel* costs_;
  Loader loader_;
  PlanCache cache_;
  // Per-kind series, indexed by MetaOpKind; null without a registry.
  std::array<telemetry::Histogram*, kNumMetaOpKinds> meta_op_seconds_{};
  std::array<telemetry::Histogram*, kNumMetaOpKinds> meta_op_drift_{};
  telemetry::Histogram* transform_drift_ = nullptr;
  telemetry::Counter* arena_repacks_ = nullptr;
  telemetry::Gauge* predicted_seconds_ = nullptr;
  telemetry::Gauge* actual_seconds_ = nullptr;
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_CORE_TRANSFORMER_H_
