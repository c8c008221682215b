#include "src/core/transformer.h"

#include <string>

#include "src/common/fault.h"

namespace optimus {

Transformer::Transformer(const CostModel* costs, PlannerKind planner,
                         telemetry::MetricsRegistry* metrics)
    : costs_(costs), loader_(costs), cache_(costs, planner, metrics) {
  if (metrics == nullptr) {
    return;
  }
  loader_.set_metrics(metrics);
  for (int k = 0; k < kNumMetaOpKinds; ++k) {
    const std::string kind = MetaOpKindName(static_cast<MetaOpKind>(k));
    meta_op_seconds_[static_cast<size_t>(k)] =
        &metrics->GetHistogram("optimus_meta_op_seconds", {{"kind", kind}},
                               "Wall seconds spent per meta-operator kind per transform");
    meta_op_drift_[static_cast<size_t>(k)] =
        &metrics->GetHistogram("optimus_cost_drift_ratio", {{"phase", "meta_op_" + kind}},
                               "Actual wall seconds / cost-model prediction");
  }
  transform_drift_ = &metrics->GetHistogram("optimus_cost_drift_ratio", {{"phase", "transform"}},
                                            "Actual wall seconds / cost-model prediction");
  arena_repacks_ = &metrics->GetCounter("optimus_arena_repacks_total", {},
                                        "Post-transform arena compactions");
  predicted_seconds_ = &metrics->GetGauge("optimus_cost_predicted_seconds",
                                          {{"phase", "transform"}},
                                          "Accumulated cost-model predictions");
  actual_seconds_ = &metrics->GetGauge("optimus_cost_actual_seconds", {{"phase", "transform"}},
                                       "Accumulated measured wall seconds");
}

void Transformer::RecordExecution(const TransformPlan& plan,
                                  const TransformExecutionStats& stats) {
  if (transform_drift_ == nullptr) {
    return;
  }
  for (size_t k = 0; k < static_cast<size_t>(kNumMetaOpKinds); ++k) {
    if (stats.count_by_kind[k] == 0) {
      continue;
    }
    meta_op_seconds_[k]->Observe(stats.seconds_by_kind[k]);
    const double predicted = plan.CostOf(static_cast<MetaOpKind>(k));
    if (predicted > 0.0) {
      meta_op_drift_[k]->Observe(stats.seconds_by_kind[k] / predicted);
    }
  }
  if (plan.total_cost > 0.0) {
    transform_drift_->Observe(stats.total_seconds / plan.total_cost);
  }
  predicted_seconds_->Add(plan.total_cost);
  actual_seconds_->Add(stats.total_seconds);
}

TransformDecision Transformer::Decide(const Model& source, const Model& dest,
                                      telemetry::TraceContext* trace) {
  return Decide(source, dest, costs_->ScratchLoadCost(dest), trace);
}

TransformDecision Transformer::Decide(const Model& source, const Model& dest,
                                      double dest_scratch_cost, telemetry::TraceContext* trace) {
  TransformDecision decision;
  decision.scratch_cost = dest_scratch_cost;
  if (cache_.Quarantined(source.name(), dest.name())) {
    // Negative cache: the pair kept failing at execution time; don't risk
    // another container on it.
    decision.quarantined = true;
    decision.transform_cost = decision.scratch_cost;
    return decision;
  }
  decision.transform_cost = cache_.GetOrPlan(source, dest, trace).total_cost;
  decision.use_transform = decision.transform_cost < decision.scratch_cost;
  return decision;
}

TransformOutcome Transformer::TransformOrLoad(ModelInstance* instance, const Model& dest,
                                              telemetry::TraceContext* trace) {
  TransformOutcome outcome;
  outcome.decision = Decide(instance->model, dest, trace);
  if (outcome.decision.use_transform) {
    // Capture the name now: a mid-plan failure leaves instance->model
    // half-mutated, but the quarantine is keyed by the pre-transform pair.
    const std::string source_name = instance->model.name();
    try {
      fault::MaybeInject("transform.donor");
      const TransformPlan& plan = cache_.GetOrPlan(instance->model, dest, trace);
      outcome.execution = ExecutePlan(instance, dest, plan, trace);
      RecordExecution(plan, outcome.execution);
      // Bump allocation strands the pre-transform weights in the arena;
      // compact once the dead bytes dominate the live set.
      if (instance->MaybeRepack() && arena_repacks_ != nullptr) {
        arena_repacks_->Inc();
      }
    } catch (...) {
      cache_.ReportExecutionFailure(source_name, dest.name());
      throw;
    }
  } else {
    // Safeguard: load the destination from scratch, as traditional systems do.
    // The container's arena survives the reload: Instantiate resets it and the
    // old model's views are only ever overwritten, never read, before the
    // assignment destroys them.
    *instance =
        loader_.Instantiate(dest, /*weight_seed=*/1, /*breakdown=*/nullptr, trace, instance->arena);
  }
  return outcome;
}

}  // namespace optimus
