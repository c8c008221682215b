#include "src/runtime/cost_model.h"

#include <algorithm>
#include <cmath>

namespace optimus {

namespace {

// --- Calibrated constants (seconds). See DESIGN.md §5 for derivation. -------

// Fixed graph-assembly overhead charged per operation (framework bookkeeping:
// node registration, shape inference, name scoping).
constexpr double kPerOpOverhead = 0.004;

// Kind-specific structure costs. The CONV slope is calibrated so that a
// 3x3x512 CONV loads 1.79x slower than a 3x3x64 one (Fig. 5c).
constexpr double kConvBase = 0.006;
constexpr double kConvPerKernelCell = 2.2e-6;  // x (kernel_h * kernel_w * out_channels)
constexpr double kDenseBase = 0.006;
constexpr double kDensePerWeight = 5.0e-9;  // x (in * out)
constexpr double kNormBase = 0.003;
constexpr double kNormPerChannel = 1.0e-6;
constexpr double kEmbeddingBase = 0.006;
constexpr double kEmbeddingPerWeight = 2.0e-9;
constexpr double kActivationCost = 0.0012;
constexpr double kPoolCost = 0.0015;
constexpr double kStructuralCost = 0.0010;  // Add/Concat/Flatten/Dropout/Logit/Attend/Softmax.
constexpr double kBoundaryCost = 0.0005;    // Input/Output markers.

// Weight assignment ("state of the model" write): a fixed per-tensor
// dispatch overhead plus byte-proportional copy traffic.
constexpr double kWeightAssignPerByte = 0.35e-9;  // ~2.9 GB/s.
constexpr double kWeightAssignPerTensor = 0.6e-3;
constexpr double kWeightAssignBase = 0.0002;

// Deserialization (file parse) throughput — negligible per Fig. 3.
constexpr double kDeserializePerByte = 0.02e-9;
constexpr double kDeserializeBase = 0.002;

// Meta-operator constants (Fig. 8).
constexpr double kReplaceOverhead = 0.0002;
constexpr double kReshapeBase = 0.0008;
constexpr double kReshapePerByte = 0.15e-9;  // over |src| + |dst| weight bytes.
constexpr double kReduceCost = 0.0005;
constexpr double kEdgeCost = 0.00005;

// Inference compute: fixed dispatch overhead plus parameter-proportional work.
constexpr double kInferenceBase = 0.020;
constexpr double kInferencePerParam = 1.5e-9;

}  // namespace

double CostModel::ReplaceCost(OpKind kind, const OpAttributes& attrs) const {
  return ReplaceOverhead() +
         WeightAssignCost(WeightBytesFor(kind, attrs), WeightTensorCountFor(kind, attrs));
}

double CostModel::AddCost(OpKind kind, const OpAttributes& attrs) const {
  return OpStructureCost(kind, attrs) +
         WeightAssignCost(WeightBytesFor(kind, attrs), WeightTensorCountFor(kind, attrs));
}

LoadBreakdown CostModel::ModelLoadBreakdown(const Model& model) const {
  LoadBreakdown breakdown;
  int64_t weight_bytes = 0;
  int64_t weight_tensors = 0;
  for (const auto& [id, op] : model.ops()) {
    breakdown.structure += OpStructureCost(op.kind, op.attrs);
    weight_bytes += WeightBytesFor(op.kind, op.attrs);
    weight_tensors += WeightTensorCountFor(op.kind, op.attrs);
  }
  breakdown.weights = WeightAssignCost(weight_bytes, weight_tensors);
  // Serialized size ≈ weight payload plus a small structural envelope.
  breakdown.deserialize = DeserializeCost(weight_bytes + 64 * static_cast<int64_t>(model.NumOps()));
  return breakdown;
}

double CostModel::ScratchLoadCost(const Model& model) const {
  return ModelLoadBreakdown(model).Total();
}

double AnalyticCostModel::OpStructureCost(OpKind kind, const OpAttributes& attrs) const {
  double kind_cost = 0.0;
  switch (kind) {
    case OpKind::kConv2D:
      kind_cost = kConvBase + kConvPerKernelCell * static_cast<double>(attrs.kernel_h *
                                                                       attrs.kernel_w *
                                                                       attrs.out_channels);
      break;
    case OpKind::kDepthwiseConv2D:
      kind_cost = kConvBase + kConvPerKernelCell * static_cast<double>(attrs.kernel_h *
                                                                       attrs.kernel_w *
                                                                       attrs.in_channels);
      break;
    case OpKind::kDense:
    case OpKind::kAttentionQuery:
    case OpKind::kAttentionKey:
    case OpKind::kAttentionValue:
    case OpKind::kAttentionOutput:
      kind_cost = kDenseBase +
                  kDensePerWeight * static_cast<double>(attrs.in_channels * attrs.out_channels);
      break;
    case OpKind::kLstmCell:
    case OpKind::kGruCell:
      // Recurrent cells build one projection per gate.
      kind_cost =
          kDenseBase + kDensePerWeight * static_cast<double>(WeightElementsFor(kind, attrs));
      break;
    case OpKind::kBatchNorm:
    case OpKind::kLayerNorm:
      kind_cost = kNormBase + kNormPerChannel * static_cast<double>(attrs.out_channels);
      break;
    case OpKind::kEmbedding:
      kind_cost = kEmbeddingBase + kEmbeddingPerWeight *
                                       static_cast<double>(attrs.vocab_size * attrs.out_channels);
      break;
    case OpKind::kActivation:
      kind_cost = kActivationCost;
      break;
    case OpKind::kMaxPool:
    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool:
      kind_cost = kPoolCost;
      break;
    case OpKind::kInput:
    case OpKind::kOutput:
      kind_cost = kBoundaryCost;
      break;
    default:
      kind_cost = kStructuralCost;
      break;
  }
  return kPerOpOverhead + kind_cost;
}

double AnalyticCostModel::WeightAssignCost(int64_t bytes, int64_t tensor_count) const {
  if (bytes <= 0 && tensor_count <= 0) {
    return 0.0;
  }
  return kWeightAssignBase + kWeightAssignPerTensor * static_cast<double>(tensor_count) +
         kWeightAssignPerByte * static_cast<double>(bytes);
}

double AnalyticCostModel::DeserializeCost(int64_t bytes) const {
  return kDeserializeBase + kDeserializePerByte * static_cast<double>(bytes);
}

double AnalyticCostModel::ReshapeCost(OpKind kind, const OpAttributes& src,
                                      const OpAttributes& dst) const {
  const int64_t src_bytes = WeightBytesFor(kind, src);
  const int64_t dst_bytes = WeightBytesFor(kind, dst);
  return kReshapeBase + kReshapePerByte * static_cast<double>(src_bytes + dst_bytes);
}

double AnalyticCostModel::ReduceCost() const { return kReduceCost; }

double AnalyticCostModel::EdgeCost() const { return kEdgeCost; }

double AnalyticCostModel::ReplaceOverhead() const { return kReplaceOverhead; }

double SystemProfile::InferenceCost(const Model& model) const {
  return (kInferenceBase + kInferencePerParam * static_cast<double>(model.ParamCount())) *
         compute_scale;
}

double SystemProfile::DeviceTransferCost(const Model& model) const {
  return gpu_transfer_per_byte * static_cast<double>(model.WeightBytes());
}

int64_t ContainerFootprintBytes(const Model& model) {
  // ~256 MiB of runtime/framework baseline plus weights with a 1.2x overhead
  // for deserialization scratch and fragmentation.
  constexpr int64_t kRuntimeBaseline = 256LL << 20;
  return kRuntimeBaseline + static_cast<int64_t>(1.2 * static_cast<double>(model.WeightBytes()));
}

ModelCosts ModelCosts::Of(const Model& model, const CostModel& costs,
                          const SystemProfile& profile) {
  ModelCosts record;
  record.params = model.ParamCount();
  record.weight_bytes = model.WeightBytes();
  record.scratch_load = costs.ScratchLoadCost(model);
  record.inference = profile.InferenceCost(model);
  record.device_transfer = profile.DeviceTransferCost(model);
  record.container_bytes = ContainerFootprintBytes(model);
  return record;
}

}  // namespace optimus
