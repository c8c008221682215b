#include "src/runtime/cost_model.h"

#include <gtest/gtest.h>

#include "src/zoo/bert.h"
#include "src/zoo/chain_builder.h"
#include "src/zoo/registry.h"
#include "src/zoo/resnet.h"
#include "src/zoo/vgg.h"

namespace optimus {
namespace {

class CostModelTest : public testing::Test {
 protected:
  AnalyticCostModel costs_;
};

TEST_F(CostModelTest, StructureDominatesModelLoad) {
  // Insight 2 (§3.2): structure loading dominates (~90%), weights ~10%,
  // deserialization negligible.
  for (const Model& model : {BuildVgg(16), BuildResNet(50), BuildBert(BertBaseConfig())}) {
    const LoadBreakdown breakdown = costs_.ModelLoadBreakdown(model);
    EXPECT_GT(breakdown.structure / breakdown.Total(), 0.60) << model.name();
    EXPECT_LT(breakdown.weights / breakdown.Total(), 0.35) << model.name();
    EXPECT_LT(breakdown.deserialize / breakdown.Total(), 0.05) << model.name();
  }
}

TEST_F(CostModelTest, ConvScalesWithKernelAndChannels) {
  // Fig. 4 / Fig. 5c: a 3x3x512 CONV loads ~1.79x slower than 3x3x64.
  const double small = costs_.OpStructureCost(OpKind::kConv2D, ConvAttrs(3, 64, 64));
  const double large = costs_.OpStructureCost(OpKind::kConv2D, ConvAttrs(3, 512, 512));
  EXPECT_NEAR(large / small, 1.79, 0.25);
  // Larger kernels cost more at fixed channels.
  EXPECT_GT(costs_.OpStructureCost(OpKind::kConv2D, ConvAttrs(5, 64, 64)),
            costs_.OpStructureCost(OpKind::kConv2D, ConvAttrs(3, 64, 64)));
}

TEST_F(CostModelTest, ConvLoadsSlowerThanActivation) {
  // Fig. 4: CONV takes up to ~10x an activation's load time.
  const double conv = costs_.OpStructureCost(OpKind::kConv2D, ConvAttrs(3, 512, 512));
  const double activation = costs_.OpStructureCost(OpKind::kActivation, ReluAttrs());
  EXPECT_GT(conv / activation, 1.5);
  EXPECT_LT(conv / activation, 15.0);
}

TEST_F(CostModelTest, WeightedOpsLoadSlowerThanWeightFree) {
  const OpAttributes conv = ConvAttrs(3, 256, 256);
  EXPECT_GT(costs_.OpStructureCost(OpKind::kConv2D, conv),
            costs_.OpStructureCost(OpKind::kMaxPool, PoolAttrs(3, 2)));
  EXPECT_GT(costs_.OpStructureCost(OpKind::kDense, DenseAttrs(4096, 4096)),
            costs_.OpStructureCost(OpKind::kAdd, {}));
}

TEST_F(CostModelTest, ReplaceMuchCheaperThanAdd) {
  // Fig. 8: Replace (weight overwrite) is far cheaper than Add (full create).
  const OpAttributes conv = ConvAttrs(3, 256, 512);
  EXPECT_LT(costs_.ReplaceCost(OpKind::kConv2D, conv),
            costs_.AddCost(OpKind::kConv2D, conv) * 0.6);
}

TEST_F(CostModelTest, ReshapeCheaperThanScratchLoad) {
  // Fig. 5c: in-container scaling is ~1/3 of loading the op from scratch.
  const OpAttributes from = ConvAttrs(3, 256, 256);
  const OpAttributes to = ConvAttrs(5, 256, 256);
  const double reshape = costs_.ReshapeCost(OpKind::kConv2D, from, to);
  const double scratch = costs_.AddCost(OpKind::kConv2D, to);
  EXPECT_LT(reshape, scratch * 0.6);
}

TEST_F(CostModelTest, ReplaceScalesWithBytes) {
  EXPECT_GT(costs_.ReplaceCost(OpKind::kDense, DenseAttrs(4096, 4096)),
            costs_.ReplaceCost(OpKind::kDense, DenseAttrs(64, 64)));
}

TEST_F(CostModelTest, ReduceConstantAndEdgeNegligible) {
  EXPECT_GT(costs_.ReduceCost(), 0.0);
  EXPECT_LT(costs_.EdgeCost(), costs_.ReduceCost());
  EXPECT_LT(costs_.EdgeCost(), 1e-3);
}

TEST_F(CostModelTest, WeightAssignLinearInBytesAndTensors) {
  const double one_mb = costs_.WeightAssignCost(1 << 20, 1);
  const double four_mb = costs_.WeightAssignCost(4 << 20, 1);
  EXPECT_GT(four_mb, one_mb);
  // Per-tensor dispatch overhead.
  EXPECT_GT(costs_.WeightAssignCost(1 << 20, 8), costs_.WeightAssignCost(1 << 20, 2));
  EXPECT_EQ(costs_.WeightAssignCost(0, 0), 0.0);
}

TEST_F(CostModelTest, LoadGrowsWithDepthWithinFamily) {
  // Fig. 2: deeper family members load slower.
  EXPECT_LT(costs_.ScratchLoadCost(BuildVgg(11)), costs_.ScratchLoadCost(BuildVgg(19)));
  EXPECT_LT(costs_.ScratchLoadCost(BuildResNet(50)), costs_.ScratchLoadCost(BuildResNet(101)));
  EXPECT_LT(costs_.ScratchLoadCost(BuildResNet(101)), costs_.ScratchLoadCost(BuildResNet(152)));
}

TEST_F(CostModelTest, ParamsDoNotDetermineLoadLatency) {
  // Fig. 2's second observation: ResNet has ~5x fewer parameters than VGG yet
  // does not load ~5x faster (op count, not size, dominates).
  const Model vgg = BuildVgg(16);
  const Model resnet = BuildResNet(50);
  ASSERT_GT(vgg.ParamCount(), resnet.ParamCount() * 4);
  const double vgg_load = costs_.ScratchLoadCost(vgg);
  const double resnet_load = costs_.ScratchLoadCost(resnet);
  EXPECT_GT(resnet_load, vgg_load * 0.5);  // Same ballpark despite 5x params.
}

TEST_F(CostModelTest, SystemProfileCpuVsGpu) {
  const SystemProfile cpu = SystemProfile::Cpu();
  const SystemProfile gpu = SystemProfile::Gpu();
  const Model model = BuildResNet(50);
  // GPU initialization is more expensive (§8.5)...
  EXPECT_GT(gpu.InitCost(), cpu.InitCost());
  EXPECT_GT(gpu.DeviceTransferCost(model), cpu.DeviceTransferCost(model));
  // ...but compute is faster.
  EXPECT_LT(gpu.InferenceCost(model), cpu.InferenceCost(model));
}

TEST_F(CostModelTest, InferenceCostGrowsWithModelSize) {
  const SystemProfile profile = SystemProfile::Cpu();
  EXPECT_LT(profile.InferenceCost(BuildResNet(50)), profile.InferenceCost(BuildVgg(16)));
}

// The record replaces the direct calls on every request path, so each field
// must be bit-equal to its call — a rounding difference would change which
// donor or start type the safeguard picks.
TEST_F(CostModelTest, ModelCostsRecordEqualsDirectCalls) {
  const ModelRegistry registry = RepresentativeModels();
  for (const std::string& name : RepresentativeModelNames()) {
    const Model model = registry.Build(name);
    for (const SystemProfile& profile : {SystemProfile::Cpu(), SystemProfile::Gpu()}) {
      const ModelCosts record = ModelCosts::Of(model, costs_, profile);
      EXPECT_EQ(record.params, model.ParamCount()) << name;
      EXPECT_EQ(record.weight_bytes, model.WeightBytes()) << name;
      EXPECT_EQ(record.scratch_load, costs_.ScratchLoadCost(model)) << name;
      EXPECT_EQ(record.inference, profile.InferenceCost(model)) << name;
      EXPECT_EQ(record.device_transfer, profile.DeviceTransferCost(model)) << name;
      EXPECT_EQ(record.container_bytes, ContainerFootprintBytes(model)) << name;
    }
  }
}

}  // namespace
}  // namespace optimus
