#include "src/core/planner.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <tuple>

#include "src/core/cost_matrix.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

class PlannerTest : public testing::Test {
 protected:
  // Checks that a mapping is a valid partial bijection covering both models.
  void CheckMappingValid(const Model& source, const Model& dest, const OpMapping& mapping) {
    std::set<OpId> src_seen;
    std::set<OpId> dst_seen;
    for (const auto& [s, d] : mapping.matched) {
      EXPECT_TRUE(source.HasOp(s));
      EXPECT_TRUE(dest.HasOp(d));
      EXPECT_EQ(source.op(s).kind, dest.op(d).kind);
      EXPECT_TRUE(src_seen.insert(s).second) << "source op matched twice";
      EXPECT_TRUE(dst_seen.insert(d).second) << "dest op matched twice";
    }
    for (const OpId s : mapping.reduced) {
      EXPECT_TRUE(src_seen.insert(s).second) << "source op used twice";
    }
    for (const OpId d : mapping.added) {
      EXPECT_TRUE(dst_seen.insert(d).second) << "dest op used twice";
    }
    EXPECT_EQ(src_seen.size(), source.NumOps());
    EXPECT_EQ(dst_seen.size(), dest.NumOps());
  }

  AnalyticCostModel costs_;
};

TEST_F(PlannerTest, CostMatrixShape) {
  const Model a = SmallChain("a", 3, 8);
  const Model b = SmallChain("b", 5, 8);
  const TransformCostMatrix matrix = BuildCostMatrix(a, b, costs_);
  EXPECT_EQ(matrix.n(), 4u);
  EXPECT_EQ(matrix.m(), 4u);
  EXPECT_EQ(matrix.costs.size(), 8u);
  // Deletion/insertion diagonals are finite, off-diagonals forbidden.
  EXPECT_LT(matrix.costs[0][4], kForbiddenCost);
  EXPECT_GE(matrix.costs[0][5], kForbiddenCost);
  EXPECT_LT(matrix.costs[4][0], kForbiddenCost);
  EXPECT_GE(matrix.costs[5][0], kForbiddenCost);
  // Bottom-right block is zero.
  EXPECT_EQ(matrix.costs[5][5], 0.0);
}

TEST_F(PlannerTest, SubstitutionForbiddenAcrossKinds) {
  Operation conv;
  conv.kind = OpKind::kConv2D;
  conv.attrs = ConvAttrs(3, 4, 8);
  Operation dense;
  dense.kind = OpKind::kDense;
  dense.attrs = DenseAttrs(4, 8);
  EXPECT_GE(SubstitutionCost(conv, dense, costs_), kForbiddenCost);
  EXPECT_LT(SubstitutionCost(conv, conv, costs_), kForbiddenCost);
}

TEST_F(PlannerTest, AllPlannersProduceValidMappings) {
  const Model source = SmallChain("src", 3, 8);
  const Model dest = SmallChain("dst", 5, 16);
  for (const PlannerKind kind :
       {PlannerKind::kBruteForce, PlannerKind::kBasic, PlannerKind::kGroup}) {
    const TransformPlan plan = PlanTransform(source, dest, costs_, kind);
    CheckMappingValid(source, dest, plan.mapping);
    EXPECT_GT(plan.total_cost, 0.0);
    EXPECT_GE(plan.planning_seconds, 0.0);
  }
}

TEST_F(PlannerTest, BasicMatchesBruteForceOnTinyModels) {
  // Optimality certificate: Munkres equals exhaustive enumeration.
  const Model source = SmallChain("src", 3, 8);
  for (const int64_t kernel : {1, 3, 5}) {
    for (const int64_t channels : {4, 8, 32}) {
      const Model dest = SmallChain("dst", kernel, channels);
      const TransformPlan brute = PlanTransform(source, dest, costs_, PlannerKind::kBruteForce);
      const TransformPlan basic = PlanTransform(source, dest, costs_, PlannerKind::kBasic);
      EXPECT_NEAR(brute.total_cost, basic.total_cost, 1e-9)
          << "kernel=" << kernel << " channels=" << channels;
    }
  }
}

TEST_F(PlannerTest, BruteForceRejectsLargeModels) {
  EXPECT_THROW(PlanTransform(TinyVgg(11), TinyVgg(16), costs_, PlannerKind::kBruteForce),
               std::invalid_argument);
}

TEST_F(PlannerTest, IdenticalStructuresNeedOnlyReplace) {
  // Case 1 of §3.3: same structure, different weights -> pure Replace.
  const Model a = TinyVgg(16);
  Model b = TinyVgg(16);
  b.set_name("tiny_vgg16_b");
  const TransformPlan plan = PlanTransform(a, b, costs_, PlannerKind::kGroup);
  EXPECT_EQ(plan.CountOf(MetaOpKind::kReshape), 0);
  EXPECT_EQ(plan.CountOf(MetaOpKind::kReduce), 0);
  EXPECT_EQ(plan.CountOf(MetaOpKind::kAdd), 0);
  EXPECT_EQ(plan.CountOf(MetaOpKind::kEdge), 0);
  EXPECT_EQ(plan.CountOf(MetaOpKind::kReplace), static_cast<int>(a.NumWeightedOps()));
}

TEST_F(PlannerTest, GroupIsNearOptimalWithinFamily) {
  // Module 2+ claims near-optimality; verify on family pairs.
  const struct {
    Model source;
    Model dest;
  } cases[] = {
      {TinyVgg(11), TinyVgg(16)},
      {TinyVgg(16), TinyVgg(19)},
      {TinyResNet(18), TinyResNet(34)},
  };
  for (const auto& pair : cases) {
    const double basic = PlanTransform(pair.source, pair.dest, costs_, PlannerKind::kBasic)
                             .total_cost;
    const double group = PlanTransform(pair.source, pair.dest, costs_, PlannerKind::kGroup)
                             .total_cost;
    EXPECT_GE(group, basic - 1e-9);
    EXPECT_LT(group, basic * 1.25) << pair.source.name() << " -> " << pair.dest.name();
  }
}

TEST_F(PlannerTest, GroupPlanningMuchFasterThanBasic) {
  // Table 1: the improved planner cuts planning time by orders of magnitude.
  const Model source = TinyVgg(16);
  const Model dest = TinyResNet(50);
  const TransformPlan basic = PlanTransform(source, dest, costs_, PlannerKind::kBasic);
  const TransformPlan group = PlanTransform(source, dest, costs_, PlannerKind::kGroup);
  EXPECT_LT(group.planning_seconds, basic.planning_seconds);
}

TEST_F(PlannerTest, ShrinkingUsesReduceGrowingUsesAdd) {
  // §8.2's asymmetry mechanism: large->small reduces, small->large adds.
  const TransformPlan shrink =
      PlanTransform(TinyResNet(34), TinyResNet(18), costs_, PlannerKind::kGroup);
  EXPECT_GT(shrink.CountOf(MetaOpKind::kReduce), 0);
  EXPECT_EQ(shrink.CountOf(MetaOpKind::kAdd), 0);
  const TransformPlan grow =
      PlanTransform(TinyResNet(18), TinyResNet(34), costs_, PlannerKind::kGroup);
  EXPECT_GT(grow.CountOf(MetaOpKind::kAdd), 0);
  EXPECT_EQ(grow.CountOf(MetaOpKind::kReduce), 0);
}

TEST_F(PlannerTest, TransformAsymmetry) {
  // Fig. 11's second observation: large -> small is cheaper than small -> large.
  const double shrink =
      PlanTransform(TinyVgg(19), TinyVgg(11), costs_, PlannerKind::kGroup).total_cost;
  const double grow =
      PlanTransform(TinyVgg(11), TinyVgg(19), costs_, PlannerKind::kGroup).total_cost;
  EXPECT_LT(shrink, grow);
}

TEST_F(PlannerTest, SameFamilyCheaperThanCrossFamily) {
  const double within =
      PlanTransform(TinyVgg(16), TinyVgg(19), costs_, PlannerKind::kGroup).total_cost;
  const double across =
      PlanTransform(TinyVgg(16), TinyResNet(50), costs_, PlannerKind::kGroup).total_cost;
  EXPECT_LT(within, across);
}

TEST_F(PlannerTest, TransformCheaperThanScratchLoadWithinFamily) {
  const Model dest = TinyVgg(19);
  const double transform =
      PlanTransform(TinyVgg(16), dest, costs_, PlannerKind::kGroup).total_cost;
  EXPECT_LT(transform, costs_.ScratchLoadCost(dest) * 0.6);
}

TEST_F(PlannerTest, CnnToTransformerGainsLittle) {
  // §8.2: CNN <-> transformer transformation is barely (if at all) cheaper
  // than a scratch load — the attention/embedding ops must all be Added — so
  // the safeguard's scratch fallback stays competitive.
  const Model dest = TinyBert(2, 64);
  const double cross =
      PlanTransform(TinyVgg(11), dest, costs_, PlannerKind::kGroup).total_cost;
  const double within =
      PlanTransform(TinyBert(4, 128), dest, costs_, PlannerKind::kGroup).total_cost;
  const double scratch = costs_.ScratchLoadCost(dest);
  EXPECT_GT(cross, scratch * 0.5);
  EXPECT_LT(within, cross);
}

TEST_F(PlannerTest, BertVariantTransformsCheaply) {
  // §5.2 Example 1: shrinking a BERT via Reshape + Reduce.
  const Model big = TinyBert(4, 128);
  const Model small = TinyBert(2, 64);
  const TransformPlan plan = PlanTransform(big, small, costs_, PlannerKind::kGroup);
  EXPECT_GT(plan.CountOf(MetaOpKind::kReshape), 0);
  EXPECT_GT(plan.CountOf(MetaOpKind::kReduce), 0);
  EXPECT_LT(plan.total_cost, costs_.ScratchLoadCost(small));
}

TEST_F(PlannerTest, EditDistanceOfIdenticalStructureIsSmall) {
  Model a = TinyVgg(11);
  Model b = TinyVgg(11);
  b.set_name("b");
  const double same = ModelEditDistance(a, b, costs_);
  const double diff = ModelEditDistance(a, TinyResNet(18), costs_);
  EXPECT_LT(same, diff);
}

TEST_F(PlannerTest, PlanToStringMentionsMetaOps) {
  const TransformPlan plan =
      PlanTransform(TinyVgg(11), TinyVgg(16), costs_, PlannerKind::kGroup);
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("Replace"), std::string::npos);
  EXPECT_NE(text.find("Add"), std::string::npos);
}

// Property sweep: every planner yields consistent plans whose cost equals the
// sum of step costs, across a grid of model pairs.
struct PlannerCase {
  const char* source;
  const char* dest;
};

// Prints a case as "Basic_vgg11_to_vgg16". gtest_discover_tests puts the
// printed parameter into each ctest name, so the default (the struct's bytes,
// which hold string pointers) would rename the test on every relink.
void PrintTo(const std::tuple<PlannerKind, PlannerCase>& param, std::ostream* os) {
  const auto& [kind, pair] = param;
  *os << PlannerKindName(kind) << "_" << pair.source << "_to_" << pair.dest;
}

class PlannerPropertyTest
    : public testing::TestWithParam<std::tuple<PlannerKind, PlannerCase>> {};

Model BuildNamed(const std::string& name) {
  if (name == "vgg11") {
    return TinyVgg(11);
  }
  if (name == "vgg16") {
    return TinyVgg(16);
  }
  if (name == "resnet18") {
    return TinyResNet(18);
  }
  if (name == "mobilenet") {
    return TinyMobileNet();
  }
  if (name == "bert2") {
    return TinyBert(2, 64);
  }
  return TinyBert(4, 128);
}

TEST_P(PlannerPropertyTest, PlanCostEqualsStepSum) {
  const auto [kind, model_pair] = GetParam();
  AnalyticCostModel costs;
  const Model source = BuildNamed(model_pair.source);
  const Model dest = BuildNamed(model_pair.dest);
  const TransformPlan plan = PlanTransform(source, dest, costs, kind);
  double total = 0.0;
  for (const MetaOp& step : plan.steps) {
    EXPECT_GE(step.cost, 0.0);
    total += step.cost;
  }
  EXPECT_NEAR(total, plan.total_cost, 1e-9);
  // Counts reconcile with the mapping.
  EXPECT_EQ(plan.CountOf(MetaOpKind::kReduce), static_cast<int>(plan.mapping.reduced.size()));
  EXPECT_EQ(plan.CountOf(MetaOpKind::kAdd), static_cast<int>(plan.mapping.added.size()));
}

INSTANTIATE_TEST_SUITE_P(
    PairsAndPlanners, PlannerPropertyTest,
    testing::Combine(testing::Values(PlannerKind::kBasic, PlannerKind::kGroup),
                     testing::Values(PlannerCase{"vgg11", "vgg16"},
                                     PlannerCase{"vgg16", "resnet18"},
                                     PlannerCase{"resnet18", "mobilenet"},
                                     PlannerCase{"bert2", "bert4"},
                                     PlannerCase{"mobilenet", "bert2"})));

}  // namespace
}  // namespace optimus
