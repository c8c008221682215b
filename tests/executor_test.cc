#include "src/core/executor.h"

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "src/core/planner.h"
#include "src/runtime/inference.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

class ExecutorTest : public testing::Test {
 protected:
  // Runs the full pipeline: load source, plan, execute, and check the
  // post-condition that the container now holds exactly the destination.
  TransformExecutionStats TransformAndCheck(const Model& source_structure,
                                            const Model& dest_structure, PlannerKind kind) {
    ModelInstance source = loader_.Instantiate(source_structure, /*weight_seed=*/101);
    const ModelInstance dest = loader_.Instantiate(dest_structure, /*weight_seed=*/202);
    const TransformPlan plan = PlanTransform(source.model, dest.model, costs_, kind);
    const TransformExecutionStats stats = ExecutePlan(&source, dest.model, plan);
    EXPECT_TRUE(source.model.Identical(dest.model))
        << source_structure.name() << " -> " << dest_structure.name();
    source.model.Validate();
    return stats;
  }

  AnalyticCostModel costs_;
  Loader loader_{&costs_};
};

TEST_F(ExecutorTest, SameStructureReplaceOnly) {
  Model b = TinyVgg(11);
  b.set_name("tiny_vgg11_b");
  const TransformExecutionStats stats = TransformAndCheck(TinyVgg(11), b, PlannerKind::kGroup);
  EXPECT_GT(stats.count_by_kind[static_cast<size_t>(MetaOpKind::kReplace)], 0);
  EXPECT_EQ(stats.count_by_kind[static_cast<size_t>(MetaOpKind::kAdd)], 0);
  EXPECT_EQ(stats.count_by_kind[static_cast<size_t>(MetaOpKind::kReduce)], 0);
}

TEST_F(ExecutorTest, GrowWithinFamily) {
  const TransformExecutionStats stats =
      TransformAndCheck(TinyVgg(11), TinyVgg(16), PlannerKind::kGroup);
  EXPECT_GT(stats.count_by_kind[static_cast<size_t>(MetaOpKind::kAdd)], 0);
}

TEST_F(ExecutorTest, ShrinkWithinFamily) {
  const TransformExecutionStats stats =
      TransformAndCheck(TinyVgg(16), TinyVgg(11), PlannerKind::kGroup);
  EXPECT_GT(stats.count_by_kind[static_cast<size_t>(MetaOpKind::kReduce)], 0);
}

TEST_F(ExecutorTest, CrossFamilyCnn) {
  TransformAndCheck(TinyVgg(11), TinyResNet(18), PlannerKind::kGroup);
  TransformAndCheck(TinyResNet(18), TinyMobileNet(), PlannerKind::kGroup);
}

TEST_F(ExecutorTest, BertToBert) {
  const TransformExecutionStats stats =
      TransformAndCheck(TinyBert(4, 128), TinyBert(2, 64), PlannerKind::kGroup);
  EXPECT_GT(stats.count_by_kind[static_cast<size_t>(MetaOpKind::kReshape)], 0);
  EXPECT_GT(stats.count_by_kind[static_cast<size_t>(MetaOpKind::kReduce)], 0);
}

TEST_F(ExecutorTest, CnnToBertAndBack) {
  TransformAndCheck(TinyMobileNet(), TinyBert(2, 64), PlannerKind::kGroup);
  TransformAndCheck(TinyBert(2, 64), TinyMobileNet(), PlannerKind::kGroup);
}

TEST_F(ExecutorTest, BasicPlannerPlansAreExecutable) {
  TransformAndCheck(TinyVgg(11), TinyVgg(16), PlannerKind::kBasic);
  TransformAndCheck(TinyResNet(18), TinyVgg(11), PlannerKind::kBasic);
}

TEST_F(ExecutorTest, TransformedModelServesDestinationFunction) {
  // The decisive end-to-end property: inference outputs from the transformed
  // container equal those from a scratch-loaded destination.
  ModelInstance source = loader_.Instantiate(TinyVgg(11), 11);
  const ModelInstance dest = loader_.Instantiate(TinyVgg(16), 22);
  const TransformPlan plan = PlanTransform(source.model, dest.model, costs_, PlannerKind::kGroup);
  ExecutePlan(&source, dest.model, plan);
  const std::vector<float> input(8, 0.3f);
  EXPECT_EQ(RunInference(source, input), RunInference(dest, input));
}

TEST_F(ExecutorTest, PlanForWrongSourceThrows) {
  ModelInstance source = loader_.Instantiate(TinyMobileNet(), 1);
  const ModelInstance dest = loader_.Instantiate(TinyVgg(11), 2);
  // Plan computed against a different source model.
  const TransformPlan plan =
      PlanTransform(loader_.Instantiate(TinyVgg(16), 3).model, dest.model, costs_,
                    PlannerKind::kGroup);
  EXPECT_THROW(ExecutePlan(&source, dest.model, plan), std::runtime_error);
}

TEST_F(ExecutorTest, StatsTotalsAreConsistent) {
  ModelInstance source = loader_.Instantiate(TinyResNet(18), 1);
  const ModelInstance dest = loader_.Instantiate(TinyResNet(34), 2);
  const TransformPlan plan = PlanTransform(source.model, dest.model, costs_, PlannerKind::kGroup);
  const TransformExecutionStats stats = ExecutePlan(&source, dest.model, plan);
  double sum = 0.0;
  for (const double seconds : stats.seconds_by_kind) {
    EXPECT_GE(seconds, 0.0);
    sum += seconds;
  }
  EXPECT_NEAR(sum, stats.total_seconds, 1e-9);
}

// Property sweep: transformation correctness over a grid of model pairs and
// both production planners.
struct ExecCase {
  const char* source;
  const char* dest;
};

// Prints a case as "Basic_vgg11_to_vgg19". gtest_discover_tests puts the
// printed parameter into each ctest name, so the default (the struct's bytes,
// which hold string pointers) would rename the test on every relink.
void PrintTo(const std::tuple<PlannerKind, ExecCase>& param, std::ostream* os) {
  const auto& [kind, pair] = param;
  *os << PlannerKindName(kind) << "_" << pair.source << "_to_" << pair.dest;
}

class ExecutorPropertyTest : public testing::TestWithParam<std::tuple<PlannerKind, ExecCase>> {};

Model BuildNamed(const std::string& name) {
  if (name == "vgg11") {
    return TinyVgg(11);
  }
  if (name == "vgg16") {
    return TinyVgg(16);
  }
  if (name == "vgg19") {
    return TinyVgg(19);
  }
  if (name == "resnet18") {
    return TinyResNet(18);
  }
  if (name == "resnet34") {
    return TinyResNet(34);
  }
  if (name == "mobilenet") {
    return TinyMobileNet();
  }
  if (name == "bert2") {
    return TinyBert(2, 64);
  }
  return TinyBert(4, 128);
}

TEST_P(ExecutorPropertyTest, TransformYieldsIdenticalModel) {
  const auto [planner, exec_case] = GetParam();
  AnalyticCostModel costs;
  Loader loader(&costs);
  ModelInstance source = loader.Instantiate(BuildNamed(exec_case.source), 7);
  const ModelInstance dest = loader.Instantiate(BuildNamed(exec_case.dest), 8);
  const TransformPlan plan = PlanTransform(source.model, dest.model, costs, planner);
  ExecutePlan(&source, dest.model, plan);
  EXPECT_TRUE(source.model.Identical(dest.model));
}

INSTANTIATE_TEST_SUITE_P(
    PairsAndPlanners, ExecutorPropertyTest,
    testing::Combine(testing::Values(PlannerKind::kBasic, PlannerKind::kGroup),
                     testing::Values(ExecCase{"vgg11", "vgg19"}, ExecCase{"vgg19", "vgg11"},
                                     ExecCase{"resnet18", "resnet34"},
                                     ExecCase{"resnet34", "vgg16"},
                                     ExecCase{"mobilenet", "resnet18"},
                                     ExecCase{"bert2", "bert4"}, ExecCase{"bert4", "bert2"},
                                     ExecCase{"vgg11", "bert2"})));

}  // namespace
}  // namespace optimus
