#include "src/container/container.h"

#include <gtest/gtest.h>

namespace optimus {
namespace {

class ContainerPoolTest : public testing::Test {
 protected:
  ContainerPool pool_{/*capacity=*/3, /*idle_threshold=*/60.0, /*keep_alive=*/600.0};
};

TEST_F(ContainerPoolTest, LaunchAndFind) {
  Container* c = pool_.Launch("vgg16", 0.0, 1.5);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->function, "vgg16");
  EXPECT_EQ(c->state, ContainerState::kStarting);
  EXPECT_EQ(pool_.Find(c->id)->function, "vgg16");
  EXPECT_EQ(pool_.Find(999), nullptr);
}

TEST_F(ContainerPoolTest, CapacityEnforced) {
  pool_.Launch("a", 0.0, 0.0);
  pool_.Launch("b", 0.0, 0.0);
  pool_.Launch("c", 0.0, 0.0);
  EXPECT_FALSE(pool_.HasFreeSlot());
  EXPECT_THROW(pool_.Launch("d", 0.0, 0.0), std::runtime_error);
}

TEST_F(ContainerPoolTest, FindWarmOnlyMatchesIdleSameFunction) {
  Container* busy = pool_.Launch("vgg16", 0.0, 0.0);
  busy->state = ContainerState::kBusy;
  EXPECT_EQ(pool_.FindWarm("vgg16"), nullptr);
  busy->state = ContainerState::kIdle;
  EXPECT_EQ(pool_.FindWarm("vgg16"), busy);
  EXPECT_EQ(pool_.FindWarm("resnet50"), nullptr);
}

TEST_F(ContainerPoolTest, IdleTimerGatesTransformCandidates) {
  Container* c = pool_.Launch("vgg16", 0.0, 0.0);
  c->state = ContainerState::kIdle;
  c->last_active = 100.0;
  // Before the threshold: not a donor.
  EXPECT_TRUE(pool_.TransformCandidates("resnet50", 130.0).empty());
  // After the threshold: a donor for other functions only.
  EXPECT_EQ(pool_.TransformCandidates("resnet50", 161.0).size(), 1u);
  EXPECT_TRUE(pool_.TransformCandidates("vgg16", 161.0).empty());
}

TEST_F(ContainerPoolTest, BusyContainersAreNeverDonors) {
  Container* c = pool_.Launch("vgg16", 0.0, 0.0);
  c->state = ContainerState::kBusy;
  c->last_active = 0.0;
  EXPECT_TRUE(pool_.TransformCandidates("resnet50", 1000.0).empty());
}

TEST_F(ContainerPoolTest, KeepAliveReapsOnlyExpiredIdle) {
  Container* old_idle = pool_.Launch("a", 0.0, 0.0);
  old_idle->state = ContainerState::kIdle;
  old_idle->last_active = 0.0;
  Container* fresh_idle = pool_.Launch("b", 0.0, 0.0);
  fresh_idle->state = ContainerState::kIdle;
  fresh_idle->last_active = 500.0;
  Container* busy = pool_.Launch("c", 0.0, 0.0);
  busy->state = ContainerState::kBusy;
  busy->last_active = 0.0;
  old_idle->prewarmed = true;
  fresh_idle->prewarmed = true;

  // keep_alive = 600: only "a" expired, a pre-warm never hit.
  EXPECT_EQ(pool_.ReapExpired(700.0), 1u);
  EXPECT_EQ(pool_.Size(), 2u);
  EXPECT_EQ(pool_.FindWarm("a"), nullptr);
  EXPECT_NE(pool_.FindWarm("b"), nullptr);
}

TEST_F(ContainerPoolTest, LruIdlePicksOldest) {
  Container* a = pool_.Launch("a", 0.0, 0.0);
  a->state = ContainerState::kIdle;
  a->last_active = 50.0;
  Container* b = pool_.Launch("b", 0.0, 0.0);
  b->state = ContainerState::kIdle;
  b->last_active = 10.0;
  EXPECT_EQ(pool_.LruIdle()->function, "b");
  b->state = ContainerState::kBusy;
  EXPECT_EQ(pool_.LruIdle()->function, "a");
}

TEST_F(ContainerPoolTest, MinPriorityIdlePicksCheapestToReload) {
  Container* expensive = pool_.Launch("big_model", 0.0, 0.0);
  expensive->state = ContainerState::kIdle;
  expensive->priority = 10.0;
  Container* cheap = pool_.Launch("small_model", 0.0, 0.0);
  cheap->state = ContainerState::kIdle;
  cheap->priority = 2.0;
  Container* busy = pool_.Launch("busy_model", 0.0, 0.0);
  busy->state = ContainerState::kBusy;
  busy->priority = 0.5;  // Lowest priority, but busy containers are immune.
  EXPECT_EQ(pool_.MinPriorityIdle()->function, "small_model");
}

TEST_F(ContainerPoolTest, LruIdleNullWhenAllBusy) {
  Container* a = pool_.Launch("a", 0.0, 0.0);
  a->state = ContainerState::kBusy;
  EXPECT_EQ(pool_.LruIdle(), nullptr);
}

TEST_F(ContainerPoolTest, RemoveFreesSlot) {
  const ContainerId a_id = pool_.Launch("a", 0.0, 0.0)->id;
  pool_.Launch("b", 0.0, 0.0);
  pool_.Launch("c", 0.0, 0.0);
  EXPECT_FALSE(pool_.HasFreeSlot());
  pool_.Remove(a_id);
  EXPECT_TRUE(pool_.HasFreeSlot());
  EXPECT_EQ(pool_.Size(), 2u);
}

TEST(ContainerTest, IdleSinceSemantics) {
  Container c;
  c.state = ContainerState::kIdle;
  c.last_active = 100.0;
  EXPECT_FALSE(c.IdleSince(150.0, 60.0));
  EXPECT_TRUE(c.IdleSince(160.0, 60.0));
  c.state = ContainerState::kBusy;
  EXPECT_FALSE(c.IdleSince(500.0, 60.0));
}

}  // namespace
}  // namespace optimus
