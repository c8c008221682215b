// Tests for the concurrency-contract layer (src/common/sync.h, DESIGN.md §15):
// the annotated Mutex/SharedMutex/CondVar wrappers and the debug lock-rank
// deadlock validator — rank-inversion detection, acquired-after cycle
// detection, recursive-acquisition and unheld-release reporting, and held-set
// hygiene across exceptions and condvar waits.
//
// In Release (validator compiled out) the dynamic checks vanish; the suite
// then pins the zero-cost contract instead: the wrappers must be
// layout-identical to the raw std primitives.

#include "src/common/sync.h"

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace optimus {
namespace {

#if OPTIMUS_LOCK_RANK_DEBUG

// Recording handler: violations land in a buffer instead of aborting, and the
// offending acquisition proceeds (the validator's report-and-continue path).
// The buffer is global because handlers are plain function pointers.
struct Recorded {
  std::string kind;
  std::string message;
};
std::vector<Recorded>* g_recorded = nullptr;

void RecordViolation(const lockrank::Violation& violation) {
  if (g_recorded != nullptr) {
    g_recorded->push_back({violation.kind, violation.message});
  }
}

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_recorded = &recorded_;
    previous_ = lockrank::SetViolationHandler(&RecordViolation);
    lockrank::ResetGraphForTest();
  }

  void TearDown() override {
    lockrank::SetViolationHandler(previous_);
    g_recorded = nullptr;
    lockrank::ResetGraphForTest();
    EXPECT_EQ(lockrank::HeldLockCount(), 0u)
        << "a test leaked a held-set entry; later tests would misreport";
  }

  bool Saw(const std::string& kind) const {
    for (const Recorded& violation : recorded_) {
      if (violation.kind == kind) {
        return true;
      }
    }
    return false;
  }

  std::vector<Recorded> recorded_;
  lockrank::Handler previous_ = nullptr;
};

TEST_F(LockRankTest, IncreasingRankOrderIsClean) {
  Mutex low(LockRank::kRepository, "test.low");
  Mutex high(LockRank::kNode, "test.high");
  {
    MutexLock a(low);
    MutexLock b(high);
    EXPECT_EQ(lockrank::HeldLockCount(), 2u);
  }
  EXPECT_TRUE(recorded_.empty());
}

TEST_F(LockRankTest, RankInversionIsReportedWithBothStacks) {
  Mutex low(LockRank::kPlanCacheShard, "test.shard");
  Mutex high(LockRank::kPlanCacheEntry, "test.entry");
  {
    MutexLock a(high);  // rank 60 first...
    MutexLock b(low);   // ...then rank 50: inversion.
  }
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, "rank-inversion");
  EXPECT_NE(recorded_[0].message.find("test.entry"), std::string::npos);
  EXPECT_NE(recorded_[0].message.find("test.shard"), std::string::npos);
  EXPECT_NE(recorded_[0].message.find("held lock acquired at:"), std::string::npos);
  EXPECT_NE(recorded_[0].message.find("offending acquisition:"), std::string::npos);
}

TEST_F(LockRankTest, SeededTwoLockInversionAcrossThreadsClosesCycle) {
  // The classic A→B / B→A deadlock seed, expressed with two same-rank locks
  // so the rank check alone cannot see it: thread 1 records edge A→B, then
  // this thread's B→A closes the cycle in the acquired-after graph.
  Mutex a(LockRank::kNode, "test.a");
  Mutex b(LockRank::kNode, "test.b");
  std::thread t([&] {
    MutexLock hold_a(a);
    MutexLock then_b(b);  // Records A→B.
  });
  t.join();
  {
    MutexLock hold_b(b);
    MutexLock then_a(a);  // B→A: cycle.
  }
  ASSERT_TRUE(Saw("lock-cycle"));
}

TEST_F(LockRankTest, ThreeMutexCycleIsDetected) {
  // A→B and B→C are recorded as legal edges; C→A closes a cycle spanning
  // three instances — exactly what pairwise ordering checks miss.
  Mutex a(LockRank::kNode, "test.cycle_a");
  Mutex b(LockRank::kNode, "test.cycle_b");
  Mutex c(LockRank::kNode, "test.cycle_c");
  {
    MutexLock la(a);
    MutexLock lb(b);  // A→B
  }
  EXPECT_TRUE(recorded_.empty());
  {
    MutexLock lb(b);
    MutexLock lc(c);  // B→C
  }
  EXPECT_TRUE(recorded_.empty());
  {
    MutexLock lc(c);
    MutexLock la(a);  // C→A closes A→B→C→A.
  }
  ASSERT_EQ(recorded_.size(), 1u);
  EXPECT_EQ(recorded_[0].kind, "lock-cycle");
  // The report names the cycle-closing pair and at least one recorded edge.
  EXPECT_NE(recorded_[0].message.find("test.cycle_c"), std::string::npos);
  EXPECT_NE(recorded_[0].message.find("test.cycle_a"), std::string::npos);
  EXPECT_NE(recorded_[0].message.find("edge"), std::string::npos);
}

TEST_F(LockRankTest, RecursiveAcquisitionIsReported) {
  Mutex mu(LockRank::kNode, "test.recursive");
  MutexLock lock(mu);
  // Drive the pre-acquire check directly: re-locking the raw mutex for real
  // would deadlock this thread — which is exactly the hang the check turns
  // into a report *before* blocking.
  lockrank::internal::PreAcquire(&mu, static_cast<uint32_t>(LockRank::kNode), "test.recursive");
  EXPECT_TRUE(Saw("recursive-acquisition"));
}

TEST_F(LockRankTest, UnheldReleaseIsReported) {
  Mutex mu(LockRank::kNode, "test.unheld");
  mu.native().lock();  // Acquire behind the validator's back...
  mu.Unlock();         // ...so this release finds no held-set entry.
  EXPECT_TRUE(Saw("unheld-release"));
}

TEST_F(LockRankTest, HeldSetUnwindsAcrossExceptions) {
  Mutex mu(LockRank::kNode, "test.unwind");
  try {
    MutexLock lock(mu);
    EXPECT_EQ(lockrank::HeldLockCount(), 1u);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(lockrank::HeldLockCount(), 0u);
  // The lock is actually free again: re-acquiring is clean.
  MutexLock lock(mu);
  EXPECT_TRUE(recorded_.empty());
}

TEST_F(LockRankTest, UnrankedLocksAreExemptFromOrderChecks) {
  Mutex ranked(LockRank::kNode, "test.ranked");
  Mutex unranked;  // Tests/scaffolding default.
  {
    MutexLock a(ranked);
    MutexLock b(unranked);  // Unranked after ranked: fine.
  }
  {
    MutexLock b(unranked);
    MutexLock a(ranked);  // Ranked after unranked: also fine.
  }
  EXPECT_TRUE(recorded_.empty());
}

TEST_F(LockRankTest, TryLockSkipsOrderChecksButTracksHeld) {
  Mutex low(LockRank::kRepository, "test.try_low");
  Mutex high(LockRank::kNode, "test.try_high");
  MutexLock hold(high);
  // A try-lock against the order is allowed (it cannot block)...
  ASSERT_TRUE(low.TryLock());
  EXPECT_TRUE(recorded_.empty());
  EXPECT_EQ(lockrank::HeldLockCount(), 2u);
  low.Unlock();
}

TEST_F(LockRankTest, SharedMutexReadersParticipateInOrdering) {
  SharedMutex registry(LockRank::kFaultRegistry, "test.registry");
  Mutex point(LockRank::kFaultPoint, "test.point");
  {
    ReaderLock shared(registry);
    MutexLock inner(point);  // registry(shared) → point: the fault.cc order.
  }
  EXPECT_TRUE(recorded_.empty());
  {
    MutexLock inner(point);
    ReaderLock shared(registry);  // Reverse order: inversion, shared or not.
  }
  EXPECT_TRUE(Saw("rank-inversion"));
}

TEST_F(LockRankTest, CondVarWaitKeepsHeldSetEntry) {
  Mutex mu(LockRank::kThreadPool, "test.cv");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    while (!ready) {
      cv.Wait(mu);
      // Re-acquired: the held-set still records exactly this lock.
      EXPECT_EQ(lockrank::HeldLockCount(), 1u);
    }
  }
  waker.join();
  EXPECT_EQ(lockrank::HeldLockCount(), 0u);
  EXPECT_TRUE(recorded_.empty());
}

TEST_F(LockRankTest, MutexLockUnlockRelockRoundTrip) {
  // The condvar-loop idiom RebalancerLoop and WarmingLoop rely on.
  Mutex mu(LockRank::kRebalance, "test.relock");
  MutexLock lock(mu);
  EXPECT_EQ(lockrank::HeldLockCount(), 1u);
  lock.Unlock();
  EXPECT_EQ(lockrank::HeldLockCount(), 0u);
  lock.Lock();
  EXPECT_EQ(lockrank::HeldLockCount(), 1u);
}

#else  // !OPTIMUS_LOCK_RANK_DEBUG

// Release contract: the wrappers are free — layout-identical to the raw std
// primitives (no rank/name members) and the validator API collapses to stubs.
static_assert(sizeof(Mutex) == sizeof(lockrank::internal::RawMutex),
              "Release Mutex must be layout-identical to the raw mutex");
static_assert(sizeof(SharedMutex) == sizeof(lockrank::internal::RawSharedMutex),
              "Release SharedMutex must be layout-identical to the raw shared mutex");
static_assert(sizeof(CondVar) == sizeof(lockrank::internal::RawCondVar),
              "CondVar must be layout-identical to the raw condition variable");

TEST(SyncReleaseTest, ValidatorApiIsStubbedOut) {
  EXPECT_EQ(lockrank::SetViolationHandler(nullptr), nullptr);
  EXPECT_EQ(lockrank::HeldLockCount(), 0u);
  lockrank::ResetGraphForTest();  // No-op, must link.
}

#endif  // OPTIMUS_LOCK_RANK_DEBUG

// Smoke coverage that must hold in every configuration.
TEST(SyncSmokeTest, WrappersProtectSharedState) {
  Mutex mu(LockRank::kNode, "smoke.counter");
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 4000);
}

TEST(SyncSmokeTest, ReaderWriterExclusion) {
  SharedMutex mu(LockRank::kRepository, "smoke.rw");
  int value = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        WriterLock lock(mu);
        ++value;
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        ReaderLock lock(mu);
        EXPECT_GE(value, 0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(value, 1000);
}

}  // namespace
}  // namespace optimus
