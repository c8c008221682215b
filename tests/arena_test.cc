// Tests for the zero-copy tensor substrate (DESIGN.md §14): TensorArena
// allocation/recycling, arena-backed and aliased Tensor views, the SIMD
// data-movement kernels, and the vectorized resize against its scalar oracle.
// The resize-vs-oracle sweeps also run under ASan/UBSan in CI, which is what
// pins the coalesced-run kernels' bounds on odd shapes.

#include "src/tensor/arena.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/runtime/loader.h"
#include "src/tensor/simd.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

// ---------------------------------------------------------------------------
// TensorArena allocation behaviour.
// ---------------------------------------------------------------------------

TEST(TensorArenaTest, AllocationsAre64ByteAligned) {
  TensorArena arena(/*slab_elements=*/256);
  for (int i = 0; i < 8; ++i) {
    const float* ptr = arena.Allocate(7);  // Odd size forces alignment padding.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(ptr) % 64, 0u);
  }
}

TEST(TensorArenaTest, OwnsIsPreciseAcrossSlabs) {
  TensorArena arena(/*slab_elements=*/64);
  float* a = arena.Allocate(64);
  float* b = arena.Allocate(64);  // Second slab.
  EXPECT_TRUE(arena.Owns(a));
  EXPECT_TRUE(arena.Owns(b));
  EXPECT_GE(arena.num_slabs(), 2u);
  const float heap_float = 0.0f;
  EXPECT_FALSE(arena.Owns(&heap_float));
  EXPECT_FALSE(arena.Owns(nullptr));
}

TEST(TensorArenaTest, OversizedRequestGetsDedicatedSlab) {
  TensorArena arena(/*slab_elements=*/64);
  float* big = arena.Allocate(1000);
  EXPECT_TRUE(arena.Owns(big));
  EXPECT_GE(arena.elements_reserved(), 1000);
}

TEST(TensorArenaTest, ResetRecyclesReservationAndBumpsGeneration) {
  TensorArena arena(/*slab_elements=*/128);
  arena.Allocate(100);
  arena.Allocate(100);
  const int64_t reserved = arena.elements_reserved();
  const uint64_t gen = arena.generation();
  arena.Reset();
  EXPECT_EQ(arena.elements_used(), 0);
  EXPECT_EQ(arena.elements_reserved(), reserved);  // Slabs kept, not freed.
  EXPECT_EQ(arena.generation(), gen + 1);
  // Recycled memory is handed out again from the front.
  float* again = arena.Allocate(100);
  EXPECT_TRUE(arena.Owns(again));
  EXPECT_EQ(arena.elements_reserved(), reserved);
}

// ---------------------------------------------------------------------------
// Arena-backed tensor views: aliasing and ownership.
// ---------------------------------------------------------------------------

TEST(ArenaTensorTest, ViewVersusCopySemantics) {
  TensorArena arena;
  Tensor view(Shape({4, 4}), &arena);
  EXPECT_TRUE(view.arena_backed());
  EXPECT_TRUE(arena.Owns(view.data()));

  // A copy is always a deep heap copy — never a second view of the arena.
  Tensor copy = view;
  EXPECT_FALSE(copy.arena_backed());
  EXPECT_FALSE(arena.Owns(copy.data()));
  copy.Set(0, 9.0f);
  EXPECT_EQ(view.At(0), 0.0f);

  // A move transfers the view without touching arena memory.
  const float* data = view.data();
  Tensor moved = std::move(view);
  EXPECT_TRUE(moved.arena_backed());
  EXPECT_EQ(moved.data(), data);
}

TEST(ArenaTensorTest, ResetInvalidatesOutstandingViews) {
  TensorArena arena;
  Tensor view(Shape({8}), &arena);
  const uint64_t gen_at_alloc = arena.generation();
  arena.Reset();
  // The view's memory has been recycled: the generation proves it, and any
  // further use of `view` would be a use-after-reset bug.
  EXPECT_NE(arena.generation(), gen_at_alloc);
  Tensor recycled = Tensor::Uninitialized(Shape({8}), &arena);
  EXPECT_EQ(recycled.data(), view.data());  // Same slot, new generation.
}

TEST(ArenaTensorTest, DetachCopiesOutOfArena) {
  TensorArena arena;
  Tensor view(Shape({4}), &arena);
  view.Set(2, 5.0f);
  view.Detach();
  EXPECT_FALSE(view.arena_backed());
  EXPECT_FALSE(arena.Owns(view.data()));
  EXPECT_EQ(view.At(2), 5.0f);
}

TEST(ArenaTensorTest, MoveToMigratesHeapTensorIntoArena) {
  TensorArena arena;
  Rng rng(3);
  Tensor t(Shape({16}));
  t.FillRandom(&rng);
  const Tensor original = t;
  t.MoveTo(&arena);
  EXPECT_TRUE(t.arena_backed());
  EXPECT_TRUE(arena.Owns(t.data()));
  EXPECT_TRUE(t.ElementsEqual(original));
}

TEST(ArenaTensorTest, ElementsEqualAcrossArenaAndHeap) {
  TensorArena arena;
  Rng rng(4);
  Tensor heap(Shape({5, 3}));
  heap.FillRandom(&rng);
  Tensor in_arena = CopyTensor(heap, &arena);
  EXPECT_TRUE(in_arena.arena_backed());
  EXPECT_TRUE(heap.ElementsEqual(in_arena));
  EXPECT_TRUE(in_arena.ElementsEqual(heap));
  in_arena.Set(7, -1.0f);
  EXPECT_FALSE(heap.ElementsEqual(in_arena));
}

TEST(ArenaTensorTest, SetShapeInPlaceBoundedByCapacity) {
  TensorArena arena;
  Tensor t(Shape({4, 4}), &arena);
  t.SetShapeInPlace(Shape({2, 4}));  // Shrink: metadata only.
  EXPECT_EQ(t.NumElements(), 8);
  EXPECT_EQ(t.capacity(), 16);
  t.SetShapeInPlace(Shape({4, 4}));  // Grow back within capacity.
  EXPECT_EQ(t.NumElements(), 16);
  EXPECT_THROW(t.SetShapeInPlace(Shape({5, 4})), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Aliased tensors (zero-copy Replace).
// ---------------------------------------------------------------------------

TEST(AliasTensorTest, AliasSharesStorageWithoutCopying) {
  Rng rng(5);
  Tensor source(Shape({8, 8}));
  source.FillRandom(&rng);
  const Tensor alias = Tensor::AliasOf(source);
  EXPECT_TRUE(alias.aliased());
  EXPECT_FALSE(alias.arena_backed());
  EXPECT_EQ(alias.data(), source.data());
  EXPECT_TRUE(alias.ElementsEqual(source));
}

TEST(AliasTensorTest, CopyOfAliasIsDeep) {
  Tensor source(Shape({4}), 2.0f);
  const Tensor alias = Tensor::AliasOf(source);
  Tensor copy = alias;
  EXPECT_FALSE(copy.aliased());
  EXPECT_NE(copy.data(), source.data());
  copy.Set(0, 7.0f);
  EXPECT_EQ(source.At(0), 2.0f);
}

TEST(AliasTensorTest, InPlaceMutationRefusesOnAlias) {
  Tensor source(Shape({4, 4}), 1.0f);
  Tensor alias = Tensor::AliasOf(source);
  // The shared storage is read-only: relabeling or resizing in place must
  // refuse so the source's bytes are never disturbed.
  EXPECT_THROW(alias.SetShapeInPlace(Shape({2, 4})), std::logic_error);
  EXPECT_FALSE(ResizeToShapeInPlace(&alias, Shape({2, 4})));
  // Out-of-place resize still works and yields owned storage.
  const Tensor resized = ResizeToShape(alias, Shape({2, 4}));
  EXPECT_FALSE(resized.aliased());
  EXPECT_EQ(resized.Sum(), 8.0);
}

TEST(AliasTensorTest, DetachSeversTheAlias) {
  Tensor source(Shape({4}), 3.0f);
  Tensor alias = Tensor::AliasOf(source);
  alias.Detach();
  EXPECT_FALSE(alias.aliased());
  EXPECT_NE(alias.data(), source.data());
  alias.Set(0, -3.0f);
  EXPECT_EQ(source.At(0), 3.0f);
}

TEST(AliasTensorTest, MoveTransfersAlias) {
  Tensor source(Shape({4}), 1.0f);
  Tensor alias = Tensor::AliasOf(source);
  Tensor moved = std::move(alias);
  EXPECT_TRUE(moved.aliased());
  EXPECT_EQ(moved.data(), source.data());
}

TEST(AliasTensorTest, ExecutorReplaceAliasesDeployedWeights) {
  AnalyticCostModel costs;
  Loader loader(&costs);
  ModelInstance container = loader.Instantiate(TinyVgg(11), /*weight_seed=*/1);
  Model dest_structure = TinyVgg(11);
  dest_structure.set_name("tiny_vgg11_b");
  const ModelInstance dest = loader.Instantiate(dest_structure, /*weight_seed=*/2);
  const TransformPlan plan =
      PlanTransform(container.model, dest.model, costs, PlannerKind::kGroup);
  ExecutePlan(&container, dest.model, plan);
  // Replace is a pointer swap: every replaced weight aliases the deployed
  // model's storage instead of holding a copy.
  size_t aliased = 0;
  for (const OpId id : container.model.OpIds()) {
    const Operation& got = container.model.op(id);
    const Operation& want = dest.model.op(id);
    for (size_t i = 0; i < got.weights.size(); ++i) {
      if (got.weights[i].aliased()) {
        ++aliased;
        ASSERT_LT(i, want.weights.size());
        EXPECT_EQ(got.weights[i].data(), want.weights[i].data());
      }
    }
  }
  EXPECT_GT(aliased, 0u);
}

// ---------------------------------------------------------------------------
// SIMD kernels.
// ---------------------------------------------------------------------------

TEST(SimdTest, StreamingGateRequiresSizeAndAlignment) {
  TensorArena arena;
  float* aligned = arena.Allocate(simd::kStreamingMinElements);
#if defined(__SSE2__)
  EXPECT_TRUE(simd::UsesStreamingStores(aligned, simd::kStreamingMinElements));
#endif
  // Small counts never stream; misaligned destinations never stream.
  EXPECT_FALSE(simd::UsesStreamingStores(aligned, 16));
  EXPECT_FALSE(simd::UsesStreamingStores(aligned + 1, simd::kStreamingMinElements));
}

TEST(SimdTest, CopyFloatsMatchesMemcpyAcrossGate) {
  Rng rng(6);
  // Cover: small (memcpy path), large aligned (streaming), large with
  // misaligned source (streaming loadu), and an odd tail past the vector loop.
  const int64_t sizes[] = {1, 63, simd::kStreamingMinElements + 7};
  for (const int64_t count : sizes) {
    TensorArena arena;
    Tensor src = Tensor::Uninitialized(Shape({count + 1}), &arena);
    src.FillRandom(&rng);
    Tensor dst = Tensor::Uninitialized(Shape({count}), &arena);
    simd::CopyFloats(dst.data(), src.data(), count);
    EXPECT_TRUE(std::equal(dst.data(), dst.data() + count, src.data()))
        << "aligned copy, count=" << count;
    simd::CopyFloats(dst.data(), src.data() + 1, count);  // Misaligned source.
    EXPECT_TRUE(std::equal(dst.data(), dst.data() + count, src.data() + 1))
        << "unaligned copy, count=" << count;
  }
}

TEST(SimdTest, ZeroFloatsClearsAcrossGate) {
  const int64_t sizes[] = {1, 63, simd::kStreamingMinElements + 7};
  for (const int64_t count : sizes) {
    TensorArena arena;
    Tensor dst = Tensor::Uninitialized(Shape({count}), &arena);
    Rng rng(7);
    dst.FillRandom(&rng);
    simd::ZeroFloats(dst.data(), count);
    EXPECT_EQ(dst.Sum(), 0.0) << "count=" << count;
  }
}

// ---------------------------------------------------------------------------
// Vectorized resize vs. the scalar oracle (runs under ASan in CI).
// ---------------------------------------------------------------------------

struct ResizeCase {
  Shape from;
  Shape to;
};

// Prints a case as "3x5x7_to_4x2x9". gtest_discover_tests puts the printed
// parameter into each ctest name, so the default (the struct's bytes, which
// hold heap pointers) would rename the test on every relink.
void PrintTo(const ResizeCase& c, std::ostream* os) {
  const auto dims = [os](const Shape& shape) {
    if (shape.Rank() == 0) {
      *os << "scalar";
    }
    for (int axis = 0; axis < shape.Rank(); ++axis) {
      *os << (axis > 0 ? "x" : "") << shape.Dim(axis);
    }
  };
  dims(c.from);
  *os << "_to_";
  dims(c.to);
}

class ResizeOracleTest : public testing::TestWithParam<ResizeCase> {};

TEST_P(ResizeOracleTest, CoalescedKernelMatchesScalarReference) {
  const ResizeCase& c = GetParam();
  Rng rng(8);
  Tensor src(c.from);
  src.FillRandom(&rng);
  const Tensor oracle = ResizeToShapeScalar(src, c.to);

  const Tensor heap_out = ResizeToShape(src, c.to);
  EXPECT_TRUE(heap_out.ElementsEqual(oracle)) << c.from.ToString() << " -> " << c.to.ToString();

  TensorArena arena;
  const Tensor arena_out = ResizeToShape(src, c.to, &arena);
  EXPECT_TRUE(arena_out.arena_backed());
  EXPECT_TRUE(arena_out.ElementsEqual(oracle))
      << c.from.ToString() << " -> " << c.to.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    OddShapesAndEdges, ResizeOracleTest,
    testing::Values(
        // Odd prime-ish dims, pad and crop on every axis combination.
        ResizeCase{Shape({3, 5, 7}), Shape({4, 2, 9})},
        ResizeCase{Shape({7, 3}), Shape({3, 7})},
        ResizeCase{Shape({1, 1, 1}), Shape({3, 3, 3})},
        ResizeCase{Shape({5}), Shape({13})},
        ResizeCase{Shape({13}), Shape({5})},
        // Innermost-dim change only (split axis = last).
        ResizeCase{Shape({3, 3, 4, 9}), Shape({3, 3, 4, 5})},
        // Leading-dim change only (maximal coalesced run).
        ResizeCase{Shape({9, 4, 3}), Shape({2, 4, 3})},
        ResizeCase{Shape({2, 4, 3}), Shape({9, 4, 3})},
        // Equal shapes (pure copy through the resize path).
        ResizeCase{Shape({3, 3, 2}), Shape({3, 3, 2})},
        // Scalars and empty overlap.
        ResizeCase{Shape{}, Shape{}},
        ResizeCase{Shape({0, 4}), Shape({2, 4})},
        // Large enough to cross the streaming-store gate inside a run.
        ResizeCase{Shape({300, 1200}), Shape({520, 1200})},
        ResizeCase{Shape({520, 1200}), Shape({300, 1200})}));

TEST(ResizeOracleTest, InPlaceLeadingDimMatchesOracle) {
  Rng rng(9);
  TensorArena arena;
  Tensor src(Shape({6, 4, 3}), &arena);
  src.FillRandom(&rng);
  const Tensor original = src;  // Deep copy for the oracle input.

  // Shrink: metadata-only, storage untouched.
  const float* data = src.data();
  ASSERT_TRUE(ResizeToShapeInPlace(&src, Shape({2, 4, 3})));
  EXPECT_EQ(src.data(), data);
  EXPECT_TRUE(src.ElementsEqual(ResizeToShapeScalar(original, Shape({2, 4, 3}))));

  // Grow back within capacity: prefix preserved, tail zeroed.
  ASSERT_TRUE(ResizeToShapeInPlace(&src, Shape({6, 4, 3})));
  EXPECT_EQ(src.data(), data);
  const Tensor regrown_oracle =
      ResizeToShapeScalar(ResizeToShapeScalar(original, Shape({2, 4, 3})), Shape({6, 4, 3}));
  EXPECT_TRUE(src.ElementsEqual(regrown_oracle));

  // Beyond capacity or non-leading axis: refuses, caller copies instead.
  EXPECT_FALSE(ResizeToShapeInPlace(&src, Shape({7, 4, 3})));
  EXPECT_FALSE(ResizeToShapeInPlace(&src, Shape({6, 5, 3})));
}

// ---------------------------------------------------------------------------
// ModelInstance arena lifecycle: waste accounting and repacking.
// ---------------------------------------------------------------------------

TEST(ModelInstanceArenaTest, InstantiateMaterializesWeightsInArena) {
  AnalyticCostModel costs;
  Loader loader(&costs);
  ModelInstance instance =
      loader.Instantiate(TinyVgg(11), /*weight_seed=*/1, nullptr, nullptr,
                         std::make_shared<TensorArena>());
  ASSERT_NE(instance.arena, nullptr);
  for (const OpId id : instance.model.OpIds()) {
    for (const Tensor& weight : instance.model.op(id).weights) {
      EXPECT_TRUE(weight.arena_backed());
      EXPECT_TRUE(instance.arena->Owns(weight.data()));
    }
  }
  EXPECT_LE(instance.ArenaWasteFactor(), 1.5);
}

TEST(ModelInstanceArenaTest, RepackReclaimsDeadArenaBytes) {
  AnalyticCostModel costs;
  Loader loader(&costs);
  ModelInstance instance =
      loader.Instantiate(TinyBert(2, 64), /*weight_seed=*/1, nullptr, nullptr,
                         std::make_shared<TensorArena>());
  // Simulate transform churn: re-resize the largest weight until dead
  // allocations pile the waste factor past the repack trigger.
  OpId target = OpId{0};
  int64_t biggest = -1;
  for (const OpId id : instance.model.OpIds()) {
    for (const Tensor& weight : instance.model.op(id).weights) {
      if (weight.NumElements() > biggest) {
        biggest = weight.NumElements();
        target = id;
      }
    }
  }
  ASSERT_GT(biggest, 0);
  Operation& op = instance.model.mutable_op(target);
  const Shape original = op.weights[0].shape();
  for (int i = 0; i < 512 && instance.ArenaWasteFactor() <= 4.0; ++i) {
    op.weights[0] = ResizeToShape(op.weights[0], original, instance.arena.get());
  }
  EXPECT_GT(instance.ArenaWasteFactor(), 4.0);
  EXPECT_TRUE(instance.MaybeRepack());
  EXPECT_LE(instance.ArenaWasteFactor(), 1.5);
  instance.model.Validate();
}

}  // namespace
}  // namespace optimus
