// The placement subsystem (DESIGN.md §13): table/store semantics, the three
// PlacementPolicy implementations and the §5.1 combined distance they
// cluster, the demand accumulator, O(1) routing in the live platform, the
// background demand rebalancer, concurrent table swaps, the
// placement.rebalance fault point, and the end-to-end §5.1 claim that model
// sharing-aware placement beats hashing — in the live platform and the
// simulator, through the same policy implementations.

#include "src/placement/placement.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/fault.h"
#include "src/core/platform.h"
#include "src/placement/manager.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

// --- PlacementTable / PlacementStore -----------------------------------------

TEST(PlacementTableTest, NodeOfAndHashFallback) {
  Placement assignment = {{"a", 0}, {"b", 1}, {"stray", 7}};
  const PlacementTable table(3, BalancerKind::kHash, 2, assignment);
  EXPECT_EQ(table.version(), 3u);
  EXPECT_EQ(table.num_nodes(), 2);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.NodeOf("a"), 0);
  EXPECT_EQ(table.NodeOf("b"), 1);
  EXPECT_EQ(table.NodeOf("missing"), -1);
  // Out-of-range assignments are clamped into [0, num_nodes).
  const int stray = table.NodeOf("stray");
  EXPECT_GE(stray, 0);
  EXPECT_LT(stray, 2);
  // Unknown functions route by hash instead of failing.
  const int hashed = table.NodeOrHash("missing");
  EXPECT_GE(hashed, 0);
  EXPECT_LT(hashed, 2);
  EXPECT_EQ(table.NodeOrHash("a"), 0);
}

TEST(PlacementTableTest, NodeFunctionCounts) {
  const PlacementTable table(1, BalancerKind::kHash, 3, {{"a", 0}, {"b", 0}, {"c", 2}});
  const std::vector<size_t> counts = table.NodeFunctionCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(PlacementStoreTest, SwapPublishesNewTable) {
  PlacementStore store(nullptr);  // Seeds an empty version-0 table.
  ASSERT_NE(store.Snapshot(), nullptr);
  EXPECT_EQ(store.Version(), 0u);
  store.Swap(std::make_shared<const PlacementTable>(5, BalancerKind::kHash, 2,
                                                    Placement{{"a", 1}}));
  EXPECT_EQ(store.Version(), 5u);
  EXPECT_EQ(store.Snapshot()->NodeOf("a"), 1);
}

TEST(BalancerKindIdTest, RoundTripsIdsAndNames) {
  for (const BalancerKind kind :
       {BalancerKind::kHash, BalancerKind::kLoadBased, BalancerKind::kModelSharing}) {
    BalancerKind parsed = BalancerKind::kHash;
    ASSERT_TRUE(ParseBalancerKind(BalancerKindId(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    ASSERT_TRUE(ParseBalancerKind(BalancerKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  BalancerKind parsed = BalancerKind::kLoadBased;
  EXPECT_FALSE(ParseBalancerKind("quantum", &parsed));
  EXPECT_EQ(parsed, BalancerKind::kLoadBased);  // Untouched on failure.
}

TEST(BalancerKindIdTest, BalancerKindNames) {
  EXPECT_STREQ(BalancerKindName(BalancerKind::kHash), "Hash");
  EXPECT_STREQ(BalancerKindName(BalancerKind::kLoadBased), "LoadBased");
  EXPECT_STREQ(BalancerKindName(BalancerKind::kModelSharing), "ModelSharing");
}

// --- DemandAccumulator --------------------------------------------------------

TEST(DemandAccumulatorTest, SlotsCumulativeDeltas) {
  DemandAccumulator accumulator(8);
  accumulator.RecordCumulative({{"a", 3}});
  accumulator.RecordCumulative({{"a", 10}, {"b", 4}});
  const auto history = accumulator.History();
  ASSERT_EQ(accumulator.Slots(), 2u);
  ASSERT_EQ(history.at("a").size(), 2u);
  EXPECT_DOUBLE_EQ(history.at("a")[0], 3.0);
  EXPECT_DOUBLE_EQ(history.at("a")[1], 7.0);
  // A function appearing late is zero-backfilled so series stay aligned.
  ASSERT_EQ(history.at("b").size(), 2u);
  EXPECT_DOUBLE_EQ(history.at("b")[0], 0.0);
  EXPECT_DOUBLE_EQ(history.at("b")[1], 4.0);
}

TEST(DemandAccumulatorTest, TrimsToMaxSlots) {
  DemandAccumulator accumulator(2);
  accumulator.RecordCumulative({{"a", 1}});
  accumulator.RecordCumulative({{"a", 2}});
  accumulator.RecordCumulative({{"a", 5}});
  EXPECT_EQ(accumulator.Slots(), 2u);
  const auto history = accumulator.History();
  ASSERT_EQ(history.at("a").size(), 2u);
  EXPECT_DOUBLE_EQ(history.at("a")[0], 1.0);
  EXPECT_DOUBLE_EQ(history.at("a")[1], 3.0);
}

TEST(DemandAccumulatorTest, FirstSampleCountsCumulativeTotal) {
  // The first harvest has no baseline, so the whole cumulative total lands in
  // the first slot — correct by design: for a fresh accumulator the total IS
  // the demand observed since the window opened.
  DemandAccumulator accumulator(8);
  accumulator.RecordCumulative({{"a", 5}});
  const auto history = accumulator.History();
  ASSERT_EQ(history.at("a").size(), 1u);
  EXPECT_DOUBLE_EQ(history.at("a")[0], 5.0);
}

TEST(DemandAccumulatorTest, CounterResetClampsToZero) {
  // A cumulative counter can regress (process restart, registry reset). The
  // slot clamps to zero instead of going negative or recounting history, and
  // subsequent deltas resume from the new baseline.
  DemandAccumulator accumulator(8);
  accumulator.RecordCumulative({{"a", 10}});
  accumulator.RecordCumulative({{"a", 3}});  // Reset below the baseline.
  accumulator.RecordCumulative({{"a", 7}});
  const auto history = accumulator.History();
  ASSERT_EQ(history.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(history.at("a")[1], 0.0);
  EXPECT_DOUBLE_EQ(history.at("a")[2], 4.0);
}

TEST(DemandAccumulatorTest, WraparoundKeepsSeriesAligned) {
  // Once the ring is full every close trims the oldest slot from *every*
  // series, including ones for functions that appeared late — lengths must
  // stay equal or the correlation term would misalign slots across functions.
  DemandAccumulator accumulator(3);
  accumulator.RecordCumulative({{"a", 1}});
  accumulator.RecordCumulative({{"a", 2}, {"b", 10}});
  accumulator.RecordCumulative({{"a", 3}, {"b", 20}});
  accumulator.RecordCumulative({{"a", 4}, {"b", 30}});  // First trim.
  accumulator.RecordCumulative({{"a", 5}, {"b", 40}});
  EXPECT_EQ(accumulator.Slots(), 3u);
  const auto history = accumulator.History();
  ASSERT_EQ(history.at("a").size(), 3u);
  ASSERT_EQ(history.at("b").size(), 3u);
  EXPECT_DOUBLE_EQ(history.at("a")[0], 1.0);  // Slots 3..5 survive.
  EXPECT_DOUBLE_EQ(history.at("a")[2], 1.0);
  EXPECT_DOUBLE_EQ(history.at("b")[0], 10.0);
  EXPECT_DOUBLE_EQ(history.at("b")[2], 10.0);
}

TEST(DemandAccumulatorTest, AbsentFunctionKeepsItsBaseline) {
  // Regression: a function missing from one harvest (e.g. its counter was
  // not yet bound) must keep its cumulative baseline. Replacing the baseline
  // map wholesale made the function's entire historical total reappear as a
  // single slot's demand on the next harvest.
  DemandAccumulator accumulator(8);
  accumulator.RecordCumulative({{"a", 5}, {"b", 2}});
  accumulator.RecordCumulative({{"a", 8}});            // b absent this harvest.
  accumulator.RecordCumulative({{"a", 8}, {"b", 3}});  // b reappears.
  const auto history = accumulator.History();
  ASSERT_EQ(history.at("b").size(), 3u);
  EXPECT_DOUBLE_EQ(history.at("b")[1], 0.0);  // No demand observed while absent.
  EXPECT_DOUBLE_EQ(history.at("b")[2], 1.0);  // Delta from baseline 2, not 0.
}

// --- Policies -----------------------------------------------------------------

// The §5.1 balancer's full solves, through MakePlacementPolicy(...)->Compute.
class BalancerTest : public testing::Test {
 protected:
  static std::vector<const Model*> Pointers(const std::vector<Model>& models) {
    std::vector<const Model*> pointers;
    for (const Model& model : models) {
      pointers.push_back(&model);
    }
    return pointers;
  }

  Placement Place(const std::vector<Model>& models, int num_nodes,
                  const std::map<std::string, DemandSeries>& history,
                  const PlacementOptions& options) {
    return MakePlacementPolicy(options, &costs_)->Compute(Pointers(models), history, num_nodes);
  }

  std::vector<Model> SimilarAndDissimilarModels() {
    // Two structural families: VGG-like and BERT-like.
    std::vector<Model> models;
    models.push_back(TinyVgg(11));
    models.push_back(TinyVgg(16));
    models.push_back(TinyVgg(19));
    models.push_back(TinyBert(2, 64));
    models.push_back(TinyBert(4, 128));
    Model extra = TinyBert(2, 128);
    models.push_back(extra);
    return models;
  }

  AnalyticCostModel costs_;
};

TEST_F(BalancerTest, HashPlacementDeterministicAndInRange) {
  const auto models = SimilarAndDissimilarModels();
  PlacementOptions options;
  options.kind = BalancerKind::kHash;
  const Placement a = Place(models, 3, {}, options);
  const Placement b = Place(models, 3, {}, options);
  EXPECT_EQ(a, b);
  for (const auto& [name, node] : a) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, 3);
  }
  EXPECT_EQ(a.size(), models.size());
}

TEST_F(BalancerTest, LoadBasedPlacementBalancesDemand) {
  const auto models = SimilarAndDissimilarModels();
  std::map<std::string, DemandSeries> history;
  // One hot function, the rest cold.
  history[models[0].name()] = {100.0, 100.0};
  for (size_t i = 1; i < models.size(); ++i) {
    history[models[i].name()] = {1.0, 1.0};
  }
  PlacementOptions options;
  options.kind = BalancerKind::kLoadBased;
  const Placement placement = Place(models, 2, history, options);
  // The hot function gets a node; at most one cold one joins it while the
  // other node takes the rest.
  const int hot_node = placement.at(models[0].name());
  int on_hot_node = 0;
  for (const auto& [name, node] : placement) {
    if (node == hot_node) {
      ++on_hot_node;
    }
  }
  EXPECT_LE(on_hot_node, 2);
}

TEST_F(BalancerTest, ModelSharingColocatesStructurallySimilarFunctions) {
  const auto models = SimilarAndDissimilarModels();
  PlacementOptions options;
  options.kind = BalancerKind::kModelSharing;
  options.gamma_distance = 1.0;
  options.gamma_correlation = 0.0;  // Pure structural similarity.
  options.clusters_per_node = 1;    // One cluster per node: pure K-medoids.
  const Placement placement = Place(models, 2, {}, options);
  // All VGG variants together, all BERT variants together, on distinct nodes.
  EXPECT_EQ(placement.at(models[0].name()), placement.at(models[1].name()));
  EXPECT_EQ(placement.at(models[1].name()), placement.at(models[2].name()));
  EXPECT_EQ(placement.at(models[3].name()), placement.at(models[4].name()));
  EXPECT_EQ(placement.at(models[4].name()), placement.at(models[5].name()));
  EXPECT_NE(placement.at(models[0].name()), placement.at(models[3].name()));
}

TEST_F(BalancerTest, CorrelationTermSeparatesSynchronizedFunctions) {
  // Two structurally identical pairs; within each pair demand is perfectly
  // correlated, across pairs anti-correlated. With a correlation-only
  // distance, the balancer splits the synchronized functions apart.
  std::vector<Model> models;
  for (int i = 0; i < 4; ++i) {
    Model model = TinyVgg(11);
    model.set_name("vgg_" + std::to_string(i));
    models.push_back(model);
  }
  std::map<std::string, DemandSeries> history;
  const DemandSeries day = {10.0, 0.0, 10.0, 0.0, 10.0, 0.0};
  const DemandSeries night = {0.0, 10.0, 0.0, 10.0, 0.0, 10.0};
  history["vgg_0"] = day;
  history["vgg_1"] = day;
  history["vgg_2"] = night;
  history["vgg_3"] = night;
  PlacementOptions options;
  options.kind = BalancerKind::kModelSharing;
  options.gamma_distance = 0.0;
  options.gamma_correlation = 1.0;
  options.clusters_per_node = 1;
  const Placement placement = Place(models, 2, history, options);
  // A perfectly synchronized pair is split apart, while a complementary
  // (anti-correlated) pair shares a node.
  EXPECT_NE(placement.at("vgg_0"), placement.at("vgg_1"));
  EXPECT_EQ(placement.at("vgg_0"), placement.at("vgg_2"));
}

TEST_F(BalancerTest, CombinedDistanceMatrixProperties) {
  const auto models = SimilarAndDissimilarModels();
  PlacementOptions options;
  const auto matrix = CombinedDistanceMatrix(Pointers(models), {}, costs_, options);
  ASSERT_EQ(matrix.size(), models.size());
  for (size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_EQ(matrix[i][i], 0.0);
    for (size_t j = 0; j < matrix.size(); ++j) {
      EXPECT_DOUBLE_EQ(matrix[i][j], matrix[j][i]);
      EXPECT_GE(matrix[i][j], 0.0);
      EXPECT_LE(matrix[i][j], options.gamma_distance + options.gamma_correlation + 1e-9);
    }
  }
  // Same-family distance < cross-family distance.
  EXPECT_LT(matrix[0][1], matrix[0][3]);
}

TEST(PlacementPolicyTest, HashPlaceOneMatchesBatchCompute) {
  const PlacementOptions options{BalancerKind::kHash};
  const auto policy = MakePlacementPolicy(options, nullptr);
  const Model model = TinyVgg(11);
  const PlacementTable current(1, BalancerKind::kHash, 4, {});
  const int incremental = policy->PlaceOne(model, {}, current);
  const Placement batch = policy->Compute({&model}, {}, 4);
  EXPECT_EQ(incremental, batch.at(model.name()));
}

TEST(PlacementPolicyTest, ModelSharingRequiresCostModel) {
  EXPECT_THROW(MakePlacementPolicy(PlacementOptions{BalancerKind::kModelSharing}, nullptr),
               std::invalid_argument);
}

TEST(PlacementPolicyTest, ModelSharingPlaceOneFollowsSimilarPeers) {
  AnalyticCostModel costs;
  PlacementOptions options;
  options.kind = BalancerKind::kModelSharing;
  const auto policy = MakePlacementPolicy(options, &costs);
  const Model vgg_a = TinyVgg(11);
  const Model vgg_b = TinyVgg(13);
  const Model bert_a = TinyBert(2, 64);
  const Model bert_b = TinyBert(4, 64);
  // Four peers already placed pair-per-node with slack (cap allows a fifth on
  // either node): a new vgg16 should join the vgg node, not the bert node.
  const PlacementTable current(
      1, BalancerKind::kModelSharing, 2,
      {{vgg_a.name(), 0}, {vgg_b.name(), 0}, {bert_a.name(), 1}, {bert_b.name(), 1}});
  const Model newcomer = TinyVgg(16);
  const int node =
      policy->PlaceOne(newcomer, {&vgg_a, &vgg_b, &bert_a, &bert_b}, current);
  EXPECT_EQ(node, 0);
}

// More models than 8 nodes x 2 clusters, mixing chain, CNN and BERT
// structures so the edit-distance term separates them, with demand series
// that exercise the correlation term.
struct MemoFleet {
  std::vector<Model> models;
  std::map<std::string, DemandSeries> history;

  std::vector<const Model*> Placed() const {  // All but the last model.
    std::vector<const Model*> placed;
    for (size_t i = 0; i + 1 < models.size(); ++i) {
      placed.push_back(&models[i]);
    }
    return placed;
  }
  const Model& Newcomer() const { return models.back(); }
};

MemoFleet MakeMemoFleet() {
  MemoFleet fleet;
  for (const int64_t kernel : {1, 3, 5}) {
    for (const int64_t channels : {8, 16, 32, 64}) {
      fleet.models.push_back(SmallChain(
          "chain_k" + std::to_string(kernel) + "_c" + std::to_string(channels), kernel, channels));
    }
  }
  fleet.models.push_back(TinyVgg(11));
  fleet.models.push_back(TinyVgg(13));
  fleet.models.push_back(TinyMobileNet());
  fleet.models.push_back(TinyBert(2, 64));
  fleet.models.push_back(TinyBert(4, 64));
  fleet.models.push_back(TinyVgg(16));
  for (size_t i = 0; i < fleet.models.size(); ++i) {
    DemandSeries series;
    for (size_t slot = 0; slot < 8; ++slot) {
      series.push_back(static_cast<double>((slot * (i + 1)) % 5));
    }
    fleet.history[fleet.models[i].name()] = series;
  }
  return fleet;
}

// The model-sharing policy memoizes pair distances across calls; a re-solve
// at another node count, and an incremental placement after it, must answer
// exactly what a policy with an empty memo answers.
TEST(PlacementPolicyTest, ModelSharingMemoMatchesFreshPolicy) {
  AnalyticCostModel costs;
  const PlacementOptions options{BalancerKind::kModelSharing};
  const MemoFleet fleet = MakeMemoFleet();
  const std::vector<const Model*> placed = fleet.Placed();
  const auto policy = MakePlacementPolicy(options, &costs);
  for (const int num_nodes : {8, 7, 8}) {
    const Placement memoized = policy->Compute(placed, fleet.history, num_nodes);
    EXPECT_EQ(memoized,
              MakePlacementPolicy(options, &costs)->Compute(placed, fleet.history, num_nodes))
        << num_nodes << " nodes";
  }
  const PlacementTable current(1, BalancerKind::kModelSharing, 8,
                               policy->Compute(placed, fleet.history, 8));
  EXPECT_EQ(policy->PlaceOne(fleet.Newcomer(), placed, current),
            MakePlacementPolicy(options, &costs)->PlaceOne(fleet.Newcomer(), placed, current));
}

TEST(PlacementPolicyTest, LoadBasedPlaceOnePicksEmptiestNode) {
  const auto policy = MakePlacementPolicy(PlacementOptions{BalancerKind::kLoadBased}, nullptr);
  const PlacementTable current(1, BalancerKind::kLoadBased, 3, {{"x", 0}, {"y", 0}, {"z", 2}});
  const Model model = TinyVgg(11);
  EXPECT_EQ(policy->PlaceOne(model, {}, current), 1);
}

// --- PlacementManager ---------------------------------------------------------

TEST(PlacementManagerTest, AddFunctionBumpsVersionIncrementally) {
  AnalyticCostModel costs;
  PlacementManagerOptions options;
  options.num_nodes = 2;
  PlacementManager manager(options, &costs, nullptr);
  EXPECT_EQ(manager.Version(), 0u);
  const Model vgg = TinyVgg(11);
  manager.AddFunction(vgg, {});
  EXPECT_EQ(manager.Version(), 1u);
  const int node = manager.Route(vgg.name());
  EXPECT_GE(node, 0);
  EXPECT_LT(node, 2);
  // Re-adding is a no-op (no version churn).
  manager.AddFunction(vgg, {});
  EXPECT_EQ(manager.Version(), 1u);
}

TEST(PlacementManagerTest, RebalanceDueFiresOncePerInterval) {
  AnalyticCostModel costs;
  PlacementManagerOptions options;
  options.num_nodes = 1;
  options.rebalance_interval = 100.0;
  PlacementManager manager(options, &costs, nullptr);
  EXPECT_FALSE(manager.RebalanceDue(50.0));
  EXPECT_TRUE(manager.RebalanceDue(100.0));
  EXPECT_FALSE(manager.RebalanceDue(150.0));  // Already claimed for this window.
  EXPECT_TRUE(manager.RebalanceDue(250.0));
}

TEST(PlacementManagerTest, StatsJsonCarriesVersionAndPolicy) {
  AnalyticCostModel costs;
  PlacementManagerOptions options;
  options.num_nodes = 2;
  PlacementManager manager(options, &costs, nullptr);
  const Model vgg = TinyVgg(11);
  manager.AddFunction(vgg, {});
  const std::string json = manager.StatsJson();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"policy\":\"model_sharing\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"functions\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"node_functions\":["), std::string::npos) << json;
}

// With a node dead, PreviewRebalance predicts exactly the table the next
// Rebalance publishes, and neither puts a function on the dead node.
TEST(PlacementManagerTest, PreviewPredictsLiveSubsetRebalance) {
  AnalyticCostModel costs;
  PlacementManagerOptions options;
  options.num_nodes = 4;
  PlacementManager manager(options, &costs, nullptr);
  const MemoFleet fleet = MakeMemoFleet();
  const std::vector<const Model*> placed = fleet.Placed();
  ASSERT_TRUE(manager.Rebalance(placed, fleet.history, "initial"));
  constexpr int kDead = 2;
  ASSERT_GT(manager.Table()->NodeFunctionCounts()[kDead], 0u);
  ASSERT_TRUE(manager.SetNodeLive(kDead, false));

  const std::shared_ptr<const PlacementTable> serving = manager.Table();
  const PlacementDiff diff = manager.PreviewRebalance(placed, fleet.history);
  EXPECT_EQ(diff.version, serving->version());
  EXPECT_EQ(diff.moves.size() + diff.unchanged, placed.size());
  Placement predicted(serving->assignment().begin(), serving->assignment().end());
  for (const PlacementDiff::Move& move : diff.moves) {
    EXPECT_EQ(move.from, serving->NodeOf(move.function)) << move.function;
    EXPECT_NE(move.to, kDead) << move.function;
    predicted[move.function] = move.to;
  }

  ASSERT_TRUE(manager.Rebalance(placed, fleet.history, "node_down"));
  const std::shared_ptr<const PlacementTable> published = manager.Table();
  EXPECT_EQ(Placement(published->assignment().begin(), published->assignment().end()),
            predicted);
  EXPECT_EQ(published->NodeFunctionCounts()[kDead], 0u);
}

// --- Background demand rebalancer ---------------------------------------------

// An invoke that closes a rebalance window wakes the background rebalancer
// thread, which harvests one demand slot and publishes a "demand" rebalance;
// an invoke inside the next window wakes nothing. Run under TSan in CI.
TEST(PlacementRebalancerTest, DemandWindowWakesBackgroundRebalance) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 2;
  options.rebalance_interval = 10.0;
  options.placement.kind = BalancerKind::kHash;
  OptimusPlatform platform(&costs, options);
  platform.Deploy("vgg11", TinyVgg(11));
  platform.Deploy("vgg13", TinyVgg(13));
  const telemetry::Counter& demand_rebalances =
      platform.metrics().GetCounter("optimus_rebalance_total", {{"reason", "demand"}});

  const std::vector<float> input(8, 0.5f);
  platform.Invoke("vgg11", input, 0.0);
  platform.Invoke("vgg13", input, 10.0);  // Closes the first window.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((demand_rebalances.Value() < 1 || platform.placement().DemandSlots() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(demand_rebalances.Value(), 1u);
  EXPECT_EQ(platform.placement().DemandSlots(), 1u);

  platform.Invoke("vgg11", input, 15.0);  // Inside the next window (due at 20).
  EXPECT_EQ(demand_rebalances.Value(), 1u);
}

// --- O(1) routing regression --------------------------------------------------

// A warm hit must take exactly two node locks — one to lease its container,
// one to return it — independent of cluster size: the regression hook for
// the old O(num_nodes) scan in Invoke.
TEST(PlacementRoutingTest, WarmHitLockCountIndependentOfNumNodes) {
  const std::vector<float> input(8, 0.5f);
  for (const int num_nodes : {1, 32}) {
    AnalyticCostModel costs;
    PlatformOptions options;
    options.num_nodes = num_nodes;
    options.containers_per_node = 2;
    OptimusPlatform platform(&costs, options);
    platform.Deploy("vgg", TinyVgg(11));
    platform.Invoke("vgg", input, 0.0);  // Cold; container now resident.
    const uint64_t before = platform.NodeLockAcquisitions();
    platform.Invoke("vgg", input, 1.0);
    const uint64_t locks_for_warm_hit = platform.NodeLockAcquisitions() - before;
    EXPECT_EQ(locks_for_warm_hit, 2u) << "num_nodes=" << num_nodes;
  }
}

// --- Concurrent swaps ---------------------------------------------------------

// Invokers race Deploy-driven incremental updates and full rebalances. Every
// reader must see a coherent table: routed nodes stay in range and every
// invocation succeeds. Run under TSan in CI.
TEST(PlacementConcurrencyTest, InvokeDuringDeployAndRebalanceSwaps) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 4;
  options.containers_per_node = 2;
  OptimusPlatform platform(&costs, options);
  platform.Deploy("vgg11", TinyVgg(11));
  platform.Deploy("vgg13", TinyVgg(13));

  const std::vector<float> input(8, 0.5f);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> invokers;
  for (int t = 0; t < 3; ++t) {
    invokers.emplace_back([&, t] {
      const std::string function = t % 2 == 0 ? "vgg11" : "vgg13";
      for (int i = 0; !stop.load(std::memory_order_relaxed) && i < 400; ++i) {
        InvokeResult result;
        const Status status =
            platform.TryInvoke(function, input, static_cast<double>(i), &result);
        if (!status.ok() || result.node < 0 || result.node >= 4) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread deployer([&] {
    platform.Deploy("vgg16", TinyVgg(16));
    platform.Deploy("vgg19", TinyVgg(19));
    platform.Deploy("bert", TinyBert(2, 64));
  });
  std::thread rebalancer([&] {
    for (int i = 0; i < 20; ++i) {
      platform.RebalanceNow("manual");
    }
  });
  deployer.join();
  rebalancer.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : invokers) {
    thread.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(platform.PlacementVersion(), 5u);  // 5 deploys + 20 rebalances.
  EXPECT_TRUE(platform.CheckContainerIntegrity().empty());
}

// One model-sharing policy serves a rebalance's Compute and a deploy's
// PlaceOne from different threads, filling one pair-distance memo from both;
// every answer must match a single-threaded policy's. Run under TSan with the
// lock-rank validator in CI.
TEST(PlacementConcurrencyTest, ModelSharingComputeRacesPlaceOne) {
  AnalyticCostModel costs;
  const PlacementOptions options{BalancerKind::kModelSharing};
  const MemoFleet fleet = MakeMemoFleet();
  const std::vector<const Model*> placed = fleet.Placed();
  const Placement expected =
      MakePlacementPolicy(options, &costs)->Compute(placed, fleet.history, 4);
  const PlacementTable current(1, BalancerKind::kModelSharing, 4, expected);
  const int expected_node =
      MakePlacementPolicy(options, &costs)->PlaceOne(fleet.Newcomer(), placed, current);

  const auto shared = MakePlacementPolicy(options, &costs);
  std::atomic<int> mismatches{0};
  const auto compute = [&] {
    if (shared->Compute(placed, fleet.history, 4) != expected) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  const auto place_one = [&] {
    if (shared->PlaceOne(fleet.Newcomer(), placed, current) != expected_node) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Opposite orders: each thread first plans the pairs the other one does
  // not, then reads the pairs the other one stored.
  std::thread rebalancer([&] {
    for (int i = 0; i < 3; ++i) {
      compute();
      place_one();
    }
  });
  std::thread deployer([&] {
    for (int i = 0; i < 3; ++i) {
      place_one();
      compute();
    }
  });
  rebalancer.join();
  deployer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- placement.rebalance fault point ------------------------------------------

TEST(PlacementFaultTest, FailedRebalanceKeepsPreviousTableServing) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 2;
  OptimusPlatform platform(&costs, options);
  platform.Deploy("vgg11", TinyVgg(11));
  platform.Deploy("vgg13", TinyVgg(13));
  const uint64_t version = platform.PlacementVersion();
  const auto table_before = platform.PlacementSnapshot();

  {
    fault::ScopedFaults faults("placement.rebalance=always");
    EXPECT_FALSE(platform.RebalanceNow("manual"));
    EXPECT_EQ(platform.PlacementVersion(), version);  // Table not swapped.
    EXPECT_EQ(platform.PlacementSnapshot().get(), table_before.get());
    EXPECT_EQ(platform.placement().RebalanceFailures(), 1u);
    EXPECT_EQ(fault::Fires("placement.rebalance"), 1u);
    // The previous table keeps serving.
    const std::vector<float> input(8, 0.5f);
    EXPECT_FALSE(platform.Invoke("vgg11", input, 0.0).output.empty());
  }

  // Disarmed: the recompute succeeds and publishes a fresh table.
  EXPECT_TRUE(platform.RebalanceNow("manual"));
  EXPECT_EQ(platform.PlacementVersion(), version + 1);
  EXPECT_EQ(platform.placement().Rebalances(), 1u);
}

// --- End-to-end: model sharing beats hash, live and simulated -----------------

// Two structurally similar pairs (two VGG variants, two BERT variants) rotate
// on a 2-node cluster with one container per node. Model-sharing placement
// co-locates each pair, so every rotation finds a cheap donor (transform);
// hash placement — with names chosen so the pairs split across nodes and each
// pair's round-mates collide — forces eviction cold starts. The suffix search
// below makes the hash layout deterministic rather than name-lucky.
struct PairedWorkload {
  std::vector<std::string> names;  // {a1, a2, b1, b2}.
  std::vector<Model> models;
};

PairedWorkload MakePairedWorkload() {
  const auto node_of = [](const std::string& name) {
    return static_cast<int>(std::hash<std::string>{}(name) % 2);
  };
  for (int suffix = 0; suffix < 512; ++suffix) {
    PairedWorkload workload;
    workload.names = {"vision_a_" + std::to_string(suffix),
                      "vision_b_" + std::to_string(suffix),
                      "text_a_" + std::to_string(suffix),
                      "text_b_" + std::to_string(suffix)};
    // Hash must split both pairs AND co-locate the two functions invoked in
    // the same round (a1 with b1) so their node's single container churns.
    if (node_of(workload.names[0]) == node_of(workload.names[1]) ||
        node_of(workload.names[2]) == node_of(workload.names[3]) ||
        node_of(workload.names[0]) != node_of(workload.names[2])) {
      continue;
    }
    workload.models = {TinyVgg(11), TinyVgg(13), TinyBert(2, 64), TinyBert(4, 64)};
    for (size_t i = 0; i < workload.models.size(); ++i) {
      workload.models[i].set_name(workload.names[i]);
    }
    return workload;
  }
  ADD_FAILURE() << "no hash-splitting suffix found";
  return {};
}

constexpr int kRotationRounds = 8;
constexpr double kRoundGap = 100.0;  // > idle_threshold (60s), < keep_alive.

size_t LiveTransformPlusWarm(BalancerKind kind, const PairedWorkload& workload) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.num_nodes = 2;
  options.containers_per_node = 1;
  options.route_fallback_breadth = 0;  // Pin requests to their primary node.
  options.placement.kind = kind;
  options.placement.clusters_per_node = 1;  // 2 clusters for the 2 pairs.
  OptimusPlatform platform(&costs, options);
  for (size_t i = 0; i < workload.names.size(); ++i) {
    platform.Deploy(workload.names[i], workload.models[i]);
  }
  if (kind == BalancerKind::kModelSharing) {
    // Full §5.1 K-medoids recompute (deploy-time placement is incremental
    // and order-sensitive); verify it co-locates the structural pairs.
    EXPECT_TRUE(platform.RebalanceNow("manual"));
    const auto table = platform.PlacementSnapshot();
    EXPECT_EQ(table->NodeOf(workload.names[0]), table->NodeOf(workload.names[1]));
    EXPECT_EQ(table->NodeOf(workload.names[2]), table->NodeOf(workload.names[3]));
  }
  const std::vector<float> input(8, 0.5f);
  for (int round = 0; round < kRotationRounds; ++round) {
    const double now = kRoundGap * round;
    const size_t member = static_cast<size_t>(round % 2);
    platform.Invoke(workload.names[member], input, now);       // Vision pair.
    platform.Invoke(workload.names[2 + member], input, now);   // Text pair.
  }
  return platform.Transforms() + platform.WarmStarts();
}

TEST(PlacementEndToEndTest, ModelSharingBeatsHashOnLivePlatform) {
  const PairedWorkload workload = MakePairedWorkload();
  ASSERT_EQ(workload.names.size(), 4u);
  const size_t sharing = LiveTransformPlusWarm(BalancerKind::kModelSharing, workload);
  const size_t hash = LiveTransformPlusWarm(BalancerKind::kHash, workload);
  EXPECT_GT(sharing, hash);
}

TEST(PlacementEndToEndTest, ModelSharingBeatsHashInSimulator) {
  const PairedWorkload workload = MakePairedWorkload();
  ASSERT_EQ(workload.names.size(), 4u);
  Trace trace;
  for (int round = 0; round < kRotationRounds; ++round) {
    const double now = kRoundGap * round;
    const size_t member = static_cast<size_t>(round % 2);
    trace.push_back({now, workload.names[member]});
    trace.push_back({now, workload.names[2 + member]});
  }
  SimConfig config;
  config.system = SystemType::kOptimus;
  config.num_nodes = 2;
  config.containers_per_node = 1;
  config.placement.clusters_per_node = 1;
  AnalyticCostModel costs;

  config.placement.kind = BalancerKind::kModelSharing;
  const SimResult sharing = RunSimulation(workload.models, trace, config, costs);
  config.placement.kind = BalancerKind::kHash;
  const SimResult hash = RunSimulation(workload.models, trace, config, costs);

  EXPECT_GT(sharing.CountOf(StartType::kTransform) + sharing.CountOf(StartType::kWarm),
            hash.CountOf(StartType::kTransform) + hash.CountOf(StartType::kWarm));
}

}  // namespace
}  // namespace optimus
