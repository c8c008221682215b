// Cluster placement subsystem (paper §5.1) — the policy/mechanism split for
// function→node routing shared by the live platform, the simulator, and the
// gateway.
//
// Mechanism: a `PlacementTable` is an immutable, versioned snapshot of the
// function→node mapping. Tables are published through a `PlacementStore`
// holding a `std::atomic<std::shared_ptr<const PlacementTable>>`: writers
// build a fully-constructed table and store it with release ordering, readers
// load with acquire ordering, so every reader observes either the previous or
// the next table in its entirety — never a torn mapping (the memory-order
// argument is spelled out in DESIGN.md §13).
//
// Policy: a `PlacementPolicy` decides *where* functions go. Three
// implementations mirror the paper's comparison set:
//   * hash           — stateless hashing (existing platforms' default);
//   * load_based     — spread expected demand evenly;
//   * model_sharing  — the §5.1 balancer: co-locate functions whose models
//                      are structurally similar (small edit distance D) and
//                      whose demand is complementary (low or negative
//                      correlation K), by K-medoids (kmedoids.h) over the
//                      combined distance gamma_d·D̂ + gamma_k·K̂.
// Each policy answers both the batch question (`Compute`: place everything,
// used by rebalances and the simulator) and the incremental one (`PlaceOne`:
// slot a newly deployed function into an existing table without moving
// anything else).

#ifndef OPTIMUS_SRC_PLACEMENT_PLACEMENT_H_
#define OPTIMUS_SRC_PLACEMENT_PLACEMENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/sync.h"
#include "src/graph/model.h"
#include "src/runtime/cost_model.h"
#include "src/workload/trace.h"

namespace optimus {

// function name -> node index in [0, num_nodes).
using Placement = std::map<std::string, int>;

enum class BalancerKind : uint8_t {
  kHash = 0,        // Stateless hashing (existing systems' default).
  kLoadBased,       // Spread expected demand evenly (resource-usage based).
  kModelSharing,    // The §5.1 similarity + complementarity K-medoids scheme.
};

// Human-facing names for tables and logs ("Hash" / "LoadBased" /
// "ModelSharing").
const char* BalancerKindName(BalancerKind kind);

// Stable machine-readable ids for flags, /stats, and metric labels
// ("hash" / "load_based" / "model_sharing").
const char* BalancerKindId(BalancerKind kind);

// Parses either the id or the human-facing name; returns false (and leaves
// *kind untouched) for unknown strings.
bool ParseBalancerKind(const std::string& name, BalancerKind* kind);

// Knobs for a placement policy.
struct PlacementOptions {
  BalancerKind kind = BalancerKind::kModelSharing;
  // Combined-distance weights (the paper's gamma_i for D and gamma_j for K).
  double gamma_distance = 0.6;
  double gamma_correlation = 0.4;
  // K-medoids granularity: the model-sharing policy forms
  // clusters_per_node * num_nodes clusters, then bin-packs whole clusters
  // onto nodes by expected demand. >1 keeps node load even when cluster
  // sizes are skewed.
  int clusters_per_node = 2;
};

// An immutable snapshot of the function→node mapping. Instances are built
// once, then only read; safe to share across threads without locks.
class PlacementTable {
 public:
  PlacementTable() = default;
  PlacementTable(uint64_t version, BalancerKind kind, int num_nodes, const Placement& assignment);
  // Like the above, but with an explicit liveness mask (DESIGN.md §16): dead
  // nodes keep their assignment entries — so a revive restores them without a
  // rebalance — but NodeOrHash deterministically re-homes their demand over
  // the live subset. An empty mask means every node is live.
  PlacementTable(uint64_t version, BalancerKind kind, int num_nodes, const Placement& assignment,
                 std::vector<uint8_t> live_mask);

  // Node hosting `function`, or -1 when the function is not in the table.
  // Ignores liveness — this is the raw assignment.
  int NodeOf(const std::string& function) const;
  // Like NodeOf, but unknown functions fall back to hashing — routing never
  // fails just because a table predates a deploy — and functions assigned to
  // a dead node re-home by hashing over the live nodes (invalidation routing
  // between a revocation and the next full rebalance).
  int NodeOrHash(const std::string& function) const;

  // Whether `node` is live under this table's mask (empty mask = all live).
  bool Live(int node) const;
  // Number of live nodes (== num_nodes when the mask is empty).
  int live_nodes() const { return live_ids_.empty() ? num_nodes_ : static_cast<int>(live_ids_.size()); }
  const std::vector<uint8_t>& live_mask() const { return live_mask_; }

  uint64_t version() const { return version_; }
  BalancerKind kind() const { return kind_; }
  int num_nodes() const { return num_nodes_; }
  size_t size() const { return assignment_.size(); }
  const std::unordered_map<std::string, int>& assignment() const { return assignment_; }

  // Functions assigned to each node (length num_nodes).
  std::vector<size_t> NodeFunctionCounts() const;

 private:
  uint64_t version_ = 0;
  BalancerKind kind_ = BalancerKind::kModelSharing;
  int num_nodes_ = 1;
  std::unordered_map<std::string, int> assignment_;
  // Empty when all nodes are live; otherwise live_mask_[node] != 0 marks a
  // live node and live_ids_ lists them in ascending order (the re-homing
  // hash ring).
  std::vector<uint8_t> live_mask_;
  std::vector<int> live_ids_;
};

// Under ThreadSanitizer the lock-free PlacementStore below swaps in a
// reader-writer-locked implementation: libstdc++'s atomic<shared_ptr> guards
// its raw pointer with a lock *bit* and releases the reader side with a
// relaxed fetch_sub, a protocol TSan cannot model — every concurrent
// Swap/Snapshot pair reports a false race inside _Sp_atomic. The substitute
// has identical semantics (torn-free whole-table publication), so the
// sanitizer still verifies all surrounding code.
#if defined(__SANITIZE_THREAD__)
#define OPTIMUS_PLACEMENT_STORE_LOCKED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OPTIMUS_PLACEMENT_STORE_LOCKED 1
#endif
#endif

// The atomically-swappable publication point for placement tables. Swap() is
// a release store of a fully-built table; Snapshot() is an acquire load, so
// a reader's view is always internally consistent (DESIGN.md §13).
class PlacementStore {
 public:
  explicit PlacementStore(std::shared_ptr<const PlacementTable> initial);

#ifdef OPTIMUS_PLACEMENT_STORE_LOCKED
  std::shared_ptr<const PlacementTable> Snapshot() const {
    ReaderLock lock(mutex_);
    return table_;
  }
  void Swap(std::shared_ptr<const PlacementTable> next) {
    WriterLock lock(mutex_);
    table_ = std::move(next);
  }
#else
  std::shared_ptr<const PlacementTable> Snapshot() const {
    return table_.load(std::memory_order_acquire);
  }
  void Swap(std::shared_ptr<const PlacementTable> next) {
    table_.store(std::move(next), std::memory_order_release);
  }
#endif
  uint64_t Version() const { return Snapshot()->version(); }

 private:
#ifdef OPTIMUS_PLACEMENT_STORE_LOCKED
  // Unranked: held for a pointer copy only, never across another acquire.
  mutable SharedMutex mutex_;
  std::shared_ptr<const PlacementTable> table_ GUARDED_BY(mutex_);
#else
  std::atomic<std::shared_ptr<const PlacementTable>> table_;
#endif
};

// Where functions go. Every answer is a function of the arguments alone, and
// one policy instance can serve concurrent callers: the model-sharing policy
// memoizes pair distances by model name behind its own lock, which relies on
// a name's model never changing (Deploy refuses re-registration).
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual BalancerKind kind() const = 0;

  // Places every model onto `num_nodes` nodes from scratch (full rebalance /
  // simulator initialization). `history` feeds the demand-correlation and
  // load terms; it may be empty. Throws std::invalid_argument when
  // `num_nodes` < 1.
  virtual Placement Compute(const std::vector<const Model*>& models,
                            const std::map<std::string, DemandSeries>& history,
                            int num_nodes) const = 0;

  // Slots one newly deployed model into `current` without moving existing
  // assignments. `peers` are the already-registered models (the candidates
  // the new function could share transformations with).
  virtual int PlaceOne(const Model& model, const std::vector<const Model*>& peers,
                       const PlacementTable& current) const = 0;
};

// Builds the policy for `options.kind`. `costs` supplies the edit-distance
// term and must outlive the policy (it may be null for kHash/kLoadBased).
std::unique_ptr<PlacementPolicy> MakePlacementPolicy(const PlacementOptions& options,
                                                     const CostModel* costs);

// The pairwise combined distance the model-sharing policy clusters — the
// test seam for K-medoids' input. Each term is normalized to [0, 1] before
// weighting: D is the symmetric edit distance min(D(a,b), D(b,a)), each
// direction the group planner's transformation cost, over the largest pair;
// K maps the demand correlation in `history` from [-1, 1] (a pair missing a
// series counts as uncorrelated).
std::vector<std::vector<double>> CombinedDistanceMatrix(
    const std::vector<const Model*>& models, const std::map<std::string, DemandSeries>& history,
    const CostModel& costs, const PlacementOptions& options);

// Turns cumulative per-function invoke counts (harvested from the telemetry
// registry) into the slotted DemandSeries the §5.1 correlation term consumes.
// Each RecordCumulative() call closes one slot holding the per-function delta
// since the previous call; series stay aligned (equal length, zero-backfilled
// for late-appearing functions) and bounded to the most recent `max_slots`.
class DemandAccumulator {
 public:
  explicit DemandAccumulator(size_t max_slots = 32);

  void RecordCumulative(const std::map<std::string, uint64_t>& totals);
  std::map<std::string, DemandSeries> History() const;
  size_t Slots() const;

 private:
  // Rank kDemand is near the top of the hierarchy: harvesting holds no other
  // lock, and RecordDemand/History are called with at most the rebalance
  // protocol's locks already dropped.
  mutable Mutex mutex_{LockRank::kDemand, "placement.demand"};
  size_t max_slots_;
  size_t slots_ GUARDED_BY(mutex_) = 0;
  std::map<std::string, uint64_t> last_ GUARDED_BY(mutex_);
  std::map<std::string, DemandSeries> series_ GUARDED_BY(mutex_);
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_PLACEMENT_PLACEMENT_H_
