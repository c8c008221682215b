// PlacementManager — the runtime coordinator of the placement subsystem.
//
// Owns the PlacementStore, the configured PlacementPolicy, and the demand
// accumulator, and wires the rebalance triggers (DESIGN.md §13, §16):
//   * deploy  — AddFunction() slots one new function incrementally;
//   * demand  — RebalanceDue()/Rebalance() recompute the full placement from
//               demand observed since the last harvest;
//   * manual  — operator-initiated (gateway POST /rebalance, tests);
//   * churn   — SetNodeLive() republishes under the new liveness mask, and
//               Rebalance(..., "node_down"/"node_up") re-clusters over the
//               live nodes.
//
// It is the one placement implementation: the live platform and the
// simulator both drive it (the simulator in virtual time, with no metrics
// registry), and it is the only caller of the placement policy's solver.
//
// Every swap publishes a new immutable table through the atomic store; a
// failed recompute (including the injected `placement.rebalance` fault)
// leaves the previous table serving and is counted in
// optimus_rebalance_failures_total. All update paths serialize on one mutex;
// the read path (Route/Table) is lock-free.

#ifndef OPTIMUS_SRC_PLACEMENT_MANAGER_H_
#define OPTIMUS_SRC_PLACEMENT_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sync.h"
#include "src/placement/placement.h"
#include "src/telemetry/metrics.h"

namespace optimus {

struct PlacementManagerOptions {
  PlacementOptions policy;
  int num_nodes = 1;
  // Virtual seconds between demand-driven rebalances; 0 disables the online
  // re-clustering trigger (deploy/manual rebalances still work).
  double rebalance_interval = 0.0;
  // Demand-history window: slots retained for the correlation term.
  size_t demand_slots = 32;
};

// What a full rebalance *would* change, computed without publishing — the
// payload behind POST /rebalance?dry_run=1 (DESIGN.md §17 uses it to preview
// warming-driven placement pressure).
struct PlacementDiff {
  struct Move {
    std::string function;
    int from = -1;  // -1: not in the serving table (would be newly placed).
    int to = -1;
  };
  uint64_t version = 0;       // Serving table version the diff is against.
  std::vector<Move> moves;    // Sorted by function name (Placement is a map).
  size_t unchanged = 0;       // Functions the recompute would keep in place.
};

class PlacementManager {
 public:
  // `metrics` may be null (e.g. in the simulator); observability is then
  // skipped. `costs` must be non-null for the model-sharing policy.
  PlacementManager(const PlacementManagerOptions& options, const CostModel* costs,
                   telemetry::MetricsRegistry* metrics);

  // Lock-free routing reads.
  std::shared_ptr<const PlacementTable> Table() const { return store_.Snapshot(); }
  int Route(const std::string& function) const { return Table()->NodeOrHash(function); }
  uint64_t Version() const { return store_.Version(); }

  // Deploy trigger: places `model` incrementally and publishes version+1.
  // Already-placed functions keep their node.
  void AddFunction(const Model& model, const std::vector<const Model*>& peers);

  // Node-lifecycle trigger (DESIGN.md §16): flips `node`'s liveness and
  // immediately publishes the current assignment under the new mask —
  // invalidation first, so a dead node's demand re-homes over the live ring
  // within one table swap, long before the full re-clustering runs. Returns
  // false (no publish) when the mask already agrees. The caller typically
  // follows up with a Rebalance(..., "node_down"/"node_up") to re-cluster
  // over the surviving nodes.
  bool SetNodeLive(int node, bool live);

  // Full recompute via the policy's solver. Returns true when a new table was
  // published; on failure the previous table keeps serving and the failure
  // counter advances. `reason` labels optimus_rebalance_total (one of
  // "initial", "deploy", "demand", "manual", "node_down", "node_up").
  bool Rebalance(const std::vector<const Model*>& models,
                 const std::map<std::string, DemandSeries>& history, const std::string& reason);

  // Dry-run recompute: runs the same solver + live-ring remap as Rebalance
  // and diffs the result against the serving table, but never swaps
  // snapshots, bumps counters, or injects the rebalance fault. Throws
  // whatever the solver throws.
  PlacementDiff PreviewRebalance(const std::vector<const Model*>& models,
                                 const std::map<std::string, DemandSeries>& history);

  // Demand plumbing: RecordDemand closes one accumulator slot from cumulative
  // per-function invoke counts; DemandHistory feeds Rebalance.
  void RecordDemand(const std::map<std::string, uint64_t>& cumulative_invokes);
  std::map<std::string, DemandSeries> DemandHistory() const { return demand_.History(); }
  size_t DemandSlots() const { return demand_.Slots(); }

  // Demand trigger: true at most once per rebalance interval (CAS on the next
  // deadline, so concurrent invokers elect exactly one rebalance).
  bool RebalanceDue(double now);

  size_t Rebalances() const;
  size_t RebalanceFailures() const;
  const PlacementManagerOptions& options() const { return options_; }

  // One-line JSON summary for /stats and the gateway's placement endpoint.
  std::string StatsJson() const;

 private:
  // Publishes `assignment` under the current live mask as the next version.
  void PublishLocked(const Placement& assignment) REQUIRES(update_mutex_);
  // The policy's full solve over the live subset, remapped to physical node
  // ids — what Rebalance publishes and PreviewRebalance diffs.
  Placement SolveLiveLocked(const std::vector<const Model*>& models,
                            const std::map<std::string, DemandSeries>& history) const
      REQUIRES(update_mutex_);
  void BumpReasonCounter(const std::string& reason);

  PlacementManagerOptions options_;
  std::unique_ptr<PlacementPolicy> policy_;
  PlacementStore store_;
  DemandAccumulator demand_;
  // Serializes AddFunction/Rebalance swaps. The store swap itself is an
  // atomic release-store; the mutex only orders competing *writers*, which
  // is why Route/Table stay lock-free. Holders call into the solver and the
  // metrics registry, so kPlacementUpdate ranks below kMetricsRegistry.
  Mutex update_mutex_{LockRank::kPlacementUpdate, "placement.update"};
  // Authoritative liveness mask (empty = all live); every published table
  // carries a copy so readers see assignment + mask as one atomic snapshot.
  std::vector<uint8_t> live_mask_ GUARDED_BY(update_mutex_);
  std::atomic<double> next_rebalance_due_;
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> rebalance_failures_{0};
  // Observability (null when no registry was supplied).
  telemetry::Gauge* version_gauge_ = nullptr;
  std::vector<telemetry::Gauge*> node_function_gauges_;
  std::map<std::string, telemetry::Counter*> rebalance_counters_;
  telemetry::Counter* rebalance_failures_counter_ = nullptr;
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_PLACEMENT_MANAGER_H_
