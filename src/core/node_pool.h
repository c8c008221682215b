// NodePool — the container-mechanism half of the Router/NodePool split
// (DESIGN.md §13). It owns the worker nodes' container state and the per-node
// mutexes; all *policy* (which node to route to, which donor to transform,
// who to evict) stays with the caller (OptimusPlatform).
//
// Locking discipline: every access to a node's containers goes through
// Lock(node), which returns a movable RAII view holding that node's mutex.
// Lock acquisitions are counted (relaxed atomic) so tests can assert routing
// really is O(1) — a warm hit must take exactly one node lock no matter how
// many nodes the pool has.
//
// Node lifecycle (DESIGN.md §16): every node carries an explicit state
// machine — Up → Draining → Down, with Down → Reviving → Up on revive — so
// spot revocation is a first-class event instead of an error path. A revoked
// node stops accepting new routes immediately (Accepting() is a lock-free
// atomic read the router consults); in-flight work already holding the node
// may finish within the grace window; past the window the drain is finalized
// lazily (FinalizeExpiredDrains) and the node's containers *and* banked spare
// arenas are reclaimed, so a dead owner never leaks slabs through the PR 6
// recycling path.

#ifndef OPTIMUS_SRC_CORE_NODE_POOL_H_
#define OPTIMUS_SRC_CORE_NODE_POOL_H_

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sync.h"
#include "src/container/container.h"
#include "src/runtime/loader.h"

namespace optimus {

// The per-node lifecycle state machine. Legal transitions:
//   kUp       → kDraining   RevokeNode(grace > 0): no new routes, grace window
//   kUp       → kDown       RevokeNode(grace == 0): immediate reclaim
//   kDraining → kDown       grace expired (FinalizeExpiredDrains)
//   kDown     → kReviving   ReviveNode(): accepts routes again, still empty
//   kReviving → kUp         first container adopted (the node is warm again)
enum class NodeLifecycle : uint8_t { kUp = 0, kDraining, kDown, kReviving };

// Stable lower-case names ("up" / "draining" / "down" / "reviving") for
// /healthz, logs, and metric labels.
const char* NodeLifecycleName(NodeLifecycle state);

// Whether work may still run on a node in `state` at virtual time `now`: Up
// and Reviving nodes always, a Draining node only before `drain_deadline`,
// a Down node never (DESIGN.md §16 grace-window semantics). The live node
// pool and the simulator both ask this.
inline bool NodeServable(NodeLifecycle state, double drain_deadline, double now) {
  switch (state) {
    case NodeLifecycle::kUp:
    case NodeLifecycle::kReviving:
      return true;
    case NodeLifecycle::kDraining:
      return now < drain_deadline;
    case NodeLifecycle::kDown:
      return false;
  }
  return false;
}

// A live container: a real ModelInstance pinned to a function.
struct RealContainer {
  ContainerId id = -1;
  std::string function;
  double last_active = 0.0;
  ModelInstance instance;
  // Set by the warming subsystem when this container was prepared
  // speculatively and has not served a request yet (DESIGN.md §17). The
  // first warm hit clears it (forecast hit); removal while still set is
  // counted as speculative waste.
  bool prewarmed = false;
  double prewarmed_at = 0.0;  // Virtual time the speculative prepare finished.
};

class NodePool {
 private:
  // Node state is only touched under the node's mutex. Nodes live behind
  // unique_ptr so the vector can be sized despite the mutex member. Every
  // node mutex shares rank kNode: the invoke path holds at most one at a
  // time (neighbor probing releases the primary first), and the lock-rank
  // validator's acquired-after graph enforces that protocol in debug builds.
  struct Node {
    Mutex mutex{LockRank::kNode, "node_pool.node"};
    std::vector<RealContainer> containers GUARDED_BY(mutex);
    // Arenas recycled from dead containers, awaiting the next cold start on
    // this node (DESIGN.md §14). Bounded by the node's container capacity.
    std::vector<std::shared_ptr<TensorArena>> spare_arenas GUARDED_BY(mutex);
    // Lifecycle state (DESIGN.md §16). Reads are lock-free (the router checks
    // Accepting() on every invoke); transitions happen under `mutex` so they
    // serialize with container reclaim.
    std::atomic<NodeLifecycle> lifecycle{NodeLifecycle::kUp};
    // Virtual time at which a Draining node's grace window closes. Only
    // meaningful while lifecycle == kDraining.
    std::atomic<double> drain_deadline{std::numeric_limits<double>::infinity()};
  };

 public:
  NodePool(int num_nodes, int containers_per_node);

  // RAII view over one locked node. Callers hold at most one at a time (the
  // platform's neighbor probing releases the primary before locking a
  // neighbor), so lock ordering is trivially deadlock-free.
  //
  // LockedNode is a *movable* lock view, which Clang's static analysis
  // cannot track across moves and returns; its accessors are therefore
  // NO_THREAD_SAFETY_ANALYSIS, with safety resting on two enforced
  // invariants: construction only happens inside NodePool::Lock() with the
  // node mutex held, and the debug lock-rank validator verifies every
  // acquisition/release at runtime (an unowned access after Release() trips
  // the unheld-release check on destruction paths).
  class LockedNode {
   public:
    LockedNode(LockedNode&& other) noexcept
        : node_(other.node_), index_(other.index_), capacity_(other.capacity_),
          owns_(std::exchange(other.owns_, false)) {}
    LockedNode& operator=(LockedNode&& other) noexcept NO_THREAD_SAFETY_ANALYSIS {
      if (this != &other) {
        if (owns_) {
          node_->mutex.Unlock();
        }
        node_ = other.node_;
        index_ = other.index_;
        capacity_ = other.capacity_;
        owns_ = std::exchange(other.owns_, false);
      }
      return *this;
    }
    ~LockedNode() NO_THREAD_SAFETY_ANALYSIS {
      if (owns_) {
        node_->mutex.Unlock();
      }
    }

    int index() const { return index_; }
    std::vector<RealContainer>& containers() NO_THREAD_SAFETY_ANALYSIS {
      return node_->containers;
    }
    const std::vector<RealContainer>& containers() const NO_THREAD_SAFETY_ANALYSIS {
      return node_->containers;
    }

    RealContainer* FindWarm(const std::string& function) NO_THREAD_SAFETY_ANALYSIS;
    bool Full() const NO_THREAD_SAFETY_ANALYSIS {
      return static_cast<int>(node_->containers.size()) >= capacity_;
    }
    NodeLifecycle lifecycle() const {
      return node_->lifecycle.load(std::memory_order_acquire);
    }
    // Whether work may still run on this node at virtual time `now`
    // (NodeServable).
    bool Servable(double now) const {
      return NodeServable(lifecycle(), node_->drain_deadline.load(std::memory_order_acquire), now);
    }
    // Any container idle for at least `idle_threshold` (a transform donor
    // candidate) — the predicate behind the capacity-pressure fallback.
    bool HasIdleContainer(double now, double idle_threshold) const NO_THREAD_SAFETY_ANALYSIS;
    // Returns the number of reaped containers that were pre-warmed and never
    // served a request — the caller charges those to speculative waste.
    size_t ReapExpired(double now, double keep_alive) NO_THREAD_SAFETY_ANALYSIS;
    void RemoveById(ContainerId id) NO_THREAD_SAFETY_ANALYSIS;
    // True when the evicted container was pre-warmed and never served.
    bool EvictLeastRecentlyActive() NO_THREAD_SAFETY_ANALYSIS;
    RealContainer* Adopt(RealContainer&& container) NO_THREAD_SAFETY_ANALYSIS;

    // Hands out a tensor arena for a container about to cold-start on this
    // node: a recycled (Reset) spare when one exists, a fresh one otherwise.
    // Every container-removal path above banks the dead container's arena as
    // a spare, so steady-state churn stops allocating slabs altogether.
    std::shared_ptr<TensorArena> AcquireArena() NO_THREAD_SAFETY_ANALYSIS;

    // Spares currently banked on this node (observability / tests).
    size_t SpareArenas() const NO_THREAD_SAFETY_ANALYSIS { return node_->spare_arenas.size(); }

    // Explicitly releases the node (the destructor also does); the view must
    // not be used afterwards.
    void Release() NO_THREAD_SAFETY_ANALYSIS {
      if (owns_) {
        owns_ = false;
        node_->mutex.Unlock();
      }
    }

   private:
    friend class NodePool;
    // Takes ownership of `node`'s mutex, which the caller (NodePool::Lock)
    // has just acquired.
    LockedNode(Node* node, int index, int capacity) noexcept
        : node_(node), index_(index), capacity_(capacity) {}

    // Banks a dying container's arena for reuse (dropped once the node
    // already holds capacity_ spares).
    void RecycleArena(std::shared_ptr<TensorArena> arena) NO_THREAD_SAFETY_ANALYSIS;

    Node* node_;
    int index_;
    int capacity_;
    bool owns_ = true;
  };

  LockedNode Lock(int node_index);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int capacity_per_node() const { return capacity_per_node_; }
  ContainerId AllocateId() { return next_container_id_.fetch_add(1, std::memory_order_relaxed); }

  // --- Node lifecycle (DESIGN.md §16). --------------------------------------

  NodeLifecycle Lifecycle(int node_index) const {
    return nodes_.at(static_cast<size_t>(node_index))->lifecycle.load(std::memory_order_acquire);
  }

  // Whether the node accepts *new* routes (Up or Reviving). Lock-free; the
  // router consults this on every invoke.
  bool Accepting(int node_index) const {
    const NodeLifecycle state = Lifecycle(node_index);
    return state == NodeLifecycle::kUp || state == NodeLifecycle::kReviving;
  }

  // Nodes currently accepting new routes.
  int AcceptingNodes() const;

  // Revokes the node (spot revocation / operator drain). Up/Reviving →
  // Draining with a grace window of `grace_seconds` virtual seconds; a grace
  // of zero (or less) goes straight to Down, reclaiming containers and spare
  // arenas immediately. Returns false (no-op) when the node is already
  // Draining or Down.
  bool RevokeNode(int node_index, double grace_seconds, double now);

  // Finalizes every Draining node whose grace window has closed: its
  // containers and banked spare arenas are reclaimed and it transitions to
  // Down. Returns the number of containers reclaimed. Cheap when no node is
  // draining (one relaxed atomic read via DrainingNodes()).
  size_t FinalizeExpiredDrains(double now);

  // Down → Reviving: the node accepts routes again (still container-less; it
  // promotes itself to Up when the first container is adopted). Returns false
  // (no-op) unless the node is Down.
  bool ReviveNode(int node_index);

  // Lifecycle observability.
  int DrainingNodes() const { return draining_nodes_.load(std::memory_order_relaxed); }
  std::vector<NodeLifecycle> LifecycleSnapshot() const;
  uint64_t Revocations() const { return revocations_.load(std::memory_order_relaxed); }
  uint64_t Revives() const { return revives_.load(std::memory_order_relaxed); }
  // Containers reclaimed by drains finalizing (kill accounting for chaos
  // counter reconciliation).
  uint64_t ReclaimedContainers() const {
    return reclaimed_containers_.load(std::memory_order_relaxed);
  }

  // Total live containers across all nodes (locks each node in turn).
  size_t TotalContainers() const;

  // Visits every container under its node's lock (integrity checks).
  void ForEachContainer(const std::function<void(int, const RealContainer&)>& visit) const;

  // Node-lock acquisitions since construction — the O(1)-routing regression
  // hook: a warm invoke contributes exactly one, independent of num_nodes.
  uint64_t LockAcquisitions() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  // Clears the node's containers and spare arenas and marks it Down. Caller
  // holds the node's mutex.
  size_t ReclaimLocked(Node* node) NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::unique_ptr<Node>> nodes_;
  int capacity_per_node_;
  std::atomic<ContainerId> next_container_id_{0};
  mutable std::atomic<uint64_t> lock_acquisitions_{0};
  // Lifecycle accounting (relaxed: the counts are monotone observability).
  std::atomic<int> draining_nodes_{0};
  std::atomic<uint64_t> revocations_{0};
  std::atomic<uint64_t> revives_{0};
  std::atomic<uint64_t> reclaimed_containers_{0};
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_CORE_NODE_POOL_H_
