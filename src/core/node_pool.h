// NodePool — the container-mechanism half of the Router/NodePool split
// (DESIGN.md §13). It owns the worker nodes' container state and the per-node
// mutexes; all *policy* (which node to route to, which donor to transform,
// who to evict) stays with the caller (OptimusPlatform).
//
// Locking discipline: every access to a node's containers goes through
// Lock(node), which returns a movable RAII view holding that node's mutex.
// The lock is held only to decide and to hand out a container: a request
// leases one (ContainerLease) and drops the lock for its transform, scratch
// load and inference, then re-locks to return it idle (DESIGN.md §9). Lock
// acquisitions are counted (relaxed atomic) so tests can assert routing
// really is O(1) — a warm hit takes exactly two node locks, one to lease and
// one to return, no matter how many nodes the pool has.
//
// Node lifecycle (DESIGN.md §16): every node carries an explicit state
// machine — Up → Draining → Down, with Down → Reviving → Up on revive — so
// spot revocation is a first-class event instead of an error path. A revoked
// node stops accepting new routes immediately (Accepting() is a lock-free
// atomic read the router consults); in-flight work already holding a lease
// may finish within the grace window; past the window the drain is finalized
// lazily (FinalizeExpiredDrains): the node goes Down, so no new lease is
// granted, the outstanding leases are awaited, and the node's containers
// *and* banked spare arenas are reclaimed, so a dead owner never leaks slabs
// through the arena recycling path (DESIGN.md §14).

#ifndef OPTIMUS_SRC_CORE_NODE_POOL_H_
#define OPTIMUS_SRC_CORE_NODE_POOL_H_

#include <atomic>
#include <functional>
#include <limits>
#include <list>
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
  // kIdle, or leased (DESIGN.md §9): kStarting while its lease holder loads
  // or transforms it (and then serves), kBusy while it serves a warm hit.
  // Every selection — FindWarm, donors, reaping, eviction — skips leased
  // containers.
  ContainerState state = ContainerState::kIdle;
  // The only field written outside the node lock: while the container is
  // leased, its lease holder alone touches it.
  ModelInstance instance;
  // Set by the warming subsystem when this container was prepared
  // speculatively and has not served a request yet (DESIGN.md §17). The
  // first warm hit clears it (forecast hit); removal while still set is
  // counted as speculative waste.
  bool prewarmed = false;
  double prewarmed_at = 0.0;  // Virtual time the speculative prepare finished.

  bool Leased() const { return state != ContainerState::kIdle; }
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
    // A list, so a leased container's address stays valid while other
    // containers are adopted or removed.
    std::list<RealContainer> containers GUARDED_BY(mutex);
    // Arenas recycled from dead containers, awaiting the next cold start on
    // this node (DESIGN.md §14). Bounded by the node's container capacity.
    std::vector<std::shared_ptr<TensorArena>> spare_arenas GUARDED_BY(mutex);
    // Signalled whenever a lease ends (returned or discarded) and when a
    // reclaim completes. Requests waiting for their function's container or
    // for a free slot, reclaims waiting for leases, and revives waiting for a
    // reclaim all wait here.
    CondVar lease_ended;
    // Set while a reclaim waits for the node's outstanding leases.
    bool reclaiming GUARDED_BY(mutex) = false;
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

  class ContainerLease;

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
        : pool_(other.pool_), node_(other.node_), index_(other.index_),
          wait_ns_(other.wait_ns_), owns_(std::exchange(other.owns_, false)) {}
    LockedNode& operator=(LockedNode&& other) noexcept NO_THREAD_SAFETY_ANALYSIS {
      if (this != &other) {
        if (owns_) {
          node_->mutex.Unlock();
        }
        pool_ = other.pool_;
        node_ = other.node_;
        index_ = other.index_;
        wait_ns_ = other.wait_ns_;
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
    std::list<RealContainer>& containers() NO_THREAD_SAFETY_ANALYSIS {
      return node_->containers;
    }
    const std::list<RealContainer>& containers() const NO_THREAD_SAFETY_ANALYSIS {
      return node_->containers;
    }

    // An idle (unleased) container of `function`, or null.
    RealContainer* FindWarm(const std::string& function) NO_THREAD_SAFETY_ANALYSIS;
    // Whether any container, leased or not, is pinned to `function`.
    bool Hosts(const std::string& function) const NO_THREAD_SAFETY_ANALYSIS;
    // Counts leased containers too: a cold start reserves its slot by
    // adopting its leased placeholder.
    bool Full() const NO_THREAD_SAFETY_ANALYSIS {
      return static_cast<int>(node_->containers.size()) >= pool_->capacity_per_node_;
    }
    NodeLifecycle lifecycle() const {
      return node_->lifecycle.load(std::memory_order_acquire);
    }
    // Whether work may still run on this node at virtual time `now`
    // (NodeServable).
    bool Servable(double now) const {
      return NodeServable(lifecycle(), node_->drain_deadline.load(std::memory_order_acquire), now);
    }
    // Any unleased container idle for at least `idle_threshold` (a transform
    // donor candidate) — the predicate behind the capacity-pressure fallback.
    bool HasIdleContainer(double now, double idle_threshold) const NO_THREAD_SAFETY_ANALYSIS;
    // Removes unleased containers idle past `keep_alive`. Returns the number
    // of reaped containers that were pre-warmed and never served a request —
    // the caller charges those to speculative waste.
    size_t ReapExpired(double now, double keep_alive) NO_THREAD_SAFETY_ANALYSIS;
    // Evicts the least-recently-active unleased container; a node whose
    // containers are all leased is left as it is (the caller sees it still
    // Full). True when the evicted container was pre-warmed and never served.
    bool EvictLeastRecentlyActive() NO_THREAD_SAFETY_ANALYSIS;
    RealContainer* Adopt(RealContainer&& container) NO_THREAD_SAFETY_ANALYSIS;

    // Leases `container` (one of this node's unleased containers) in `state`
    // (kStarting or kBusy). The caller then releases the node and works on
    // the container's instance alone.
    ContainerLease Lease(RealContainer* container, ContainerState state)
        NO_THREAD_SAFETY_ANALYSIS;

    // Blocks until a lease on this node ends, with the lock dropped while
    // waiting. Spurious wake-ups happen: the caller re-checks the node from
    // the top. Never called while the thread holds a lease.
    void WaitForReturn() NO_THREAD_SAFETY_ANALYSIS;

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
    friend class ContainerLease;
    // Takes ownership of `node`'s mutex, which the caller (NodePool::Lock)
    // has just acquired.
    LockedNode(NodePool* pool, Node* node, int index, uint64_t* wait_ns) noexcept
        : pool_(pool), node_(node), index_(index), wait_ns_(wait_ns) {}

    // Banks a dying container's arena for reuse (dropped once the node
    // already holds a container capacity's worth of spares).
    void RecycleArena(std::shared_ptr<TensorArena> arena) NO_THREAD_SAFETY_ANALYSIS;

    NodePool* pool_;
    Node* node_;
    int index_;
    uint64_t* wait_ns_;  // Lock()'s wait accumulator; may be null.
    bool owns_ = true;
  };

  // A container checked out of its node (DESIGN.md §9). LockedNode::Lease
  // marks it leased under the node lock; the holder then releases the lock
  // and alone touches the container's `instance`, while every other field
  // stays under the node lock. Relock() re-takes the lock to end the lease:
  // Return() hands the container back idle, Discard() destroys it (a failed
  // transform or load). A lease still held at destruction is returned, so no
  // path can leak one — but the destructor re-locks, so the node's view must
  // be released first (declare the lease before the LockedNode).
  class ContainerLease {
   public:
    ContainerLease() = default;
    ContainerLease(ContainerLease&& other) noexcept
        : pool_(other.pool_), index_(other.index_),
          container_(std::exchange(other.container_, nullptr)), wait_ns_(other.wait_ns_) {}
    ContainerLease& operator=(ContainerLease&& other) noexcept;
    ~ContainerLease();

    explicit operator bool() const { return container_ != nullptr; }
    RealContainer* operator->() const { return container_; }

    // Re-takes the node lock (one counted acquisition, timed into the wait
    // accumulator of the Lock() the lease was taken under).
    LockedNode Relock();
    // End the lease under `node`, the view Relock() returned. Return marks
    // the container idle; the first loaded container returned on a Reviving
    // node makes it Up. Discard removes the container and banks its arena.
    // Both wake the node's waiters.
    void Return(LockedNode& node);
    void Discard(LockedNode& node);

   private:
    friend class LockedNode;
    ContainerLease(NodePool* pool, int index, RealContainer* container, uint64_t* wait_ns)
        : pool_(pool), index_(index), container_(container), wait_ns_(wait_ns) {}

    NodePool* pool_ = nullptr;
    int index_ = -1;
    RealContainer* container_ = nullptr;
    uint64_t* wait_ns_ = nullptr;
  };

  // Locks one node. With a non-null `wait_ns`, the time this thread spends
  // blocked acquiring it, in the view's WaitForReturn, and in re-locking a
  // lease taken under it is added to *wait_ns (the invoke path's node_wait
  // phase).
  LockedNode Lock(int node_index, uint64_t* wait_ns = nullptr);

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
  // of zero (or less) goes straight to Down and reclaims containers and spare
  // arenas once the outstanding leases have returned. Returns false (no-op)
  // when the node is already Draining or Down. Never called by a thread that
  // holds a lease.
  bool RevokeNode(int node_index, double grace_seconds, double now);

  // Finalizes every Draining node whose grace window has closed: it goes
  // Down, and once its outstanding leases have returned its containers and
  // banked spare arenas are reclaimed. Returns the number of containers
  // reclaimed. Cheap when no node is draining (one relaxed atomic read via
  // DrainingNodes()). Never called by a thread that holds a lease.
  size_t FinalizeExpiredDrains(double now);

  // Down → Reviving: the node accepts routes again (still container-less; it
  // promotes itself to Up when its first container is returned loaded).
  // Waits out a reclaim in progress. Returns false (no-op) unless the node is
  // Down.
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
  // hook: a warm invoke contributes exactly two (lease and return),
  // independent of num_nodes.
  uint64_t LockAcquisitions() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  // Marks the node Down, so no new lease is granted, waits for its
  // outstanding leases, then clears its containers and spare arenas. The
  // caller holds the node's mutex, which is dropped while waiting.
  size_t Reclaim(Node* node) NO_THREAD_SAFETY_ANALYSIS;

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
