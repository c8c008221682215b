#include "src/core/node_pool.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/telemetry/trace.h"

namespace optimus {

const char* NodeLifecycleName(NodeLifecycle state) {
  switch (state) {
    case NodeLifecycle::kUp:
      return "up";
    case NodeLifecycle::kDraining:
      return "draining";
    case NodeLifecycle::kDown:
      return "down";
    case NodeLifecycle::kReviving:
      return "reviving";
  }
  return "unknown";
}

NodePool::NodePool(int num_nodes, int containers_per_node)
    : capacity_per_node_(containers_per_node) {
  if (num_nodes < 1 || containers_per_node < 1) {
    throw std::invalid_argument("NodePool: need at least one node and one container");
  }
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>());
  }
}

NodePool::LockedNode NodePool::Lock(int node_index, uint64_t* wait_ns) NO_THREAD_SAFETY_ANALYSIS {
  Node* node = nodes_.at(static_cast<size_t>(node_index)).get();
  if (wait_ns == nullptr) {
    node->mutex.Lock();  // Ownership transfers to the returned view.
  } else {
    const uint64_t start_ns = telemetry::MonotonicNanos();
    node->mutex.Lock();
    *wait_ns += telemetry::MonotonicNanos() - start_ns;
  }
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return LockedNode(this, node, node_index, wait_ns);
}

RealContainer* NodePool::LockedNode::FindWarm(const std::string& function) {
  for (RealContainer& container : node_->containers) {
    if (!container.Leased() && container.function == function) {
      return &container;
    }
  }
  return nullptr;
}

bool NodePool::LockedNode::Hosts(const std::string& function) const {
  for (const RealContainer& container : node_->containers) {
    if (container.function == function) {
      return true;
    }
  }
  return false;
}

bool NodePool::LockedNode::HasIdleContainer(double now, double idle_threshold) const {
  for (const RealContainer& container : node_->containers) {
    if (!container.Leased() && now - container.last_active >= idle_threshold) {
      return true;
    }
  }
  return false;
}

size_t NodePool::LockedNode::ReapExpired(double now, double keep_alive) {
  auto& containers = node_->containers;
  size_t prewarmed_waste = 0;
  for (auto it = containers.begin(); it != containers.end();) {
    if (!it->Leased() && now - it->last_active >= keep_alive) {
      if (it->prewarmed) {
        ++prewarmed_waste;  // A speculation that expired before any request.
      }
      RecycleArena(std::move(it->instance.arena));
      it = containers.erase(it);
    } else {
      ++it;
    }
  }
  return prewarmed_waste;
}

bool NodePool::LockedNode::EvictLeastRecentlyActive() {
  auto& containers = node_->containers;
  auto victim = containers.end();
  for (auto it = containers.begin(); it != containers.end(); ++it) {
    if (!it->Leased() && (victim == containers.end() || it->last_active < victim->last_active)) {
      victim = it;
    }
  }
  if (victim == containers.end()) {
    return false;  // Every container is leased.
  }
  const bool prewarmed_waste = victim->prewarmed;
  RecycleArena(std::move(victim->instance.arena));
  containers.erase(victim);
  return prewarmed_waste;
}

NodePool::ContainerLease NodePool::LockedNode::Lease(RealContainer* container,
                                                     ContainerState state) {
  container->state = state;
  return ContainerLease(pool_, index_, container, wait_ns_);
}

void NodePool::LockedNode::WaitForReturn() {
  const uint64_t start_ns = telemetry::MonotonicNanos();
  node_->lease_ended.Wait(node_->mutex);
  if (wait_ns_ != nullptr) {
    *wait_ns_ += telemetry::MonotonicNanos() - start_ns;
  }
}

std::shared_ptr<TensorArena> NodePool::LockedNode::AcquireArena() {
  auto& spares = node_->spare_arenas;
  if (!spares.empty()) {
    std::shared_ptr<TensorArena> arena = std::move(spares.back());
    spares.pop_back();
    arena->Reset();
    return arena;
  }
  return std::make_shared<TensorArena>();
}

void NodePool::LockedNode::RecycleArena(std::shared_ptr<TensorArena> arena) {
  // A dead owner banks nothing: once the node is Down (or finalizing), its
  // spare pool is being reclaimed, so the arena is simply dropped rather than
  // leaked into a pool nobody will ever drain (DESIGN.md §16).
  if (arena == nullptr ||
      static_cast<int>(node_->spare_arenas.size()) >= pool_->capacity_per_node_ ||
      node_->lifecycle.load(std::memory_order_acquire) == NodeLifecycle::kDown) {
    return;
  }
  node_->spare_arenas.push_back(std::move(arena));
}

RealContainer* NodePool::LockedNode::Adopt(RealContainer&& container) {
  node_->containers.push_back(std::move(container));
  return &node_->containers.back();
}

NodePool::ContainerLease& NodePool::ContainerLease::operator=(ContainerLease&& other) noexcept {
  if (this != &other) {
    if (container_ != nullptr) {
      LockedNode node = Relock();
      Return(node);
    }
    pool_ = other.pool_;
    index_ = other.index_;
    container_ = std::exchange(other.container_, nullptr);
    wait_ns_ = other.wait_ns_;
  }
  return *this;
}

NodePool::ContainerLease::~ContainerLease() {
  if (container_ != nullptr) {
    LockedNode node = Relock();
    Return(node);
  }
}

NodePool::LockedNode NodePool::ContainerLease::Relock() { return pool_->Lock(index_, wait_ns_); }

void NodePool::ContainerLease::Return(LockedNode& node) {
  container_->state = ContainerState::kIdle;
  if (container_->instance.Loaded()) {
    // First loaded container on a Reviving node: the node is warm again.
    NodeLifecycle expected = NodeLifecycle::kReviving;
    node.node_->lifecycle.compare_exchange_strong(expected, NodeLifecycle::kUp,
                                                  std::memory_order_acq_rel);
  }
  container_ = nullptr;
  node.node_->lease_ended.NotifyAll();
}

void NodePool::ContainerLease::Discard(LockedNode& node) {
  auto& containers = node.node_->containers;
  for (auto it = containers.begin(); it != containers.end(); ++it) {
    if (&*it == container_) {
      node.RecycleArena(std::move(it->instance.arena));
      containers.erase(it);
      break;
    }
  }
  container_ = nullptr;
  node.node_->lease_ended.NotifyAll();
}

int NodePool::AcceptingNodes() const {
  int count = 0;
  for (int i = 0; i < num_nodes(); ++i) {
    if (Accepting(i)) {
      ++count;
    }
  }
  return count;
}

bool NodePool::RevokeNode(int node_index, double grace_seconds, double now) {
  Node* node = nodes_.at(static_cast<size_t>(node_index)).get();
  MutexLock lock(node->mutex);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const NodeLifecycle state = node->lifecycle.load(std::memory_order_acquire);
  if (state == NodeLifecycle::kDraining || state == NodeLifecycle::kDown) {
    return false;  // Already revoked.
  }
  revocations_.fetch_add(1, std::memory_order_relaxed);
  if (grace_seconds <= 0.0) {
    Reclaim(node);
    return true;
  }
  node->drain_deadline.store(now + grace_seconds, std::memory_order_release);
  node->lifecycle.store(NodeLifecycle::kDraining, std::memory_order_release);
  draining_nodes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t NodePool::FinalizeExpiredDrains(double now) {
  if (DrainingNodes() == 0) {
    return 0;  // Fast path: nothing draining, one relaxed load.
  }
  size_t reclaimed = 0;
  for (const std::unique_ptr<Node>& owned : nodes_) {
    Node* node = owned.get();
    if (node->lifecycle.load(std::memory_order_acquire) != NodeLifecycle::kDraining ||
        now < node->drain_deadline.load(std::memory_order_acquire)) {
      continue;
    }
    MutexLock lock(node->mutex);
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    // Re-check under the lock: a racing finalize may have beaten us here.
    if (node->lifecycle.load(std::memory_order_acquire) != NodeLifecycle::kDraining ||
        now < node->drain_deadline.load(std::memory_order_acquire)) {
      continue;
    }
    draining_nodes_.fetch_sub(1, std::memory_order_relaxed);
    reclaimed += Reclaim(node);
  }
  return reclaimed;
}

bool NodePool::ReviveNode(int node_index) {
  Node* node = nodes_.at(static_cast<size_t>(node_index)).get();
  MutexLock lock(node->mutex);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  while (node->reclaiming) {
    node->lease_ended.Wait(node->mutex);
  }
  if (node->lifecycle.load(std::memory_order_acquire) != NodeLifecycle::kDown) {
    return false;
  }
  node->drain_deadline.store(std::numeric_limits<double>::infinity(),
                             std::memory_order_release);
  node->lifecycle.store(NodeLifecycle::kReviving, std::memory_order_release);
  revives_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<NodeLifecycle> NodePool::LifecycleSnapshot() const {
  std::vector<NodeLifecycle> snapshot;
  snapshot.reserve(nodes_.size());
  for (const std::unique_ptr<Node>& node : nodes_) {
    snapshot.push_back(node->lifecycle.load(std::memory_order_acquire));
  }
  return snapshot;
}

size_t NodePool::Reclaim(Node* node) {
  node->lifecycle.store(NodeLifecycle::kDown, std::memory_order_release);
  node->drain_deadline.store(std::numeric_limits<double>::infinity(),
                             std::memory_order_release);
  // In-flight requests finish on their leases; a Down node grants no new
  // ones, so this wait ends.
  node->reclaiming = true;
  while (std::any_of(node->containers.begin(), node->containers.end(),
                     [](const RealContainer& container) { return container.Leased(); })) {
    node->lease_ended.Wait(node->mutex);
  }
  node->reclaiming = false;
  const size_t reclaimed = node->containers.size();
  node->containers.clear();
  node->spare_arenas.clear();
  reclaimed_containers_.fetch_add(reclaimed, std::memory_order_relaxed);
  node->lease_ended.NotifyAll();  // Wakes a ReviveNode waiting out the reclaim.
  return reclaimed;
}

size_t NodePool::TotalContainers() const {
  size_t count = 0;
  for (const std::unique_ptr<Node>& node : nodes_) {
    MutexLock lock(node->mutex);
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    count += node->containers.size();
  }
  return count;
}

void NodePool::ForEachContainer(
    const std::function<void(int, const RealContainer&)>& visit) const {
  for (size_t n = 0; n < nodes_.size(); ++n) {
    MutexLock lock(nodes_[n]->mutex);
    lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    for (const RealContainer& container : nodes_[n]->containers) {
      visit(static_cast<int>(n), container);
    }
  }
}

}  // namespace optimus
