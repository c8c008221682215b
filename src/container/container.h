// Container lifecycle and the idle-container identification mechanism
// (paper §4.2): each container carries a timer that resets on every request;
// once the timer exceeds a threshold (default 60 s) the container is
// considered idle and its model may be transformed for another function.
// Containers unused past the keep-alive window (default 10 min, matching the
// experimental setup in §8.1) are reclaimed.

#ifndef OPTIMUS_SRC_CONTAINER_CONTAINER_H_
#define OPTIMUS_SRC_CONTAINER_CONTAINER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace optimus {

// How a request's container was obtained (Fig. 14's categories).
enum class StartType : uint8_t {
  kWarm = 0,       // Idle container already serving the function.
  kTransform = 1,  // Container transformation (repurpose / tensor share).
  kCold = 2,       // New container started from scratch.
};

const char* StartTypeName(StartType type);

enum class ContainerState : uint8_t {
  kStarting = 0,  // Sandbox/runtime init or model load/transform in progress.
  kBusy,          // Serving a request.
  kIdle,          // Warm, holding a loaded model, not serving.
};

using ContainerId = int32_t;

struct Container {
  ContainerId id = -1;
  // Name of the function (model) the container currently serves.
  std::string function;
  ContainerState state = ContainerState::kStarting;
  // Virtual time the container last started or finished serving a request
  // (the §4.2 timer's reset point).
  double last_active = 0.0;
  // Virtual time at which the in-progress startup/request completes.
  double busy_until = 0.0;
  // Memory allocated to the container (0 when memory is not modeled). With
  // homogeneous allocation (the paper's default) every container gets the
  // same size; fine-grained allocation (§6) sizes it to the resident model.
  int64_t memory_bytes = 0;
  // Greedy-dual eviction priority (FaasCache-style keep-alive, §2.2's
  // complementary first-class work): clock value + reload cost at last use.
  // Only meaningful under EvictionPolicy::kGreedyDual.
  double priority = 0.0;
  // Set when a warming order prepared the container speculatively and no
  // request has hit it yet (DESIGN.md §17) — the simulator's copy of
  // RealContainer::prewarmed. The first warm hit clears it; removal or
  // repurposing while it is still set is speculative waste.
  bool prewarmed = false;
  double prewarmed_at = 0.0;  // Virtual time the warming order ran.

  bool IdleSince(double now, double threshold) const {
    return state == ContainerState::kIdle && now - last_active >= threshold;
  }
};

// The set of containers on one worker node, with bounded capacity.
class ContainerPool {
 public:
  // Note on pointer stability: Launch never reallocates (capacity is
  // reserved up front), but Remove and ReapExpired compact the vector and
  // invalidate outstanding Container pointers.
  //
  // `memory_limit` bounds the sum of container memory_bytes on the node;
  // 0 disables memory accounting.
  ContainerPool(int capacity, double idle_threshold, double keep_alive,
                int64_t memory_limit = 0)
      : capacity_(capacity),
        idle_threshold_(idle_threshold),
        keep_alive_(keep_alive),
        memory_limit_(memory_limit) {
    containers_.reserve(static_cast<size_t>(capacity));
  }

  int capacity() const { return capacity_; }
  double idle_threshold() const { return idle_threshold_; }
  size_t Size() const { return containers_.size(); }

  std::vector<Container>& containers() { return containers_; }
  const std::vector<Container>& containers() const { return containers_; }

  Container* Find(ContainerId id);

  // Removes containers idle past the keep-alive window. Returns how many of
  // them were pre-warmed and never hit — the caller charges those to
  // speculative waste.
  size_t ReapExpired(double now);

  // A warm idle container already serving `function`, or nullptr.
  Container* FindWarm(const std::string& function);

  // Idle containers whose §4.2 timer has exceeded the threshold and which
  // serve a *different* function — transformation donor candidates. With
  // min_memory > 0, only containers large enough to host the new model
  // qualify (§6: "container resources may be insufficient").
  std::vector<Container*> TransformCandidates(const std::string& function, double now,
                                              int64_t min_memory = 0);

  // The least-recently-active idle container (eviction victim), or nullptr.
  Container* LruIdle();

  // The idle container with the lowest greedy-dual priority, or nullptr.
  Container* MinPriorityIdle();

  bool HasFreeSlot() const { return static_cast<int>(containers_.size()) < capacity_; }

  // Memory currently allocated across containers.
  int64_t UsedMemory() const;
  int64_t memory_limit() const { return memory_limit_; }

  // Whether a container of `memory_bytes` fits (slot + memory).
  bool CanLaunch(int64_t memory_bytes) const;

  // Creates a new container in kStarting state. Requires CanLaunch().
  Container* Launch(const std::string& function, double now, double ready_at,
                    int64_t memory_bytes = 0);

  // Removes the container with the given id.
  void Remove(ContainerId id);

 private:
  int capacity_;
  double idle_threshold_;
  double keep_alive_;
  int64_t memory_limit_;
  std::vector<Container> containers_;
  ContainerId next_id_ = 0;
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_CONTAINER_CONTAINER_H_
