#include "src/container/container.h"

#include <algorithm>
#include <stdexcept>

namespace optimus {

const char* StartTypeName(StartType type) {
  switch (type) {
    case StartType::kWarm:
      return "Warm";
    case StartType::kTransform:
      return "Transform";
    case StartType::kCold:
      return "Cold";
  }
  return "Unknown";
}

Container* ContainerPool::Find(ContainerId id) {
  for (Container& container : containers_) {
    if (container.id == id) {
      return &container;
    }
  }
  return nullptr;
}

size_t ContainerPool::ReapExpired(double now) {
  size_t prewarmed_waste = 0;
  containers_.erase(std::remove_if(containers_.begin(), containers_.end(),
                                   [&](const Container& container) {
                                     const bool expired =
                                         container.state == ContainerState::kIdle &&
                                         now - container.last_active >= keep_alive_;
                                     prewarmed_waste += expired && container.prewarmed ? 1 : 0;
                                     return expired;
                                   }),
                    containers_.end());
  return prewarmed_waste;
}

Container* ContainerPool::FindWarm(const std::string& function) {
  for (Container& container : containers_) {
    if (container.state == ContainerState::kIdle && container.function == function) {
      return &container;
    }
  }
  return nullptr;
}

std::vector<Container*> ContainerPool::TransformCandidates(const std::string& function,
                                                           double now, int64_t min_memory) {
  std::vector<Container*> candidates;
  for (Container& container : containers_) {
    if (container.function == function || !container.IdleSince(now, idle_threshold_)) {
      continue;
    }
    if (min_memory > 0 && container.memory_bytes > 0 && container.memory_bytes < min_memory) {
      continue;
    }
    candidates.push_back(&container);
  }
  return candidates;
}

int64_t ContainerPool::UsedMemory() const {
  int64_t used = 0;
  for (const Container& container : containers_) {
    used += container.memory_bytes;
  }
  return used;
}

bool ContainerPool::CanLaunch(int64_t memory_bytes) const {
  if (!HasFreeSlot()) {
    return false;
  }
  return memory_limit_ <= 0 || UsedMemory() + memory_bytes <= memory_limit_;
}

Container* ContainerPool::LruIdle() {
  Container* victim = nullptr;
  for (Container& container : containers_) {
    if (container.state != ContainerState::kIdle) {
      continue;
    }
    if (victim == nullptr || container.last_active < victim->last_active) {
      victim = &container;
    }
  }
  return victim;
}

Container* ContainerPool::MinPriorityIdle() {
  Container* victim = nullptr;
  for (Container& container : containers_) {
    if (container.state != ContainerState::kIdle) {
      continue;
    }
    if (victim == nullptr || container.priority < victim->priority) {
      victim = &container;
    }
  }
  return victim;
}

Container* ContainerPool::Launch(const std::string& function, double now, double ready_at,
                                 int64_t memory_bytes) {
  if (!CanLaunch(memory_bytes)) {
    throw std::runtime_error("ContainerPool::Launch: node at capacity");
  }
  Container container;
  container.id = next_id_++;
  container.function = function;
  container.state = ContainerState::kStarting;
  container.last_active = now;
  container.busy_until = ready_at;
  container.memory_bytes = memory_bytes;
  containers_.push_back(container);
  return &containers_.back();
}

void ContainerPool::Remove(ContainerId id) {
  containers_.erase(std::remove_if(containers_.begin(), containers_.end(),
                                   [&](const Container& container) { return container.id == id; }),
                    containers_.end());
}

}  // namespace optimus
