// Function-name interning (DESIGN.md §18).
//
// At million-function scale the simulator cannot afford a string hash (or a
// std::map walk) per request: arrivals, demand accumulation, and placement
// lookup all key on the function. A FunctionTable interns every function name
// once into a dense FunctionId, so the hot path indexes flat arrays
// (FunctionId -> model / node / scratch cost / served count) and strings only
// appear at the edges — trace parsing, warming-order names, error messages.

#ifndef OPTIMUS_SRC_WORKLOAD_FUNCTION_TABLE_H_
#define OPTIMUS_SRC_WORKLOAD_FUNCTION_TABLE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace optimus {

// Dense interned id. Ids are assigned 0, 1, 2, ... in interning order;
// kInvalidFunction marks "not interned".
using FunctionId = int32_t;
inline constexpr FunctionId kInvalidFunction = -1;

class FunctionTable {
 public:
  FunctionTable() = default;

  // Not copyable: interned ids embed positions in this table.
  FunctionTable(const FunctionTable&) = delete;
  FunctionTable& operator=(const FunctionTable&) = delete;

  // Returns the id for `name`, interning it on first sight.
  FunctionId Intern(const std::string& name);

  // Returns the id for `name`, or kInvalidFunction when never interned.
  FunctionId Find(const std::string& name) const;

  // Name for an interned id. The reference is stable for the table's
  // lifetime (names live in a deque, never reallocated).
  const std::string& Name(FunctionId id) const { return names_[static_cast<size_t>(id)]; }

  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string_view, FunctionId> ids_;
  std::deque<std::string> names_;  // Indexed by FunctionId; node-stable.
};

}  // namespace optimus

#endif  // OPTIMUS_SRC_WORKLOAD_FUNCTION_TABLE_H_
