//===- Instrumentation.h - AOP-style data collection ------------*- C++ -*-===//
///
/// \file
/// The aspect-oriented instrumentation layer (paper Section 4.5): models
/// emit events — declared events plus an automatic event whenever a value
/// is sent on a port — and user collectors fill these join points without
/// modifying any component. Collectors match on (instance-path pattern,
/// event name); a trailing '*' in the pattern matches any suffix.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_INSTRUMENTATION_H
#define LIBERTY_SIM_INSTRUMENTATION_H

#include "interp/Value.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace liberty {
namespace sim {

/// One emitted event occurrence.
struct Event {
  const std::string *InstancePath = nullptr;
  const std::string *Name = nullptr; ///< "port:<name>" for automatic events.
  uint64_t Cycle = 0;
  const interp::Value *Payload = nullptr;
};

using CollectorFn = std::function<void(const Event &)>;

class Instrumentation {
public:
  /// Attaches \p Fn to every event whose instance path matches
  /// \p PathPattern and whose name matches \p EventPattern. Patterns are
  /// exact strings, optionally ending in '*' (prefix match); "*" matches
  /// everything.
  void attach(std::string PathPattern, std::string EventPattern,
              CollectorFn Fn);

  /// Convenience collector counting matching occurrences; returns a
  /// reference to the counter, valid for the lifetime of this object.
  uint64_t &attachCounter(std::string PathPattern, std::string EventPattern);

  /// Called by the simulator at each join point.
  void emit(const Event &E);

  bool empty() const { return Collectors.empty(); }
  uint64_t totalEmitted() const { return NumEmitted; }

  static bool matches(const std::string &Pattern, const std::string &Text);

private:
  struct Entry {
    std::string PathPattern;
    std::string EventPattern;
    CollectorFn Fn;
  };
  std::vector<Entry> Collectors;
  std::vector<std::unique_ptr<uint64_t>> Counters;
  uint64_t NumEmitted = 0;
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_INSTRUMENTATION_H
