//===- Instrumentation.cpp - AOP-style data collection ------------------------===//

#include "sim/Instrumentation.h"

using namespace liberty;
using namespace liberty::sim;

bool Instrumentation::matches(const std::string &Pattern,
                              const std::string &Text) {
  if (Pattern == "*")
    return true;
  if (!Pattern.empty() && Pattern.back() == '*')
    return Text.compare(0, Pattern.size() - 1, Pattern, 0,
                        Pattern.size() - 1) == 0;
  return Pattern == Text;
}

void Instrumentation::attach(std::string PathPattern, std::string EventPattern,
                             CollectorFn Fn) {
  Collectors.push_back(
      Entry{std::move(PathPattern), std::move(EventPattern), std::move(Fn)});
}

uint64_t &Instrumentation::attachCounter(std::string PathPattern,
                                         std::string EventPattern) {
  Counters.push_back(std::make_unique<uint64_t>(0));
  uint64_t *Counter = Counters.back().get();
  attach(std::move(PathPattern), std::move(EventPattern),
         [Counter](const Event &) { ++*Counter; });
  return *Counter;
}

void Instrumentation::emit(const Event &E) {
  ++NumEmitted;
  for (const Entry &C : Collectors) {
    if (!matches(C.PathPattern, *E.InstancePath))
      continue;
    if (!matches(C.EventPattern, *E.Name))
      continue;
    C.Fn(E);
  }
}
