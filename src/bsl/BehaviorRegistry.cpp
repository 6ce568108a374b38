//===- BehaviorRegistry.cpp - Leaf behavior substrate ------------------------===//

#include "bsl/BehaviorRegistry.h"

using namespace liberty;
using namespace liberty::bsl;

BehaviorContext::~BehaviorContext() = default;

LeafBehavior::~LeafBehavior() = default;

void LeafBehavior::init(BehaviorContext &) {}

void LeafBehavior::endOfTimestep(BehaviorContext &) {}

bool LeafBehavior::readsCombinationally(const std::string &) const {
  return true;
}

BehaviorRegistry &BehaviorRegistry::global() {
  static BehaviorRegistry Instance;
  return Instance;
}

void BehaviorRegistry::registerBehavior(const std::string &Id, Factory F) {
  Factories[Id] = std::move(F);
}

bool BehaviorRegistry::contains(const std::string &Id) const {
  return Factories.count(Id) != 0;
}

std::unique_ptr<LeafBehavior> BehaviorRegistry::create(
    const std::string &Id) const {
  auto It = Factories.find(Id);
  if (It == Factories.end())
    return nullptr;
  return It->second();
}

std::vector<std::string> BehaviorRegistry::ids() const {
  std::vector<std::string> Result;
  Result.reserve(Factories.size());
  for (const auto &[Id, F] : Factories)
    Result.push_back(Id);
  return Result;
}
