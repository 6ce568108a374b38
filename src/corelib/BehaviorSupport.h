//===- BehaviorSupport.h - Helpers shared by corelib behaviors --*- C++ -*-===//
///
/// \file
/// Internal to src/corelib: the parameter and stall helpers both behavior
/// files use, defined once in CoreBehaviors.cpp, and the hook through
/// which CoreBehaviors.cpp registers the CPU behaviors.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_CORELIB_BEHAVIORSUPPORT_H
#define LIBERTY_CORELIB_BEHAVIORSUPPORT_H

#include "bsl/BehaviorRegistry.h"

#include <cstdint>
#include <string>

namespace liberty {
namespace corelib {
namespace detail {

/// Integer / boolean / string parameter \p Name, or \p Default when absent
/// or of another kind.
int64_t paramInt(bsl::BehaviorContext &Ctx, const char *Name,
                 int64_t Default);
bool paramBool(bsl::BehaviorContext &Ctx, const char *Name, bool Default);
std::string paramString(bsl::BehaviorContext &Ctx, const char *Name,
                        const char *Default);

/// True if the (optional, bound) stall port reads true this cycle.
bool stallAsserted(bsl::BehaviorContext &Ctx, int Port);

/// Registers the behaviors of CpuBehaviors.cpp.
void registerCpuBehaviors(bsl::BehaviorRegistry &R);

} // namespace detail
} // namespace corelib
} // namespace liberty

#endif // LIBERTY_CORELIB_BEHAVIORSUPPORT_H
