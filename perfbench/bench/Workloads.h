//===- Workloads.h - The three benchmark workloads --------------*- C++ -*-===//
///
/// \file
/// Each workload generates its inputs from Settings::Seed, sets up (and
/// calls markSetupDone() right before its first timed operation), runs
/// closed-loop for Settings::Seconds, then checks every output against an
/// oracle outside the timed window. See perfbench/NOTES.md.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// Models A-F compiled cold in-process, then run on the compiled engine;
/// checked against the interp engine.
RunResult runPaperModels(const Settings &S);

/// 10k-instance one-module-per-file overload projects compiled cold
/// in-process without a simulator; checked against the generator's answer.
RunResult runOverloadFarm(const Settings &S);

/// A separate lssd process under two closed-loop clients (hot repeats,
/// edits, incremental recompiles); checked against in-process cold
/// compiles.
RunResult runDaemonEditLoop(const Settings &S);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
