//===- ThreadPool.h - Minimal work-stealing-free thread pool ----*- C++ -*-===//
///
/// \file
/// A small fixed-size thread pool in the LLVM style: tasks are plain
/// `std::function<void()>` values executed FIFO by `std::jthread` workers.
/// No exceptions cross task boundaries (the codebase compiles without
/// throwing); cancellation uses the jthreads' stop tokens. The pool exists
/// for the H3 parallel inference solver, which dispatches one task per
/// variable-disjoint constraint group, but it is deliberately generic so
/// other compile-time phases can reuse it.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SUPPORT_THREADPOOL_H
#define LIBERTY_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace liberty {

class ThreadPool {
public:
  /// Spawns \p ThreadCount workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned ThreadCount = 0);

  /// Deterministic shutdown: tasks that never started are dropped (they
  /// are cancelled before anything else), tasks already running finish,
  /// then the workers are stopped and joined. An error path may therefore
  /// destroy the pool without first draining the queue and never observes
  /// a half-run suffix of the queued work racing teardown.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for asynchronous execution. Tasks run FIFO but may
  /// complete in any order; synchronize results with wait().
  void async(std::function<void()> Task);

  /// Blocks until every task enqueued so far has finished executing.
  void wait();

  unsigned getThreadCount() const { return unsigned(Workers.size()); }

  /// The default parallelism: hardware concurrency, never less than 1
  /// (hardware_concurrency() may legally return 0).
  static unsigned getHardwareParallelism();

private:
  /// The destructor's first step: removes every queued-but-not-started
  /// task without running it. Tasks already executing finish normally.
  void cancelPending();
  void workerLoop(std::stop_token Stop);

  std::mutex Mutex;
  std::condition_variable_any WorkAvailable;
  std::condition_variable_any AllDone;
  std::deque<std::function<void()>> Queue;
  unsigned Outstanding = 0; ///< Queued + currently-running tasks.
  std::vector<std::jthread> Workers;
};

} // namespace liberty

#endif // LIBERTY_SUPPORT_THREADPOOL_H
