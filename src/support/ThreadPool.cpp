//===- ThreadPool.cpp - Minimal thread pool ----------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace liberty;

unsigned ThreadPool::getHardwareParallelism() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned ThreadCount) {
  if (ThreadCount == 0)
    ThreadCount = getHardwareParallelism();
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Workers.emplace_back([this](std::stop_token Stop) { workerLoop(Stop); });
}

ThreadPool::~ThreadPool() {
  // Cancel-before-wait makes teardown deterministic: a task either ran to
  // completion before destruction began or never starts. The old order
  // (drain everything, then stop) let an error path that destroyed the
  // pool with work still queued race the workers through a suffix of
  // tasks whose state was already being torn down.
  cancelPending();
  wait();
  for (std::jthread &W : Workers)
    W.request_stop();
  WorkAvailable.notify_all();
  // ~jthread joins each worker.
}

void ThreadPool::async(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
    ++Outstanding;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Outstanding == 0; });
}

void ThreadPool::cancelPending() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Outstanding -= unsigned(Queue.size());
  Queue.clear();
  if (Outstanding == 0)
    AllDone.notify_all();
}

void ThreadPool::workerLoop(std::stop_token Stop) {
  while (true) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, Stop, [this] { return !Queue.empty(); });
      if (Queue.empty())
        return; // Stop requested and nothing left to run.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Outstanding == 0)
        AllDone.notify_all();
    }
  }
}
