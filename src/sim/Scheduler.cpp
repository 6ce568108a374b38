//===- Scheduler.cpp - Static concurrency scheduling -------------------------===//

#include "sim/Scheduler.h"

#include <algorithm>
#include <cassert>

using namespace liberty;
using namespace liberty::sim;

Schedule liberty::sim::computeSchedule(
    int NumNodes, const std::vector<std::vector<int>> &Successors) {
  assert(static_cast<int>(Successors.size()) == NumNodes &&
         "adjacency size mismatch");

  // Iterative Tarjan. Tarjan emits SCCs in reverse topological order of the
  // condensation, so reversing the emission order yields the schedule.
  std::vector<int> Index(NumNodes, -1), LowLink(NumNodes, 0);
  std::vector<bool> OnStack(NumNodes, false);
  std::vector<int> Stack;
  std::vector<std::vector<int>> SCCs;
  int NextIndex = 0;

  struct Frame {
    int Node;
    size_t EdgeIdx;
  };
  std::vector<Frame> CallStack;

  for (int Start = 0; Start != NumNodes; ++Start) {
    if (Index[Start] != -1)
      continue;
    CallStack.push_back(Frame{Start, 0});
    Index[Start] = LowLink[Start] = NextIndex++;
    Stack.push_back(Start);
    OnStack[Start] = true;

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      int U = F.Node;
      if (F.EdgeIdx < Successors[U].size()) {
        int V = Successors[U][F.EdgeIdx++];
        if (Index[V] == -1) {
          Index[V] = LowLink[V] = NextIndex++;
          Stack.push_back(V);
          OnStack[V] = true;
          CallStack.push_back(Frame{V, 0});
        } else if (OnStack[V]) {
          LowLink[U] = std::min(LowLink[U], Index[V]);
        }
        continue;
      }
      // U is finished.
      if (LowLink[U] == Index[U]) {
        std::vector<int> SCC;
        while (true) {
          int W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          SCC.push_back(W);
          if (W == U)
            break;
        }
        std::sort(SCC.begin(), SCC.end());
        SCCs.push_back(std::move(SCC));
      }
      CallStack.pop_back();
      if (!CallStack.empty()) {
        int Parent = CallStack.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[U]);
      }
    }
  }

  Schedule S;
  S.Groups.assign(SCCs.rbegin(), SCCs.rend());

  // Structural counts, once, at construction (not per accessor call).
  S.NumCyclic = 0;
  S.MaxGroup = 0;
  for (const auto &G : S.Groups) {
    if (G.size() > 1)
      ++S.NumCyclic;
    S.MaxGroup = std::max(S.MaxGroup, unsigned(G.size()));
  }

  return S;
}
