//===- CpuBehaviors.cpp - Microarchitecture component behaviors --------------===//
///
/// Behaviors for the CPU-flavoured library components: cache, branch
/// predictor (with use-based-specialized BTB), trace-driven fetch, decode,
/// issue window with scoreboard, functional units, and the retire unit.
///
/// These are timing models over µRISC instruction tokens (see TraceGen.h),
/// not functional ISA emulators — the same substitution the evaluation of
/// the original paper's models would tolerate, since Table 2/3 measure
/// specification structure and CPI-level timing behaviour.
///
//===----------------------------------------------------------------------===//

#include "corelib/BehaviorSupport.h"
#include "corelib/CoreLib.h"
#include "corelib/TraceGen.h"

#include <algorithm>
#include <map>

using namespace liberty;
using namespace liberty::corelib;
using namespace liberty::corelib::detail;
using namespace liberty::bsl;
using interp::Value;

namespace {

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

/// Set-associative cache timing model: hits answer ready=true in the same
/// cycle; misses hold the port for miss_latency cycles (and send the block
/// address on mem_addr if that optional port is connected), then install
/// the line using the selected replacement policy.
class Cache : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Sets = std::max<int64_t>(1, paramInt(Ctx, "sets", 64));
    Ways = std::max<int64_t>(1, paramInt(Ctx, "ways", 4));
    MissLatency = std::max<int64_t>(1, paramInt(Ctx, "miss_latency", 10));
    Repl = paramString(Ctx, "repl", "lru");
    Tags.assign(Sets * Ways, -1);
    Stamp.assign(Sets * Ways, 0);
    Pending.clear();
    Tick = 0;
    Rng = 0x9e3779b97f4a7c15ULL;
    Addr = Ctx.bindPort("addr");
    Ready = Ctx.bindPort("ready");
    MemAddr = Ctx.bindPort("mem_addr");
  }

  void evaluate(BehaviorContext &Ctx) override {
    for (int P = 0, W = Ctx.getWidth(Addr); P != W; ++P) {
      auto PendIt = Pending.find(P);
      if (PendIt != Pending.end()) {
        Ctx.setOutputBool(Ready, P, false);
        continue;
      }
      const Value *A = Ctx.getInput(Addr, P);
      if (!A || !A->isInt())
        continue;
      int64_t Block = A->getInt() / 32;
      if (lookup(Block)) {
        Ctx.emitEvent("hit", *A);
        Ctx.setOutputBool(Ready, P, true);
        continue;
      }
      Ctx.emitEvent("miss", *A);
      Ctx.setOutputBool(Ready, P, false);
      if (P < Ctx.getWidth(MemAddr))
        Ctx.setOutputInt(MemAddr, P, Block * 32);
      Pending.emplace(P, PendingMiss{Block, MissLatency});
    }
  }

  void endOfTimestep(BehaviorContext &Ctx) override {
    (void)Ctx;
    ++Tick;
    for (auto It = Pending.begin(); It != Pending.end();) {
      if (--It->second.Remaining > 0) {
        ++It;
        continue;
      }
      install(It->second.Block);
      It = Pending.erase(It);
    }
  }

private:
  struct PendingMiss {
    int64_t Block;
    int64_t Remaining;
  };

  bool lookup(int64_t Block) {
    int64_t Set = ((Block % Sets) + Sets) % Sets;
    for (int64_t W = 0; W != Ways; ++W) {
      size_t Slot = static_cast<size_t>(Set * Ways + W);
      if (Tags[Slot] == Block) {
        if (Repl == "lru")
          Stamp[Slot] = ++Tick;
        return true;
      }
    }
    return false;
  }

  void install(int64_t Block) {
    int64_t Set = ((Block % Sets) + Sets) % Sets;
    size_t Victim = static_cast<size_t>(Set * Ways);
    if (Repl == "random") {
      Rng ^= Rng << 13;
      Rng ^= Rng >> 7;
      Rng ^= Rng << 17;
      Victim = static_cast<size_t>(Set * Ways + (Rng % Ways));
    } else {
      // lru and fifo both evict the smallest stamp; they differ in whether
      // lookup() refreshes it.
      uint64_t Best = UINT64_MAX;
      for (int64_t W = 0; W != Ways; ++W) {
        size_t Slot = static_cast<size_t>(Set * Ways + W);
        if (Tags[Slot] == -1) {
          Victim = Slot;
          break;
        }
        if (Stamp[Slot] < Best) {
          Best = Stamp[Slot];
          Victim = Slot;
        }
      }
    }
    Tags[Victim] = Block;
    Stamp[Victim] = ++Tick;
  }

  int64_t Sets = 64, Ways = 4, MissLatency = 10;
  std::string Repl = "lru";
  std::vector<int64_t> Tags;
  std::vector<uint64_t> Stamp;
  std::map<int, PendingMiss> Pending;
  uint64_t Tick = 0;
  uint64_t Rng = 1;
  int Addr = -1;
  int Ready = -1;
  int MemAddr = -1;
};

//===----------------------------------------------------------------------===//
// Branch predictor (the paper's use-based specialization example)
//===----------------------------------------------------------------------===//

class BranchPred : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Entries = std::max<int64_t>(16, paramInt(Ctx, "entries", 256));
    Table.assign(static_cast<size_t>(Entries), 1); // Weakly not-taken.
    Btb.clear();
    LastPred.clear();
    Pc = Ctx.bindPort("pc");
    Pred = Ctx.bindPort("pred");
    BranchTarget = Ctx.bindPort("branch_target");
    ResolvePc = Ctx.bindPort("resolve_pc");
    ResolveTaken = Ctx.bindPort("resolve_taken");
    ResolveTarget = Ctx.bindPort("resolve_target");
    // Use-based specialization at run time: BTB machinery only exists when
    // the branch_target port was connected by the enclosing model.
    BtbEnabled = Ctx.getWidth(BranchTarget) > 0;
  }

  void evaluate(BehaviorContext &Ctx) override {
    for (int P = 0, W = Ctx.getWidth(Pc); P != W; ++P) {
      const Value *PcV = Ctx.getInput(Pc, P);
      if (!PcV || !PcV->isInt())
        continue;
      Ctx.emitEvent("lookup", *PcV);
      size_t Idx = index(PcV->getInt());
      bool Taken = Table[Idx] >= 2;
      if (P < Ctx.getWidth(Pred))
        Ctx.setOutputBool(Pred, P, Taken);
      if (BtbEnabled && Taken) {
        auto It = Btb.find(PcV->getInt());
        if (It != Btb.end() && P < Ctx.getWidth(BranchTarget))
          Ctx.setOutputInt(BranchTarget, P, It->second);
      }
      LastPred[PcV->getInt()] = Taken;
    }
  }

  void endOfTimestep(BehaviorContext &Ctx) override {
    for (int P = 0, W = Ctx.getWidth(ResolvePc); P != W; ++P) {
      const Value *PcV = Ctx.getInput(ResolvePc, P);
      const Value *TakenV = Ctx.getInput(ResolveTaken, P);
      if (!PcV || !PcV->isInt() || !TakenV || !TakenV->isBool())
        continue;
      bool Taken = TakenV->getBool();
      size_t Idx = index(PcV->getInt());
      if (Taken && Table[Idx] < 3)
        ++Table[Idx];
      else if (!Taken && Table[Idx] > 0)
        --Table[Idx];
      auto PredIt = LastPred.find(PcV->getInt());
      if (PredIt != LastPred.end() && PredIt->second != Taken)
        Ctx.emitEvent("mispredict", *PcV);
      if (BtbEnabled && Taken)
        if (const Value *T = Ctx.getInput(ResolveTarget, P))
          if (T->isInt())
            Btb[PcV->getInt()] = T->getInt();
    }
  }

private:
  size_t index(int64_t Pc) const {
    return static_cast<size_t>(((Pc / 4) % Entries + Entries) % Entries);
  }

  int64_t Entries = 256;
  std::vector<uint8_t> Table;
  std::map<int64_t, int64_t> Btb;
  std::map<int64_t, bool> LastPred;
  bool BtbEnabled = false;
  int Pc = -1;
  int Pred = -1;
  int BranchTarget = -1;
  int ResolvePc = -1;
  int ResolveTaken = -1;
  int ResolveTarget = -1;
};

//===----------------------------------------------------------------------===//
// Fetch / decode / issue / fu / rob
//===----------------------------------------------------------------------===//

class Fetch : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Remaining = paramInt(Ctx, "num_instrs", 1000);
    Gen = std::make_unique<TraceGen>(
        static_cast<uint64_t>(paramInt(Ctx, "seed", 42)),
        static_cast<int>(paramInt(Ctx, "mem_frac", 30)),
        static_cast<int>(paramInt(Ctx, "branch_frac", 15)));
    StalledLastCycle = false;
    Instr = Ctx.bindPort("instr");
    Stall = Ctx.bindPort("stall");
  }

  void evaluate(BehaviorContext &Ctx) override {
    if (StalledLastCycle || Remaining <= 0)
      return;
    for (int I = 0, W = Ctx.getWidth(Instr); I != W && Remaining > 0; ++I) {
      MicroInstr MI = Gen->next();
      --Remaining;
      Value Token = TraceGen::toValue(MI);
      Ctx.emitEvent("fetched", Token);
      Ctx.setOutput(Instr, I, std::move(Token));
    }
  }

  void endOfTimestep(BehaviorContext &Ctx) override {
    StalledLastCycle = stallAsserted(Ctx, Stall);
  }

  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  int64_t Remaining = 0;
  std::unique_ptr<TraceGen> Gen;
  bool StalledLastCycle = false;
  int Instr = -1;
  int Stall = -1;
};

class Decode : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Instr = Ctx.bindPort("instr");
    Uop = Ctx.bindPort("uop");
    Stall = Ctx.bindPort("stall");
    Held.assign(Ctx.getWidth(Uop), Value());
  }
  void evaluate(BehaviorContext &Ctx) override {
    for (int I = 0, W = Ctx.getWidth(Uop); I != W; ++I)
      if (I < static_cast<int>(Held.size()) && Held[I].isData())
        Ctx.setOutput(Uop, I, Held[I]);
  }
  void endOfTimestep(BehaviorContext &Ctx) override {
    if (stallAsserted(Ctx, Stall))
      return;
    for (int I = 0, W = Ctx.getWidth(Instr); I != W; ++I) {
      if (I >= static_cast<int>(Held.size()))
        break;
      const Value *V = Ctx.getInput(Instr, I);
      Held[I] = V ? *V : Value();
    }
  }
  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  std::vector<Value> Held;
  int Instr = -1;
  int Uop = -1;
  int Stall = -1;
};

/// A µRISC token a stage holds: the fields it schedules by, and the
/// struct it forwards. Stages forward the token they hold, so sending it
/// on shares its payload instead of encoding a new one.
struct HeldToken {
  MicroInstr MI;
  Value Token;
};

/// Takes in a token: a canonical one is kept as it came; any other value
/// is re-encoded once, as toValue(fromValue(V)), which is what leaves the
/// stage.
HeldToken holdToken(const Value &V) {
  MicroInstr MI = TraceGen::fromValue(V);
  if (TraceGen::isCanonical(V))
    return {MI, V};
  return {MI, TraceGen::toValue(MI)};
}

/// Issue window with a register scoreboard. Dispatch decisions are made
/// from last cycle's state (fully sequential timing), so arbitrarily deep
/// pipelines schedule without combinational cycles.
class Issue : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    WindowSize = std::max<int64_t>(1, paramInt(Ctx, "window", 8));
    InOrder = paramBool(Ctx, "inorder", true);
    Window.clear();
    BusyRegs.clear();
    Uop = Ctx.bindPort("uop");
    FuBusyPort = Ctx.bindPort("fu_busy");
    Complete = Ctx.bindPort("complete");
    Dispatch = Ctx.bindPort("dispatch");
    StallPort = Ctx.bindPort("stall");
    FuBusy.assign(Ctx.getWidth(Dispatch), false);
  }

  void evaluate(BehaviorContext &Ctx) override {
    int NumFus = Ctx.getWidth(Dispatch);
    FuUsed.assign(FuBusy.begin(), FuBusy.end());
    Issued.assign(Window.size(), false);

    for (size_t W = 0; W != Window.size(); ++W) {
      const MicroInstr &MI = Window[W].MI;
      bool Ready = !busy(MI.Src1) && !busy(MI.Src2);
      if (!Ready) {
        if (InOrder)
          break;
        continue;
      }
      int Fu = -1;
      for (int F = 0; F != NumFus; ++F) {
        if (FuUsed[F])
          continue;
        Fu = F;
        break;
      }
      if (Fu < 0) {
        if (InOrder)
          break;
        continue;
      }
      FuUsed[Fu] = true;
      Issued[W] = true;
      Ctx.setOutput(Dispatch, Fu, Window[W].Token);
    }

    // Mark issued dests busy and close the window over the rest, in order.
    size_t Kept = 0;
    for (size_t W = 0; W != Window.size(); ++W) {
      if (Issued[W])
        BusyRegs.push_back(Window[W].MI.Dest);
      else {
        if (Kept != W)
          Window[Kept] = std::move(Window[W]);
        ++Kept;
      }
    }
    Window.erase(Window.begin() + static_cast<std::ptrdiff_t>(Kept),
                 Window.end());

    bool Stall = Window.size() >= static_cast<size_t>(WindowSize);
    Ctx.setOutputBool(StallPort, 0, Stall);
    if (Stall)
      Ctx.emitEvent("issue_stall", Value::makeInt((int64_t)Window.size()));
  }

  void endOfTimestep(BehaviorContext &Ctx) override {
    // Absorb completions first (frees registers for next cycle)...
    for (int F = 0, W = Ctx.getWidth(Complete); F != W; ++F)
      if (const Value *V = Ctx.getInput(Complete, F)) {
        auto It = std::find(BusyRegs.begin(), BusyRegs.end(),
                            TraceGen::fromValue(*V).Dest);
        if (It != BusyRegs.end()) {
          // One completion frees one in-flight dest.
          *It = BusyRegs.back();
          BusyRegs.pop_back();
        }
      }
    // ...then FU occupancy...
    FuBusy.assign(Ctx.getWidth(Dispatch), false);
    for (int F = 0, W = Ctx.getWidth(FuBusyPort); F != W; ++F)
      if (const Value *V = Ctx.getInput(FuBusyPort, F))
        if (F < static_cast<int>(FuBusy.size()))
          FuBusy[F] = V->isBool() && V->getBool();
    // ...then new micro-ops. Absorption is unconditional: the stall signal
    // throttles fetch with a one-cycle lag, so the window may transiently
    // overshoot by up to two fetch groups — a soft limit guarantees no
    // instruction is ever lost.
    for (int I = 0, W = Ctx.getWidth(Uop); I != W; ++I)
      if (const Value *V = Ctx.getInput(Uop, I))
        Window.push_back(holdToken(*V));
  }

  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  bool busy(int64_t Reg) const {
    return std::find(BusyRegs.begin(), BusyRegs.end(), Reg) != BusyRegs.end();
  }

  int64_t WindowSize = 8;
  bool InOrder = true;
  std::vector<HeldToken> Window; ///< Oldest first.
  /// Dests of dispatched, uncompleted instructions; one entry per
  /// in-flight writer, in no particular order.
  std::vector<int64_t> BusyRegs;
  std::vector<bool> FuBusy;
  // evaluate()'s per-cycle scratch, kept to reuse its storage.
  std::vector<bool> FuUsed;
  std::vector<bool> Issued;
  int Uop = -1;
  int FuBusyPort = -1;
  int Complete = -1;
  int Dispatch = -1;
  int StallPort = -1;
};

class Fu : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Latency = std::max<int64_t>(1, paramInt(Ctx, "latency", 1));
    Pipelined = paramBool(Ctx, "pipelined", true);
    Pipe.clear();
    Uop = Ctx.bindPort("uop");
    Done = Ctx.bindPort("done");
    Busy = Ctx.bindPort("busy");
  }

  void evaluate(BehaviorContext &Ctx) override {
    // At most one completion per cycle: done is a single port instance, so
    // simultaneous completions would overwrite each other. The oldest
    // finished entry drains first; the rest wait.
    EmittedIdx = -1;
    for (size_t I = 0; I != Pipe.size(); ++I) {
      if (Pipe[I].Remaining != 0)
        continue;
      Ctx.setOutput(Done, 0, Pipe[I].Token);
      EmittedIdx = static_cast<int>(I);
      break;
    }
    bool B = Pipelined ? Pipe.size() >= static_cast<size_t>(Latency + 2)
                       : !Pipe.empty();
    Ctx.setOutputBool(Busy, 0, B);
  }

  void endOfTimestep(BehaviorContext &Ctx) override {
    if (EmittedIdx >= 0)
      Pipe.erase(Pipe.begin() + EmittedIdx);
    for (Stage &S : Pipe)
      if (S.Remaining > 0)
        --S.Remaining;
    if (const Value *V = Ctx.getInput(Uop, 0)) {
      HeldToken H = holdToken(*V);
      int64_t Lat = std::max<int64_t>(Latency, H.MI.Lat);
      Pipe.push_back({std::move(H.Token), Lat - 1});
    }
  }

  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  struct Stage {
    Value Token;
    int64_t Remaining; ///< Cycles until the token may complete.
  };

  int64_t Latency = 1;
  bool Pipelined = true;
  int EmittedIdx = -1;
  std::vector<Stage> Pipe; ///< Oldest first.
  int Uop = -1;
  int Done = -1;
  int Busy = -1;
};

class Rob : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Done = Ctx.bindPort("done");
    RetiredPort = Ctx.bindPort("retired");
    Retired = Ctx.bindState("retired");
  }
  void evaluate(BehaviorContext &Ctx) override {
    const Value &Count = Ctx.state(Retired);
    Ctx.setOutput(RetiredPort, 0,
                  Count.isInt() ? Count : Value::makeInt(0));
  }
  void endOfTimestep(BehaviorContext &Ctx) override {
    for (int F = 0, W = Ctx.getWidth(Done); F != W; ++F) {
      const Value *V = Ctx.getInput(Done, F);
      if (!V)
        continue;
      Value &Count = Ctx.state(Retired);
      Count.setInt(Count.isInt() ? Count.getInt() + 1 : 1);
      Ctx.emitEvent("retire", *V);
    }
  }
  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  int Done = -1;
  int RetiredPort = -1;
  int Retired = -1;
};

} // namespace

void liberty::corelib::detail::registerCpuBehaviors(BehaviorRegistry &R) {
  R.registerBehavior("corelib/cache", [] { return std::make_unique<Cache>(); });
  R.registerBehavior("corelib/branch_pred",
                     [] { return std::make_unique<BranchPred>(); });
  R.registerBehavior("corelib/fetch", [] { return std::make_unique<Fetch>(); });
  R.registerBehavior("corelib/decode",
                     [] { return std::make_unique<Decode>(); });
  R.registerBehavior("corelib/issue", [] { return std::make_unique<Issue>(); });
  R.registerBehavior("corelib/fu", [] { return std::make_unique<Fu>(); });
  R.registerBehavior("corelib/rob", [] { return std::make_unique<Rob>(); });
}
