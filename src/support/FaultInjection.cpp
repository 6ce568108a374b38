//===- FaultInjection.cpp - Deterministic fault-point registry ------------===//

#include "support/FaultInjection.h"

#include "support/Hash.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace liberty {

std::atomic<bool> FaultInjection::Armed{false};

namespace {

enum class TriggerKind {
  Always,      ///< `site`
  NthOnly,     ///< `site@N`
  NthAndLater, ///< `site@N+`
  Probability, ///< `site%P`
};

struct Rule {
  std::string Pattern; ///< Site name, or prefix when PrefixMatch.
  bool PrefixMatch = false;
  TriggerKind Kind = TriggerKind::Always;
  uint64_t N = 0;       ///< For Nth* kinds (1-based).
  uint32_t Percent = 0; ///< For Probability.
  uint64_t Hits = 0;
  uint64_t Fires = 0;
  uint64_t RngState = 0; ///< Per-rule stream so rules don't perturb each other.
};

struct Schedule {
  std::mutex Mutex;
  std::vector<Rule> Rules;
  uint64_t Seed = 1;
};

Schedule &schedule() {
  static Schedule S;
  return S;
}

// splitmix64: tiny, seedable, and plenty for a fire/no-fire coin flip.
uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    if (V > (UINT64_MAX - uint64_t(C - '0')) / 10)
      return false;
    V = V * 10 + uint64_t(C - '0');
  }
  Out = V;
  return true;
}

bool matches(const Rule &R, const char *Site) {
  if (R.PrefixMatch)
    return std::strncmp(Site, R.Pattern.c_str(), R.Pattern.size()) == 0;
  return R.Pattern == Site;
}

bool parseRule(const std::string &Text, Rule &R, std::string &Err) {
  std::string Name = Text;
  size_t At = Text.find('@');
  size_t Pct = Text.find('%');
  if (At != std::string::npos && Pct != std::string::npos) {
    Err = "rule '" + Text + "' mixes '@' and '%'";
    return false;
  }
  if (At != std::string::npos) {
    Name = Text.substr(0, At);
    std::string Arg = Text.substr(At + 1);
    if (!Arg.empty() && Arg.back() == '+') {
      R.Kind = TriggerKind::NthAndLater;
      Arg.pop_back();
    } else {
      R.Kind = TriggerKind::NthOnly;
    }
    if (!parseU64(Arg, R.N) || R.N == 0) {
      Err = "rule '" + Text + "': expected a positive count after '@'";
      return false;
    }
  } else if (Pct != std::string::npos) {
    Name = Text.substr(0, Pct);
    uint64_t P = 0;
    if (!parseU64(Text.substr(Pct + 1), P) || P > 100) {
      Err = "rule '" + Text + "': expected 0..100 after '%'";
      return false;
    }
    R.Kind = TriggerKind::Probability;
    R.Percent = uint32_t(P);
  }
  if (Name.empty()) {
    Err = "rule '" + Text + "' has an empty site name";
    return false;
  }
  if (Name.back() == '*') {
    R.PrefixMatch = true;
    Name.pop_back();
  }
  R.Pattern = Name;
  return true;
}

} // namespace

bool FaultInjection::configure(const std::string &Spec, std::string *Err) {
  std::vector<Rule> Rules;
  uint64_t Seed = 1;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t End = Spec.find_first_of(",;", Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Tok = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    // Trim surrounding whitespace.
    size_t B = Tok.find_first_not_of(" \t");
    size_t E = Tok.find_last_not_of(" \t");
    Tok = B == std::string::npos ? "" : Tok.substr(B, E - B + 1);
    if (Tok.empty())
      continue;
    if (Tok.rfind("seed=", 0) == 0) {
      if (!parseU64(Tok.substr(5), Seed)) {
        if (Err)
          *Err = "bad seed in '" + Tok + "'";
        return false;
      }
      continue;
    }
    Rule R;
    std::string RuleErr;
    if (!parseRule(Tok, R, RuleErr)) {
      if (Err)
        *Err = RuleErr;
      return false;
    }
    Rules.push_back(std::move(R));
  }
  Schedule &S = schedule();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Seed = Seed;
  // Each probability rule gets its own deterministic stream derived from
  // the seed and the rule's pattern, so adding a rule never reshuffles the
  // decisions of the others.
  for (Rule &R : Rules)
    R.RngState = Seed ^ fnv64(R.Pattern);
  S.Rules = std::move(Rules);
  Armed.store(!S.Rules.empty(), std::memory_order_relaxed);
  return true;
}

void FaultInjection::reset() {
  Schedule &S = schedule();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Rules.clear();
  S.Seed = 1;
  Armed.store(false, std::memory_order_relaxed);
}

bool FaultInjection::fire(const char *Site) {
  Schedule &S = schedule();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  bool Fired = false;
  for (Rule &R : S.Rules) {
    if (!matches(R, Site))
      continue;
    ++R.Hits;
    bool RuleFires = false;
    switch (R.Kind) {
    case TriggerKind::Always:
      RuleFires = true;
      break;
    case TriggerKind::NthOnly:
      RuleFires = R.Hits == R.N;
      break;
    case TriggerKind::NthAndLater:
      RuleFires = R.Hits >= R.N;
      break;
    case TriggerKind::Probability:
      RuleFires = splitmix64(R.RngState) % 100 < R.Percent;
      break;
    }
    if (RuleFires) {
      ++R.Fires;
      Fired = true;
    }
  }
  return Fired;
}

std::vector<FaultInjection::SiteStats> FaultInjection::stats() {
  Schedule &S = schedule();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  std::vector<SiteStats> Out;
  Out.reserve(S.Rules.size());
  for (const Rule &R : S.Rules) {
    SiteStats St;
    St.Site = R.Pattern + (R.PrefixMatch ? "*" : "");
    St.Hits = R.Hits;
    St.Fires = R.Fires;
    Out.push_back(std::move(St));
  }
  return Out;
}

void FaultInjection::configureFromEnv() {
  const char *Spec = std::getenv("LSS_FAULT");
  if (!Spec || !*Spec)
    return;
  std::string Err;
  if (!configure(Spec, &Err)) {
    std::fprintf(stderr, "error: bad LSS_FAULT spec: %s\n", Err.c_str());
    std::exit(2);
  }
}

} // namespace liberty
