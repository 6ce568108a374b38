//===- FlagParser.cpp - Shared CLI flag table for lssc/lssd ---------------===//

#include "driver/FlagParser.h"

#include <cstdlib>
#include <iostream>

using namespace liberty;
using namespace liberty::driver;

FlagParser::Flag *FlagParser::find(const std::string &Name) {
  for (Flag &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

void FlagParser::boolean(const char *Name, bool *Out, const char *Help) {
  Flag F;
  F.Name = Name;
  F.Help = Help;
  F.Handler = [Out](const std::string &) {
    *Out = true;
    return true;
  };
  Flags.push_back(std::move(F));
}

void FlagParser::string(const char *Name, const char *Metavar,
                        std::string *Out, const char *Help) {
  Flag F;
  F.Name = Name;
  F.Metavar = Metavar;
  F.Help = Help;
  F.ValuePhrase = Metavar;
  F.Handler = [Out](const std::string &V) {
    *Out = V;
    return true;
  };
  Flags.push_back(std::move(F));
}

void FlagParser::addUnsigned(const char *Name, const char *Metavar,
                             std::function<void(uint64_t)> Store,
                             const char *Help, const char *ValuePhrase,
                             bool RequirePositive) {
  Flag F;
  F.Name = Name;
  F.Metavar = Metavar;
  F.Help = Help;
  F.ValuePhrase = ValuePhrase;
  F.RequirePositive = RequirePositive;
  std::string Tool = this->Tool, FlagName = Name, Phrase = ValuePhrase;
  F.Handler = [Store, Tool, FlagName, Phrase,
               RequirePositive](const std::string &V) {
    char *End = nullptr;
    uint64_t N = std::strtoull(V.c_str(), &End, 10);
    bool Parsed = End && *End == '\0' && End != V.c_str();
    if (!Parsed || (RequirePositive && N == 0)) {
      std::cerr << Tool << ": " << FlagName << " requires a "
                << (RequirePositive ? "positive " : "") << Phrase << "\n";
      return false;
    }
    Store(N);
    return true;
  };
  Flags.push_back(std::move(F));
}

void FlagParser::unsignedNum(const char *Name, const char *Metavar,
                             uint64_t *Out, const char *Help,
                             const char *ValuePhrase, bool RequirePositive) {
  addUnsigned(Name, Metavar, [Out](uint64_t N) { *Out = N; }, Help,
              ValuePhrase, RequirePositive);
}

void FlagParser::unsignedNum(const char *Name, const char *Metavar,
                             unsigned *Out, const char *Help,
                             const char *ValuePhrase, bool RequirePositive) {
  addUnsigned(Name, Metavar, [Out](uint64_t N) { *Out = unsigned(N); }, Help,
              ValuePhrase, RequirePositive);
}

void FlagParser::custom(const char *Name, const char *Metavar,
                        const char *Help,
                        std::function<bool(const std::string &)> Handler) {
  Flag F;
  F.Name = Name;
  if (Metavar) {
    F.Metavar = Metavar;
    F.ValuePhrase = Metavar;
  }
  F.Help = Help;
  F.Handler = std::move(Handler);
  Flags.push_back(std::move(F));
}

//===----------------------------------------------------------------------===//
// Shared flag declarations. These are the single point of truth for flags
// both tools expose; help text and validation live here, not per-tool.
//===----------------------------------------------------------------------===//

void FlagParser::addCacheFlags(std::string *CacheDir, bool *NoCache) {
  string("--cache-dir", "DIR", CacheDir,
         "memoize parse/elaborate/solve results in\n"
         "a content-addressed artifact cache under\n"
         "DIR; later runs of unchanged sources\n"
         "reload them instead of recompiling");
  if (NoCache)
    boolean("--no-cache", NoCache,
            "ignore --cache-dir; always compile cold");
}

void FlagParser::addFaultInjectFlag(std::string *Spec) {
  string("--fault-inject", "SPEC", Spec,
         "arm deterministic fault injection at the\n"
         "named I/O sites (testing; e.g.\n"
         "'cache.disk.rename@1,seed=7'; also via\n"
         "the LSS_FAULT environment variable)");
}

//===----------------------------------------------------------------------===//
// Parsing and usage text.
//===----------------------------------------------------------------------===//

bool FlagParser::parse(int Argc, char **Argv,
                       std::vector<std::string> *Positionals) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      HelpRequested = true;
      return true;
    }
    if (Arg.empty() || Arg[0] != '-') {
      if (!Positionals) {
        std::cerr << Tool << ": unexpected argument '" << Arg << "'\n";
        return false;
      }
      Positionals->push_back(Arg);
      continue;
    }
    // `--flag=VALUE` splits at the first '='; `--flag VALUE` consumes the
    // next argv element.
    std::string Name = Arg, Inline;
    bool HasInline = false;
    if (size_t Eq = Arg.find('='); Eq != std::string::npos) {
      Name = Arg.substr(0, Eq);
      Inline = Arg.substr(Eq + 1);
      HasInline = true;
    }
    Flag *F = find(Name);
    if (!F) {
      std::cerr << Tool << ": unknown option '" << Name << "'\n";
      return false;
    }
    std::string Value;
    if (!F->Metavar.empty()) {
      if (HasInline) {
        Value = Inline;
      } else if (++I < Argc) {
        Value = Argv[I];
      } else {
        std::cerr << Tool << ": " << F->Name << " requires a"
                  << (F->RequirePositive ? " positive " : " ")
                  << F->ValuePhrase << "\n";
        return false;
      }
    } else if (HasInline) {
      std::cerr << Tool << ": " << F->Name << " takes no value\n";
      return false;
    }
    if (!F->Handler(Value))
      return false;
  }
  return true;
}

void FlagParser::printUsage(std::ostream &OS, const char *Synopsis,
                            const char *Epilog) const {
  OS << "usage: " << Synopsis << "\n";
  // Two columns: "  --name METAVAR" padded to the help column, with
  // '\n'-separated help continuation lines indented to match.
  const size_t HelpCol = 25;
  for (const Flag &F : Flags) {
    std::string Left = "  " + F.Name;
    if (!F.Metavar.empty())
      Left += " " + F.Metavar;
    if (Left.size() + 2 > HelpCol)
      Left += "  ";
    else
      Left.resize(HelpCol, ' ');
    const std::string &Help = F.Help;
    size_t Pos = 0;
    bool First = true;
    while (Pos <= Help.size()) {
      size_t NL = Help.find('\n', Pos);
      std::string Line = Help.substr(
          Pos, NL == std::string::npos ? std::string::npos : NL - Pos);
      if (First)
        OS << Left << Line << "\n";
      else
        OS << std::string(HelpCol, ' ') << Line << "\n";
      First = false;
      if (NL == std::string::npos)
        break;
      Pos = NL + 1;
    }
  }
  if (Epilog)
    OS << Epilog;
}
