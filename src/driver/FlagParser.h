//===- FlagParser.h - Shared CLI flag table for lssc/lssd -------*- C++ -*-===//
///
/// \file
/// Table-driven command-line parsing shared by the LSS tools. Each tool
/// registers its flags (name, metavar, help, destination) once and gets
/// parsing, `--flag VALUE` / `--flag=VALUE` handling, generated usage
/// text, and unknown-option diagnosis for free.
///
/// Flags that exist in both tools (the artifact-cache flags and
/// `--fault-inject`) are declared once in FlagParser.cpp via the add*
/// helpers, so their spelling, help text, and validation cannot drift
/// between `lssc` and `lssd`.
///
/// Error convention: parse() prints "<tool>: <problem>" to stderr and
/// returns false; the caller prints its usage text and exits 2. This
/// matches the historical hand-rolled parsers, whose messages are part of
/// the tools' tested contract.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_FLAGPARSER_H
#define LIBERTY_DRIVER_FLAGPARSER_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace liberty {
namespace driver {

class FlagParser {
public:
  explicit FlagParser(std::string ToolName) : Tool(std::move(ToolName)) {}

  /// A switch with no value: `--name`.
  void boolean(const char *Name, bool *Out, const char *Help);

  /// A string-valued flag: `--name VALUE` or `--name=VALUE`.
  void string(const char *Name, const char *Metavar, std::string *Out,
              const char *Help);

  /// An unsigned flag. \p ValuePhrase names the value in error messages
  /// ("thread count" -> "--jobs requires a thread count"); with
  /// \p RequirePositive, zero is rejected as "requires a positive
  /// <phrase>". Both messages are tested tool contract.
  void unsignedNum(const char *Name, const char *Metavar, uint64_t *Out,
                   const char *Help, const char *ValuePhrase,
                   bool RequirePositive = false);
  /// unsignedNum() for `unsigned` destinations (lssc's thread counts).
  void unsignedNum(const char *Name, const char *Metavar, unsigned *Out,
                   const char *Help, const char *ValuePhrase,
                   bool RequirePositive = false);

  /// A flag with bespoke value handling. The handler returns false after
  /// printing its own "<tool>: ..." error. \p Metavar null = no value.
  void custom(const char *Name, const char *Metavar, const char *Help,
              std::function<bool(const std::string &Value)> Handler);

  //===------------------------------------------------------------------===//
  // Flags shared between lssc and lssd, declared once.
  //===------------------------------------------------------------------===//

  /// `--cache-dir DIR`, and (when \p NoCache is non-null) `--no-cache`.
  void addCacheFlags(std::string *CacheDir, bool *NoCache);

  /// `--fault-inject SPEC` (see support/FaultInjection.h; both tools also
  /// honor the LSS_FAULT environment variable).
  void addFaultInjectFlag(std::string *Spec);

  /// Parses the command line. Non-flag arguments are appended to
  /// \p Positionals (rejected when null). `--help`/`-h` prints the usage
  /// text and sets helpRequested(). False = error already printed.
  bool parse(int Argc, char **Argv, std::vector<std::string> *Positionals);

  bool helpRequested() const { return HelpRequested; }

  /// Generated two-column usage text: "usage: <synopsis>" then one entry
  /// per registered flag in registration order; \p Epilog (when non-null)
  /// is printed verbatim after the table.
  void printUsage(std::ostream &OS, const char *Synopsis,
                  const char *Epilog = nullptr) const;

private:
  struct Flag {
    std::string Name;            ///< Including the leading dashes.
    std::string Metavar;         ///< Empty = boolean switch.
    std::string Help;            ///< '\n'-separated continuation lines.
    std::string ValuePhrase;     ///< For "requires a <phrase>" errors.
    bool RequirePositive = false;
    std::function<bool(const std::string &)> Handler;
  };

  Flag *find(const std::string &Name);
  void addUnsigned(const char *Name, const char *Metavar,
                   std::function<void(uint64_t)> Store, const char *Help,
                   const char *ValuePhrase, bool RequirePositive);

  std::string Tool;
  std::vector<Flag> Flags;
  bool HelpRequested = false;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_FLAGPARSER_H
