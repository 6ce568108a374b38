//===- Diagnostics.h - Source-located diagnostics ---------------*- C++ -*-===//
///
/// \file
/// The diagnostics engine used by every phase of the LSS pipeline. The
/// library never throws: phases report through this engine and callers test
/// hasErrors(). Messages follow the LLVM style: lowercase first word, no
/// trailing period.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SUPPORT_DIAGNOSTICS_H
#define LIBERTY_SUPPORT_DIAGNOSTICS_H

#include "support/SourceMgr.h"

#include <ostream>
#include <string>
#include <vector>

namespace liberty {

/// Severity of a diagnostic.
enum class DiagLevel { Note, Warning, Error };

/// One reported diagnostic.
struct Diagnostic {
  DiagLevel Level;
  SourceLoc Loc;
  std::string Message;
};

/// Collects diagnostics for a compilation.
///
/// The engine is deliberately simple: phases push diagnostics, drivers print
/// them. It owns nothing but the message list; the SourceMgr is borrowed so
/// printed diagnostics can show file/line/caret context.
///
/// The engine also owns the pipeline-wide error cap (`lssc --max-errors`):
/// once MaxErrors errors have been reported, further errors and warnings
/// are dropped, one "too many errors" note marks the cut, and every phase
/// (parser recovery, elaboration, inference, simulation) is expected to poll
/// errorLimitReached() and wind down instead of grinding on.
class DiagnosticEngine {
public:
  explicit DiagnosticEngine(const SourceMgr &SM) : SM(SM) {}

  void error(SourceLoc Loc, std::string Message) {
    if (errorLimitReached())
      return;
    Diags.push_back({DiagLevel::Error, Loc, std::move(Message)});
    ++NumErrors;
    // Announce the cut the moment the cap is reached — phases poll
    // errorLimitReached() and wind down, so a later error() call that
    // could carry the note may never come.
    if (errorLimitReached() && !LimitNoteEmitted) {
      LimitNoteEmitted = true;
      Diags.push_back({DiagLevel::Note, SourceLoc(),
                       "too many errors emitted, stopping now "
                       "(raise the cap with --max-errors)"});
    }
  }
  void warning(SourceLoc Loc, std::string Message) {
    if (errorLimitReached())
      return;
    Diags.push_back({DiagLevel::Warning, Loc, std::move(Message)});
    ++NumWarnings;
  }
  void note(SourceLoc Loc, std::string Message) {
    if (errorLimitReached())
      return;
    Diags.push_back({DiagLevel::Note, Loc, std::move(Message)});
  }
  /// Re-reports recorded warnings and notes (a cache artifact's). Errors
  /// are never recorded in artifacts; one found here is dropped.
  void replay(const std::vector<Diagnostic> &Ds) {
    for (const Diagnostic &D : Ds) {
      if (D.Level == DiagLevel::Warning)
        warning(D.Loc, D.Message);
      else if (D.Level == DiagLevel::Note)
        note(D.Loc, D.Message);
    }
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned getNumErrors() const { return NumErrors; }
  unsigned getNumWarnings() const { return NumWarnings; }

  /// The shared error cap. 0 means unlimited. Applies to every phase that
  /// reports through this engine.
  void setMaxErrors(unsigned N) { MaxErrors = N; }

  /// True once the error cap has been hit: phases should stop producing
  /// new work (and new diagnostics are dropped, not stored).
  bool errorLimitReached() const {
    return MaxErrors != 0 && NumErrors >= MaxErrors;
  }

  const std::vector<Diagnostic> &getDiagnostics() const { return Diags; }
  /// Copies the diagnostics from index \p From on: the slice one phase
  /// appended, without anything earlier (e.g. cache-corruption notes,
  /// which must not leak into stored artifacts).
  std::vector<Diagnostic> getDiagnosticsSince(size_t From) const {
    return std::vector<Diagnostic>(Diags.begin() + From, Diags.end());
  }

  /// Returns the message of the first error, or "" if none. Convenient for
  /// tests asserting on a particular failure.
  std::string getFirstErrorMessage() const;

  /// Pretty-prints every diagnostic with source context to \p OS.
  void printAll(std::ostream &OS) const;

  /// Drops all collected diagnostics and resets the counters.
  void clear() {
    Diags.clear();
    NumErrors = NumWarnings = 0;
    LimitNoteEmitted = false;
  }

  const SourceMgr &getSourceMgr() const { return SM; }

private:
  const SourceMgr &SM;
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
  unsigned NumWarnings = 0;
  bool LimitNoteEmitted = false;
  /// Shared error cap (0 = unlimited). 50 matches the elaboration
  /// interpreter's historical private cap, now pipeline-wide.
  unsigned MaxErrors = 50;
};

} // namespace liberty

#endif // LIBERTY_SUPPORT_DIAGNOSTICS_H
