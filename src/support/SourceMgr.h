//===- SourceMgr.h - Source buffer management ------------------*- C++ -*-===//
//
// Part of the Liberty LSS reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the source buffers of an LSS compilation and maps source locations
/// back to (buffer, line, column) triples for diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SUPPORT_SOURCEMGR_H
#define LIBERTY_SUPPORT_SOURCEMGR_H

#include <cstdint>
#include <string>
#include <vector>

namespace liberty {

/// A location inside a buffer registered with a SourceMgr.
///
/// Locations are compact (buffer id + byte offset) so tokens and AST nodes
/// can carry them cheaply. The invalid location is {0, 0}; real buffer ids
/// start at 1.
struct SourceLoc {
  uint32_t BufferId = 0;
  uint32_t Offset = 0;

  bool isValid() const { return BufferId != 0; }

  friend bool operator==(SourceLoc A, SourceLoc B) {
    return A.BufferId == B.BufferId && A.Offset == B.Offset;
  }
};

/// A (line, column) pair decoded from a SourceLoc; both are 1-based.
struct LineCol {
  unsigned Line = 0;
  unsigned Col = 0;
};

/// Owns source text and answers location queries.
class SourceMgr {
public:
  /// Registers \p Text under \p Name and returns the new buffer's id.
  uint32_t addBuffer(std::string Name, std::string Text);

  /// Returns the full text of buffer \p BufferId.
  const std::string &getBufferText(uint32_t BufferId) const;

  /// Returns the name buffer \p BufferId was registered under.
  const std::string &getBufferName(uint32_t BufferId) const;

  /// Decodes \p Loc into a 1-based line/column pair.
  LineCol getLineCol(SourceLoc Loc) const;

  /// Returns the text of the line containing \p Loc (without newline).
  std::string getLineText(SourceLoc Loc) const;

  /// Renders \p Loc as "name:line:col" for diagnostics.
  std::string getLocString(SourceLoc Loc) const;

private:
  struct Buffer {
    std::string Name;
    std::string Text;
    /// Byte offsets at which each line starts; computed on registration.
    std::vector<uint32_t> LineStarts;
  };

  const Buffer &getBuffer(uint32_t BufferId) const;

  std::vector<Buffer> Buffers;
};

} // namespace liberty

#endif // LIBERTY_SUPPORT_SOURCEMGR_H
