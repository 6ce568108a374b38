//===- SourceMgr.cpp - Source buffer management ---------------------------===//

#include "support/SourceMgr.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace liberty;

uint32_t SourceMgr::addBuffer(std::string Name, std::string Text) {
  Buffer B;
  B.Name = std::move(Name);
  B.Text = std::move(Text);
  B.LineStarts.push_back(0);
  const char *Begin = B.Text.data(), *End = Begin + B.Text.size();
  for (const char *P = Begin; const void *NL = std::memchr(P, '\n', End - P);) {
    P = static_cast<const char *>(NL) + 1;
    B.LineStarts.push_back(uint32_t(P - Begin));
  }
  Buffers.push_back(std::move(B));
  return Buffers.size(); // Ids are 1-based.
}

const SourceMgr::Buffer &SourceMgr::getBuffer(uint32_t BufferId) const {
  assert(BufferId >= 1 && BufferId <= Buffers.size() && "bad buffer id");
  return Buffers[BufferId - 1];
}

const std::string &SourceMgr::getBufferText(uint32_t BufferId) const {
  return getBuffer(BufferId).Text;
}

const std::string &SourceMgr::getBufferName(uint32_t BufferId) const {
  return getBuffer(BufferId).Name;
}

LineCol SourceMgr::getLineCol(SourceLoc Loc) const {
  if (!Loc.isValid())
    return LineCol();
  const Buffer &B = getBuffer(Loc.BufferId);
  auto It = std::upper_bound(B.LineStarts.begin(), B.LineStarts.end(),
                             Loc.Offset);
  unsigned Line = It - B.LineStarts.begin(); // 1-based.
  uint32_t LineStart = B.LineStarts[Line - 1];
  return LineCol{Line, Loc.Offset - LineStart + 1};
}

std::string SourceMgr::getLineText(SourceLoc Loc) const {
  if (!Loc.isValid())
    return std::string();
  const Buffer &B = getBuffer(Loc.BufferId);
  LineCol LC = getLineCol(Loc);
  uint32_t Start = B.LineStarts[LC.Line - 1];
  uint32_t End = Start;
  while (End < B.Text.size() && B.Text[End] != '\n')
    ++End;
  return B.Text.substr(Start, End - Start);
}

std::string SourceMgr::getLocString(SourceLoc Loc) const {
  if (!Loc.isValid())
    return "<unknown>";
  LineCol LC = getLineCol(Loc);
  return getBufferName(Loc.BufferId) + ":" + std::to_string(LC.Line) + ":" +
         std::to_string(LC.Col);
}
