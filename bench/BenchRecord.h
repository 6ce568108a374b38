//===- BenchRecord.h - The one writer of BENCH_*.json records ---*- C++ -*-===//
///
/// \file
/// Every bench that leaves a machine-readable record builds it as a
/// driver::Json value and writes it through writeRecord(), which prints
/// it with Json::writeIndented, reads the file back with Json::parse and
/// requires the caller's keys. A renamed or dropped field therefore fails
/// the run (and the bench_smoke ctest entry)
/// instead of silently changing the record's schema.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_BENCH_BENCHRECORD_H
#define LIBERTY_BENCH_BENCHRECORD_H

#include "driver/Json.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace liberty {
namespace bench {

/// Milliseconds of wall time since \p T0.
inline double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// The keys a record must carry: \p Top on the top-level object and, when
/// \p Array is set, \p Element on every element of that top-level array
/// (which must be present and non-empty).
struct RecordKeys {
  std::vector<std::string> Top;
  std::string Array = {};
  std::vector<std::string> Element = {};
};

namespace detail {
inline bool hasKeys(const driver::Json &Obj,
                    const std::vector<std::string> &Keys,
                    const std::string &Path, const std::string &Where) {
  for (const std::string &K : Keys)
    if (!Obj.get(K)) {
      std::fprintf(stderr, "%s: %s is missing \"%s\"\n", Path.c_str(),
                   Where.c_str(), K.c_str());
      return false;
    }
  return true;
}
} // namespace detail

/// Writes \p Record to \p Path and checks the file on disk against \p Keys.
/// Returns false (after a one-line message on stderr) when the file cannot
/// be written, does not parse, or lacks a required key.
inline bool writeRecord(const std::string &Path, const driver::Json &Record,
                        const RecordKeys &Keys) {
  {
    std::ofstream Out(Path);
    Record.writeIndented(Out);
    if (!Out) {
      std::fprintf(stderr, "%s: cannot write the record\n", Path.c_str());
      return false;
    }
  }
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  driver::Json Back;
  std::string Err;
  if (!driver::Json::parse(Text.str(), Back, &Err) || !Back.isObject()) {
    std::fprintf(stderr, "%s: not a JSON object: %s\n", Path.c_str(),
                 Err.c_str());
    return false;
  }
  if (!detail::hasKeys(Back, Keys.Top, Path, "the record"))
    return false;
  if (Keys.Array.empty())
    return true;
  const driver::Json *Arr = Back.get(Keys.Array);
  if (!Arr || !Arr->isArray() || Arr->items().empty()) {
    std::fprintf(stderr, "%s: \"%s\" is not a non-empty array\n",
                 Path.c_str(), Keys.Array.c_str());
    return false;
  }
  for (size_t I = 0; I != Arr->items().size(); ++I)
    if (!detail::hasKeys(Arr->items()[I], Keys.Element, Path,
                         Keys.Array + "[" + std::to_string(I) + "]"))
      return false;
  return true;
}

} // namespace bench
} // namespace liberty

#endif // LIBERTY_BENCH_BENCHRECORD_H
