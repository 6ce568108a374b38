//===- ArtifactCache.h - Content-addressed compile artifacts ----*- C++ -*-===//
///
/// \file
/// The artifact store behind CompileService: a two-level (in-memory LRU +
/// optional on-disk) cache of serialized phase artifacts, addressed by
/// (key, phase) where key is a CompilerInvocation phase fingerprint and
/// phase names the artifact kind ("elab" for LSSNL netlists, "solve" for
/// LSSSOL solutions).
///
/// Disk entries are wrapped in a self-validating envelope
/// ("LSSART 1 <phase> <payload-bytes> <fnv64-hex>\n<payload>") and written
/// atomically (temp file + rename), so readers never observe a torn write
/// and a mutated or truncated entry is detected, counted as Corrupt,
/// reported through the optional note channel, and treated as a miss — the
/// caller recompiles and overwrites it. The cache is safe to share across
/// the threads of a batch compile.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_ARTIFACTCACHE_H
#define LIBERTY_DRIVER_ARTIFACTCACHE_H

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>

namespace liberty {
namespace driver {

/// Counters for `lssc --stats-json` ("cache" section) and tests.
struct CacheStats {
  /// get() calls satisfied (memory or disk) whose payload, when the
  /// caller decodes it, decoded.
  uint64_t Hits = 0;
  uint64_t Misses = 0;     ///< get() calls not satisfied.
  uint64_t MemoryHits = 0; ///< Hits served by the in-memory LRU.
  uint64_t DiskHits = 0;   ///< Hits that had to read the disk entry.
  uint64_t Stores = 0;     ///< put() calls.
  uint64_t Evictions = 0;  ///< In-memory entries dropped by the LRU budget.
  uint64_t Corrupt = 0;    ///< Disk entries rejected by validation.
  uint64_t BytesInMemory = 0;
  uint64_t TmpSwept = 0;   ///< Orphaned temp files deleted by the sweep.
  uint64_t Quarantined = 0; ///< Corrupt disk entries moved aside.
  uint64_t DiskWriteFailures = 0; ///< put() calls that failed to persist.
  bool Degraded = false;   ///< Disk gave up; running memory-only.
};

class ArtifactCache {
public:
  struct Options {
    /// Directory for persistent entries; empty = in-memory only. Created
    /// (with parents) on first store.
    std::string DiskDir;
    /// LRU budget for in-memory payload bytes.
    uint64_t MemoryBudgetBytes = 64ull << 20;
    /// The startup sweep only deletes orphaned temp files at least this
    /// old, so it can never race a live writer in another process that is
    /// about to rename its temp file. Tests set 0 to sweep everything.
    uint64_t TmpSweepAgeSeconds = 60;
    /// After this many *consecutive* disk write failures the cache stops
    /// touching the disk for writes (memory-only degraded mode; reads
    /// still work). A full or read-only cache dir must not slow every
    /// compile down with doomed write attempts.
    unsigned DegradeAfterFailures = 3;
  };

  ArtifactCache() = default;
  explicit ArtifactCache(Options O) : Opts(std::move(O)) { sweepDiskDir(); }

  /// Looks up (key, phase). On a hit fills \p Payload and returns true;
  /// disk hits are promoted into the memory LRU. If a disk entry fails
  /// validation, a one-line description is appended to \p Note (when
  /// non-null) and the lookup counts as a miss.
  bool get(const std::string &Key, const std::string &Phase,
           std::string &Payload, std::string *Note = nullptr);

  /// Decodes a payload into the caller's state; on rejection returns false
  /// and sets the reason.
  using Decoder =
      std::function<bool(const std::string &Payload, std::string &Reason)>;

  /// A lookup whose hit must also decode: the payload goes to \p Decode
  /// (outside the cache lock), and a payload Decode rejects makes the
  /// lookup a miss, with "ignoring unreadable cache entry for key K
  /// (phase): <reason>; recompiling" in \p Note. The entry is neither
  /// counted as corrupt nor quarantined — its envelope is valid — and the
  /// caller's recompile overwrites it.
  bool get(const std::string &Key, const std::string &Phase, std::string *Note,
           const Decoder &Decode);

  /// Stores a payload under (key, phase), in memory and — when a DiskDir
  /// is configured — on disk. Disk write failures never fail the compile
  /// (the cache is an accelerator, not a correctness dependency); they are
  /// counted, and enough consecutive ones trip memory-only degraded mode.
  void put(const std::string &Key, const std::string &Phase,
           const std::string &Payload);

  CacheStats getStats() const;

  const Options &getOptions() const { return Opts; }

  /// True once disk writes have been abandoned (see DegradeAfterFailures).
  bool isDegraded() const;

private:
  /// Memory, then disk. Counts and quarantines corrupt disk entries but
  /// leaves hit/miss counting to countLookup. Lock held.
  bool lookup(const std::string &Key, const std::string &Phase,
              std::string &Payload, std::string *Note, bool &FromDisk);
  void countLookup(bool Hit, bool FromDisk);
  std::string diskPath(const std::string &Key, const std::string &Phase) const;
  /// Inserts into the LRU and evicts down to budget. Lock held.
  void insertMemory(const std::string &MapKey, const std::string &Payload);
  /// Deletes orphaned `*.lssart.tmp*` files (older than the sweep age)
  /// left behind by a crashed writer. Runs once at construction.
  void sweepDiskDir();
  /// Writes the envelope to disk via temp+rename. Lock held. Returns
  /// false on any failure (including injected faults).
  bool writeDiskEntry(const std::string &Path, const std::string &Phase,
                      const std::string &Payload);

  Options Opts;
  mutable std::mutex Mu;
  CacheStats Stats;
  unsigned ConsecutiveDiskFailures = 0;
  bool DegradedMode = false;
  /// MRU-first list of map keys; Entries holds payload + LRU position.
  std::list<std::string> LruOrder;
  struct Entry {
    std::string Payload;
    std::list<std::string>::iterator LruIt;
  };
  std::map<std::string, Entry> Entries;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_ARTIFACTCACHE_H
