//===- ArtifactCache.h - Content-addressed compile artifacts ----*- C++ -*-===//
///
/// \file
/// The artifact store behind CompileService: a two-level (in-memory
/// segmented LRU + optional on-disk) cache of serialized phase artifacts,
/// addressed by (key, phase) where key is a CompilerInvocation phase
/// fingerprint and phase names the artifact kind ("elab" for LSSNL
/// netlists, "solve" for LSSSOL solutions).
///
/// The memory tier is an SLRU (Karedla, Love & Wherry, 1994): stores and
/// disk loads enter a probationary segment capped at a fifth of the
/// budget, and only a memory hit promotes an entry to the protected
/// segment. Eviction takes probation's oldest entry first, so a stream of
/// artifacts that are never read again (every edit is a fresh key) cycles
/// through probation without pushing out the reused ones.
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
  uint64_t MemoryHits = 0; ///< Hits served by the memory tier.
  uint64_t DiskHits = 0;   ///< Hits that had to read the disk entry.
  uint64_t Stores = 0;     ///< put() calls.
  uint64_t Evictions = 0;  ///< Memory-tier entries dropped by the budget.
  /// Evictions of entries that had no promoting hit since they were
  /// stored or loaded: memory that held an artifact nobody reused.
  uint64_t EvictionsUnused = 0;
  uint64_t Corrupt = 0;    ///< Disk entries rejected by validation.
  uint64_t BytesInMemory = 0;
  uint64_t BytesInProbation = 0; ///< The part of BytesInMemory on probation.
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
    /// Budget for in-memory payload bytes, both segments together.
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

  /// Probation holds at most MemoryBudgetBytes / ProbationShare bytes
  /// (unless its only entry is larger); protected holds the rest. Five is
  /// W-TinyLFU's 80/20 protected/probation split.
  static constexpr uint64_t ProbationShare = 5;

  /// Looks up (key, phase). On a hit fills \p Payload and returns true; a
  /// memory hit promotes the entry to the protected segment, and a disk
  /// hit is loaded into probation. If a disk entry fails validation, a
  /// one-line description is appended to \p Note (when non-null) and the
  /// lookup counts as a miss.
  bool get(const std::string &Key, const std::string &Phase,
           std::string &Payload, std::string *Note = nullptr);

  /// Decodes a payload into the caller's state; on rejection returns false
  /// and sets the reason. The payload is the lookup's own copy: a decoder
  /// that needs it later may move it out.
  using Decoder =
      std::function<bool(std::string &Payload, std::string &Reason)>;

  /// A lookup whose hit must also decode: the payload goes to \p Decode
  /// (outside the cache lock), and a payload Decode rejects makes the
  /// lookup a miss, with "ignoring unreadable cache entry for key K
  /// (phase): <reason>; recompiling" in \p Note. The entry is neither
  /// counted as corrupt nor quarantined — its envelope is valid — and the
  /// caller's recompile overwrites it.
  bool get(const std::string &Key, const std::string &Phase, std::string *Note,
           const Decoder &Decode);
  /// The note of a lookup whose payload the decoder rejected.
  static std::string unreadableNote(const std::string &Key,
                                    const std::string &Phase,
                                    const std::string &Reason);

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
  /// Memory, then disk; a hit promotes or loads the entry as get() says.
  /// Counts and quarantines corrupt disk entries but leaves hit/miss
  /// counting to countLookup. Lock held.
  bool lookup(const std::string &Key, const std::string &Phase,
              std::string &Payload, std::string *Note, bool &FromDisk);
  void countLookup(bool Hit, bool FromDisk);
  std::string diskPath(const std::string &Key, const std::string &Phase) const;

  /// MRU-first list of map keys; each entry sits in exactly one segment.
  using Segment = std::list<std::string>;
  struct Entry {
    std::string Payload;
    Segment::iterator Pos;
    bool Protected = false;
    /// Had a promoting hit since it was stored or loaded.
    bool Used = false;
  };
  using EntryMap = std::map<std::string, Entry>;

  /// Inserts at probation's MRU end and evicts down to budget. Lock held.
  void insertMemory(const std::string &MapKey, const std::string &Payload);
  /// Moves a memory hit to protected's MRU end, demoting protected's
  /// oldest entries to probation while protected is over its share. Lock
  /// held.
  void promote(EntryMap::iterator It);
  /// Evicts from probation's LRU end (protected's only once probation
  /// holds nothing but \p Keep) until probation is within its cap and the
  /// total within the budget. \p Keep, the entry just stored or promoted,
  /// is never a victim. Lock held.
  void evictToBudget(EntryMap::iterator Keep);
  /// Drops an entry from its segment, the byte counts and the map. Lock
  /// held.
  void erase(EntryMap::iterator It);
  uint64_t probationCap() const {
    return Opts.MemoryBudgetBytes / ProbationShare;
  }
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
  Segment Probation, Protected;
  EntryMap Entries;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_ARTIFACTCACHE_H
