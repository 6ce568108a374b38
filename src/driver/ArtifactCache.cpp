//===- ArtifactCache.cpp - Content-addressed compile artifacts ---------------===//

#include "driver/ArtifactCache.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <unistd.h>

using namespace liberty;
using namespace liberty::driver;

/// A temp name unique across processes sharing one cache dir: lssc and
/// lssd both write here, so PID + per-process counter + a random tag keep
/// concurrent writers from renaming each other's partial files.
static std::string uniqueTmpName(const std::string &Path) {
  static std::atomic<unsigned> TmpCounter{0};
  static const uint64_t ProcessTag = [] {
    std::random_device RD;
    return (uint64_t(RD()) << 32) ^ RD();
  }();
  return Path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(TmpCounter++) + "." + hex64(ProcessTag);
}

std::string ArtifactCache::diskPath(const std::string &Key,
                                    const std::string &Phase) const {
  return Opts.DiskDir + "/" + Key + "." + Phase + ".lssart";
}

void ArtifactCache::sweepDiskDir() {
  if (Opts.DiskDir.empty())
    return;
  std::error_code EC;
  std::filesystem::directory_iterator It(Opts.DiskDir, EC), End;
  if (EC)
    return; // Dir doesn't exist yet; nothing to sweep.
  auto Now = std::filesystem::file_time_type::clock::now();
  for (; It != End; It.increment(EC)) {
    if (EC)
      return;
    std::string Name = It->path().filename().string();
    if (Name.find(".lssart.tmp") == std::string::npos)
      continue;
    auto Written = std::filesystem::last_write_time(It->path(), EC);
    if (EC)
      continue;
    auto AgeSec =
        std::chrono::duration_cast<std::chrono::seconds>(Now - Written)
            .count();
    if (AgeSec < 0 || uint64_t(AgeSec) < Opts.TmpSweepAgeSeconds)
      continue; // Could be a live writer in another process.
    std::error_code RmEC;
    if (std::filesystem::remove(It->path(), RmEC) && !RmEC)
      ++Stats.TmpSwept;
  }
}

void ArtifactCache::erase(EntryMap::iterator It) {
  Entry &E = It->second;
  if (!E.Protected)
    Stats.BytesInProbation -= E.Payload.size();
  Stats.BytesInMemory -= E.Payload.size();
  (E.Protected ? Protected : Probation).erase(E.Pos);
  Entries.erase(It);
}

void ArtifactCache::insertMemory(const std::string &MapKey,
                                 const std::string &Payload) {
  auto It = Entries.find(MapKey);
  if (It != Entries.end())
    erase(It);
  Probation.push_front(MapKey);
  It = Entries.emplace(MapKey, Entry{Payload, Probation.begin()}).first;
  Stats.BytesInProbation += Payload.size();
  Stats.BytesInMemory += Payload.size();
  evictToBudget(It);
}

void ArtifactCache::promote(EntryMap::iterator It) {
  Entry &E = It->second;
  E.Used = true;
  if (E.Protected) {
    Protected.splice(Protected.begin(), Protected, E.Pos);
    return;
  }
  Protected.splice(Protected.begin(), Probation, E.Pos);
  E.Protected = true;
  Stats.BytesInProbation -= E.Payload.size();
  // Protected only grows here; what overflows its share goes back to
  // probation's MRU end, where it must be hit again to stay.
  while (Stats.BytesInMemory - Stats.BytesInProbation >
             Opts.MemoryBudgetBytes - probationCap() &&
         Protected.size() > 1) {
    Entry &D = Entries.find(Protected.back())->second;
    Probation.splice(Probation.begin(), Protected, D.Pos);
    D.Protected = false;
    Stats.BytesInProbation += D.Payload.size();
  }
  evictToBudget(It);
}

void ArtifactCache::evictToBudget(EntryMap::iterator Keep) {
  for (;;) {
    bool OverTotal = Stats.BytesInMemory > Opts.MemoryBudgetBytes;
    if (Stats.BytesInProbation <= probationCap() && !OverTotal)
      return;
    EntryMap::iterator Victim = Entries.end();
    if (!Probation.empty())
      Victim = Entries.find(Probation.back());
    // Probation's oldest is Keep only when Keep is all probation holds:
    // then only a budget overshoot reaches into protected.
    if ((Victim == Entries.end() || Victim == Keep) && OverTotal &&
        !Protected.empty())
      Victim = Entries.find(Protected.back());
    if (Victim == Entries.end() || Victim == Keep)
      return;
    ++Stats.Evictions;
    if (!Victim->second.Used)
      ++Stats.EvictionsUnused;
    erase(Victim);
  }
}

/// Parses and validates an LSSART envelope read from disk. Returns false
/// (with a reason) on any mismatch.
static bool openEnvelope(const std::string &Raw, const std::string &Phase,
                         std::string &Payload, std::string &Reason) {
  size_t NL = Raw.find('\n');
  if (NL == std::string::npos) {
    Reason = "missing envelope header";
    return false;
  }
  std::istringstream Header(Raw.substr(0, NL));
  std::string Magic, HPhase, HashHex;
  unsigned Version = 0;
  uint64_t Size = 0;
  if (!(Header >> Magic >> Version >> HPhase >> Size >> HashHex) ||
      Magic != "LSSART" || Version != 1) {
    Reason = "bad envelope header";
    return false;
  }
  if (HPhase != Phase) {
    Reason = "phase mismatch";
    return false;
  }
  std::string Body = Raw.substr(NL + 1);
  if (Body.size() != Size) {
    Reason = "payload size mismatch";
    return false;
  }
  if (hex64(fnv64(Body)) != HashHex) {
    Reason = "payload hash mismatch";
    return false;
  }
  Payload = std::move(Body);
  return true;
}

bool ArtifactCache::lookup(const std::string &Key, const std::string &Phase,
                           std::string &Payload, std::string *Note,
                           bool &FromDisk) {
  std::string MapKey = Key + "." + Phase;
  FromDisk = false;
  auto It = Entries.find(MapKey);
  if (It != Entries.end()) {
    Payload = It->second.Payload;
    promote(It);
    return true;
  }

  if (Opts.DiskDir.empty() || faultShouldFail("cache.disk.open_read"))
    return false;
  std::string Path = diskPath(Key, Phase);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Raw = SS.str();
  if (faultShouldFail("cache.disk.read"))
    Raw.resize(Raw.size() / 2); // Simulated short read.
  std::string Reason;
  if (openEnvelope(Raw, Phase, Payload, Reason)) {
    insertMemory(MapKey, Payload);
    FromDisk = true;
    return true;
  }
  ++Stats.Corrupt;
  // Quarantine the failing entry: move it aside so every later run doesn't
  // re-read and re-reject the same bytes. The recompile will publish a
  // fresh entry under the original name.
  In.close();
  std::error_code QEC;
  std::filesystem::rename(Path, Path + ".quarantined", QEC);
  if (!QEC)
    ++Stats.Quarantined;
  if (Note)
    *Note = "ignoring corrupted cache entry '" + Path + "' (" + Reason +
            "); recompiling";
  return false;
}

void ArtifactCache::countLookup(bool Hit, bool FromDisk) {
  if (!Hit) {
    ++Stats.Misses;
    return;
  }
  ++Stats.Hits;
  ++(FromDisk ? Stats.DiskHits : Stats.MemoryHits);
}

bool ArtifactCache::get(const std::string &Key, const std::string &Phase,
                        std::string &Payload, std::string *Note) {
  std::lock_guard<std::mutex> Lock(Mu);
  bool FromDisk;
  bool Hit = lookup(Key, Phase, Payload, Note, FromDisk);
  countLookup(Hit, FromDisk);
  return Hit;
}

bool ArtifactCache::get(const std::string &Key, const std::string &Phase,
                        std::string *Note, const Decoder &Decode) {
  std::string Payload;
  bool FromDisk, Hit;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Hit = lookup(Key, Phase, Payload, Note, FromDisk);
  }
  // Decoding runs unlocked: concurrent warm compiles must not serialize
  // on the cache.
  std::string Reason;
  if (Hit && !Decode(Payload, Reason)) {
    Hit = false;
    if (Note)
      *Note = unreadableNote(Key, Phase, Reason);
  }
  std::lock_guard<std::mutex> Lock(Mu);
  countLookup(Hit, FromDisk);
  return Hit;
}

std::string ArtifactCache::unreadableNote(const std::string &Key,
                                          const std::string &Phase,
                                          const std::string &Reason) {
  return "ignoring unreadable cache entry for key " + Key + " (" + Phase +
         "): " + Reason + "; recompiling";
}

bool ArtifactCache::writeDiskEntry(const std::string &Path,
                                   const std::string &Phase,
                                   const std::string &Payload) {
  std::error_code EC;
  std::filesystem::create_directories(Opts.DiskDir, EC);
  if (EC)
    return false;
  std::string Envelope = "LSSART 1 " + Phase + ' ' +
                         std::to_string(Payload.size()) + ' ' +
                         hex64(fnv64(Payload)) + '\n' + Payload;
  // Atomic publish: write a unique temp file, then rename over the final
  // name. Readers either see the old complete entry or the new one.
  std::string Tmp = uniqueTmpName(Path);
  if (faultShouldFail("cache.disk.open_write"))
    return false;
  std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  if (faultShouldFail("cache.disk.write")) {
    // Simulated crash mid-write: a truncated temp file stays behind for
    // the next startup sweep to collect.
    Out << Envelope.substr(0, Envelope.size() / 2);
    return false;
  }
  Out << Envelope;
  Out.close();
  if (!Out) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  if (faultShouldFail("cache.disk.rename")) {
    // Simulated torn publish: truncated bytes land at the *final* name.
    // The envelope checksum is what makes this recoverable — the next
    // reader rejects it, quarantines it, and recompiles.
    std::ofstream Torn(Path, std::ios::binary | std::ios::trunc);
    Torn << Envelope.substr(0, Envelope.size() / 2);
    Torn.close();
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  std::filesystem::rename(Tmp, Path, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  return true;
}

void ArtifactCache::put(const std::string &Key, const std::string &Phase,
                        const std::string &Payload) {
  std::string MapKey = Key + "." + Phase;
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.Stores;
  insertMemory(MapKey, Payload);

  if (Opts.DiskDir.empty() || DegradedMode)
    return;
  if (writeDiskEntry(diskPath(Key, Phase), Phase, Payload)) {
    ConsecutiveDiskFailures = 0;
    return;
  }
  ++Stats.DiskWriteFailures;
  if (++ConsecutiveDiskFailures >= Opts.DegradeAfterFailures) {
    DegradedMode = true;
    Stats.Degraded = true;
  }
}

CacheStats ArtifactCache::getStats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

bool ArtifactCache::isDegraded() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return DegradedMode;
}
