//===- lssd.cpp - The LSS compile daemon ----------------------------------------===//
///
/// Long-running compile server over driver::DaemonServer: one warm
/// content-addressed ArtifactCache shared by every client that connects
/// (`lssc --daemon ADDR`, CompileClient, or anything speaking the
/// docs/DAEMON.md protocol).
///
///   lssd --listen ADDR [options]
///
///   --listen ADDR        Unix-domain socket path to listen on
///   --cache-dir DIR      persist artifacts under DIR (shared with lssc)
///   --workers N          compiles run at once (0 = hardware threads)
///   --queue-bound N      admitted-but-unstarted request cap (default 64;
///                        0 = no queue, reject unless a compile slot is
///                        free)
///   --retry-after-ms N   backoff hint sent with queue_full rejections
///   --max-frame-bytes N  reject larger request frames as bad_frame
///   --verbose            log one line per request to stderr
///
/// Runs until a client sends `shutdown` or the process receives
/// SIGINT/SIGTERM; both paths drain: admitted compiles finish and answer
/// before the process exits. Exit codes follow lssc's convention: 0 clean
/// shutdown, 1 operational failure (bad address, bind failure), 2 usage.
///
//===----------------------------------------------------------------------===//

#include "driver/DaemonServer.h"

#include "driver/FlagParser.h"
#include "support/FaultInjection.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

using namespace liberty;

namespace {

volatile std::sig_atomic_t SignalledShutdown = 0;

void onSignal(int) { SignalledShutdown = 1; }

const char *const UsageSynopsis = "lssd --listen ADDR [options]";
const char *const UsageEpilog =
    "protocol and operations guide: docs/DAEMON.md\n";

/// lssd's flag table over the shared driver::FlagParser. The cache and
/// fault-injection flags come from the same add*Flags() declarations lssc
/// uses, so the two tools cannot drift.
void registerFlags(driver::FlagParser &P, driver::DaemonServer::Options &Opts,
                   std::string *FaultSpec) {
  P.string("--listen", "ADDR", &Opts.Address,
           "Unix-domain socket path to listen on");
  P.addCacheFlags(&Opts.Service.Cache.DiskDir, /*NoCache=*/nullptr);
  P.unsignedNum("--workers", "N", &Opts.Workers,
                "compiles run at once (0 = one per\n"
                "hardware thread)",
                "count");
  P.unsignedNum("--queue-bound", "N", &Opts.QueueBound,
                "admission queue bound (default 64)", "count");
  P.unsignedNum("--retry-after-ms", "N", &Opts.RetryAfterMs,
                "backoff hint on queue_full (default 50)", "duration",
                /*RequirePositive=*/true);
  P.unsignedNum("--max-frame-bytes", "N", &Opts.MaxFrameBytes,
                "request frame cap (default 64MiB)", "size",
                /*RequirePositive=*/true);
  P.unsignedNum("--read-deadline-ms", "N", &Opts.ReadDeadlineMs,
                "frame read deadline once a frame has\n"
                "started arriving (default 10000; 0\n"
                "disables)",
                "duration");
  P.addFaultInjectFlag(FaultSpec);
  P.boolean("--verbose", &Opts.Verbose, "log requests to stderr");
}

} // namespace

int main(int Argc, char **Argv) {
  FaultInjection::configureFromEnv();
  driver::DaemonServer::Options Opts;
  std::string FaultSpec;
  driver::FlagParser Parser("lssd");
  registerFlags(Parser, Opts, &FaultSpec);
  auto usage = [&] { Parser.printUsage(std::cerr, UsageSynopsis, UsageEpilog); };
  if (!Parser.parse(Argc, Argv, /*Positionals=*/nullptr)) {
    usage();
    return 2;
  }
  if (Parser.helpRequested()) {
    usage();
    return 0;
  }
  if (!FaultSpec.empty()) {
    std::string FErr;
    if (!FaultInjection::configure(FaultSpec, &FErr)) {
      std::fprintf(stderr, "lssd: bad --fault-inject spec: %s\n",
                   FErr.c_str());
      return 2;
    }
  }
  if (Opts.Address.empty()) {
    std::fprintf(stderr, "lssd: --listen ADDR is required\n");
    usage();
    return 2;
  }

  driver::DaemonServer Server(std::move(Opts));
  std::string Err;
  if (!Server.start(&Err)) {
    std::fprintf(stderr, "lssd: cannot listen: %s\n", Err.c_str());
    return 1;
  }
  // Announce readiness on stdout so wrappers can wait for the line.
  std::printf("lssd: ready on %s\n", Server.getOptions().Address.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // SIGPIPE would kill the process when a client vanishes mid-reply; the
  // write error is handled per-connection instead.
  std::signal(SIGPIPE, SIG_IGN);

  // The accept loop runs on its own thread; this thread only watches for
  // signal- or client-initiated shutdown, then drains.
  while (!Server.isShuttingDown() && !SignalledShutdown)
    ::usleep(100 * 1000);
  if (SignalledShutdown && Server.getOptions().Verbose)
    std::fprintf(stderr, "lssd: signal received; draining\n");
  Server.requestShutdown();
  Server.wait();
  return 0;
}
