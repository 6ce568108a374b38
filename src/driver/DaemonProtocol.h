//===- DaemonProtocol.h - The lssd wire protocol ----------------*- C++ -*-===//
///
/// \file
/// Everything both ends of an `lssd` connection share: the protocol
/// version, the canonical message-type and error-code registries, the
/// driver::Json value every message is built from (driver/Json.h),
/// length-prefixed frame I/O, and the socket helpers that turn an address
/// path into a connected or listening file descriptor.
///
/// ## Framing
///
/// A frame is a 4-byte big-endian payload length followed by exactly that
/// many bytes of UTF-8 JSON (one object per frame). Lengths above the
/// receiver's frame cap are a protocol error: the receiver answers with an
/// `error` message (code `bad_frame`) and closes the connection without
/// reading the payload — an adversarial length can never force an
/// allocation.
///
/// ## Addresses
///
/// An address string is a Unix-domain socket path. The daemon trusts its
/// clients (they share a cache directory), so the transport stays
/// on-machine and no network transport is offered.
///
/// The full message schemas live in docs/DAEMON.md. The registries below
/// are the source of truth check_docs.sh lints that document against: a
/// message type or error code added here without a matching entry in the
/// doc fails the `check_docs` ctest.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_DAEMONPROTOCOL_H
#define LIBERTY_DRIVER_DAEMONPROTOCOL_H

#include "driver/Json.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace liberty {
namespace driver {

/// Bumped whenever a message type or field is added, or a frame or message
/// schema changes. The `hello` handshake carries the client's version; the
/// server refuses a mismatch with `version_mismatch` so a peer from
/// another build fails loud, not weird. Version 3 drops the `batch`
/// request and version 4 the `recompile` request, so an older client
/// cannot send them.
constexpr uint32_t DaemonProtocolVersion = 4;

/// Frames larger than this default cap are rejected as `bad_frame`
/// (DaemonServer::Options::MaxFrameBytes overrides).
constexpr uint64_t DaemonDefaultMaxFrameBytes = 64ull << 20;

/// The canonical message-type registry: every frame's "type" field is one
/// of these. check_docs.sh extracts the quoted names and requires each to
/// be documented in docs/DAEMON.md.
#define LSSD_MESSAGE_TYPES(X)                                                  \
  X(Hello, "hello")                                                            \
  X(HelloOk, "hello_ok")                                                       \
  X(Compile, "compile")                                                        \
  X(Result, "result")                                                          \
  X(Stats, "stats")                                                            \
  X(StatsResult, "stats_result")                                               \
  X(Shutdown, "shutdown")                                                      \
  X(ShutdownOk, "shutdown_ok")                                                 \
  X(Error, "error")

/// The canonical error-code registry (the "code" field of an `error`
/// message), linted against docs/DAEMON.md like the message types.
#define LSSD_ERROR_CODES(X)                                                    \
  X(BadFrame, "bad_frame")                                                     \
  X(BadMessage, "bad_message")                                                 \
  X(VersionMismatch, "version_mismatch")                                       \
  X(QueueFull, "queue_full")                                                   \
  X(ShuttingDown, "shutting_down")

namespace msg {
#define LSSD_DEFINE_MSG(Ident, Name) constexpr const char *Ident = Name;
LSSD_MESSAGE_TYPES(LSSD_DEFINE_MSG)
#undef LSSD_DEFINE_MSG
} // namespace msg

namespace errc {
#define LSSD_DEFINE_ERRC(Ident, Name) constexpr const char *Ident = Name;
LSSD_ERROR_CODES(LSSD_DEFINE_ERRC)
#undef LSSD_DEFINE_ERRC
} // namespace errc

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

enum class FrameStatus {
  Ok,       ///< A complete frame was read.
  Eof,      ///< The peer closed cleanly at a frame boundary.
  TooLarge, ///< Advertised length exceeds the cap (payload never read).
  Error,    ///< Short read/write or socket error.
  Timeout,  ///< A started frame stalled past the read deadline.
};

/// Reads one length-prefixed frame from \p Fd into \p Payload.
FrameStatus readFrame(int Fd, std::string &Payload, uint64_t MaxBytes);

/// Deadline-aware readFrame: once the first byte of a frame has arrived,
/// the rest must land within \p DeadlineMs or the read fails with
/// FrameStatus::Timeout (slow-loris protection). Waiting for a frame to
/// *start* is not bounded — an idle connection is legitimate — unless
/// \p IdleDeadline is true, which also bounds the wait for the first
/// byte (the client side: a response is always expected). DeadlineMs of 0
/// means no deadline.
FrameStatus readFrameDeadline(int Fd, std::string &Payload, uint64_t MaxBytes,
                              uint64_t DeadlineMs, bool IdleDeadline = false);

/// Writes one frame. Returns false on any short write.
bool writeFrame(int Fd, std::string_view Payload);

/// writeFrame of \p Msg serialized; the send side of every message.
bool writeMessage(int Fd, const Json &Msg);

//===----------------------------------------------------------------------===//
// Socket helpers
//===----------------------------------------------------------------------===//

/// Creates a listening socket on the Unix-domain socket path \p Address.
/// Returns the fd, or -1 with \p Err filled. The path is unlinked first:
/// a daemon restarting over a stale socket file must not fail to bind.
int netListen(const std::string &Address, std::string *Err);

/// Connects to the Unix-domain socket path \p Address without blocking on
/// a full listen backlog. Returns the fd (in blocking mode), or -1 with
/// \p Err filled.
int netConnect(const std::string &Address, std::string *Err);

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_DAEMONPROTOCOL_H
