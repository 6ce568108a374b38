//===- DaemonProtocol.cpp - The lssd wire protocol ----------------------------===//

#include "driver/DaemonProtocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace liberty;
using namespace liberty::driver;

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

namespace {

/// Reads exactly \p N bytes (restarting on EINTR). Returns N on success, 0
/// on immediate clean EOF, -1 on error or short read.
ssize_t readFull(int Fd, char *Buf, size_t N) {
  size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R == 0)
      return Got == 0 ? 0 : -1;
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Got += size_t(R);
  }
  return ssize_t(N);
}

/// readFull with a wall-clock deadline: each read waits (via poll) at most
/// the remaining budget. Returns N on success, 0 on immediate clean EOF,
/// -1 on error, -2 on deadline expiry.
ssize_t readFullDeadline(int Fd, char *Buf, size_t N,
                         std::chrono::steady_clock::time_point Deadline) {
  size_t Got = 0;
  while (Got < N) {
    auto Now = std::chrono::steady_clock::now();
    if (Now >= Deadline)
      return -2;
    auto RemainMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline - Now)
            .count();
    pollfd PFd = {Fd, POLLIN, 0};
    int PR = ::poll(&PFd, 1, int(std::min<long long>(RemainMs, 60000)));
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (PR == 0)
      continue; // Re-check the deadline.
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R == 0)
      return Got == 0 ? 0 : -1;
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Got += size_t(R);
  }
  return ssize_t(N);
}

bool writeFull(int Fd, const char *Buf, size_t N) {
  size_t Sent = 0;
  while (Sent < N) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as EPIPE
    // (a clean `false` here), never as a process-killing SIGPIPE — the
    // library cannot assume every embedder ignores the signal.
    ssize_t W = ::send(Fd, Buf + Sent, N - Sent, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += size_t(W);
  }
  return true;
}

/// Decodes a frame's 4-byte big-endian length prefix, given what the
/// header read returned (readFull/readFullDeadline codes), and sizes
/// \p Payload for the body. Ok means the body is to be read next.
FrameStatus decodeFrameHeader(ssize_t R, const unsigned char *Hdr,
                              uint64_t MaxBytes, std::string &Payload) {
  if (R == 0)
    return FrameStatus::Eof;
  if (R == -2)
    return FrameStatus::Timeout;
  if (R < 0)
    return FrameStatus::Error;
  uint64_t Len = (uint64_t(Hdr[0]) << 24) | (uint64_t(Hdr[1]) << 16) |
                 (uint64_t(Hdr[2]) << 8) | uint64_t(Hdr[3]);
  if (Len > MaxBytes)
    return FrameStatus::TooLarge;
  Payload.resize(size_t(Len));
  return FrameStatus::Ok;
}

} // namespace

FrameStatus liberty::driver::readFrame(int Fd, std::string &Payload,
                                       uint64_t MaxBytes) {
  unsigned char Hdr[4];
  FrameStatus S = decodeFrameHeader(
      readFull(Fd, reinterpret_cast<char *>(Hdr), 4), Hdr, MaxBytes, Payload);
  if (S != FrameStatus::Ok || Payload.empty())
    return S;
  return readFull(Fd, Payload.data(), Payload.size()) ==
                 ssize_t(Payload.size())
             ? FrameStatus::Ok
             : FrameStatus::Error;
}

FrameStatus liberty::driver::readFrameDeadline(int Fd, std::string &Payload,
                                               uint64_t MaxBytes,
                                               uint64_t DeadlineMs,
                                               bool IdleDeadline) {
  if (DeadlineMs == 0)
    return readFrame(Fd, Payload, MaxBytes);
  unsigned char Hdr[4];
  // The deadline clock starts with the frame. Unless the caller also wants
  // the idle wait bounded, block (unbounded) for the first header byte,
  // then demand the rest of the frame within DeadlineMs.
  ssize_t R;
  auto FarFuture = std::chrono::steady_clock::now() + std::chrono::hours(24);
  if (IdleDeadline) {
    R = readFullDeadline(Fd, reinterpret_cast<char *>(Hdr), 4,
                         std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(DeadlineMs));
  } else {
    R = readFullDeadline(Fd, reinterpret_cast<char *>(Hdr), 1, FarFuture);
    if (R > 0) {
      ssize_t R2 = readFullDeadline(
          Fd, reinterpret_cast<char *>(Hdr) + 1, 3,
          std::chrono::steady_clock::now() +
              std::chrono::milliseconds(DeadlineMs));
      R = R2 == 3 ? 4 : (R2 == 0 ? -1 : R2);
    }
  }
  FrameStatus S = decodeFrameHeader(R, Hdr, MaxBytes, Payload);
  if (S != FrameStatus::Ok || Payload.empty())
    return S;
  ssize_t Body = readFullDeadline(Fd, Payload.data(), Payload.size(),
                                  std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(DeadlineMs));
  if (Body == -2)
    return FrameStatus::Timeout;
  return Body == ssize_t(Payload.size()) ? FrameStatus::Ok
                                         : FrameStatus::Error;
}

bool liberty::driver::writeFrame(int Fd, std::string_view Payload) {
  if (Payload.size() > 0xFFFFFFFFull)
    return false;
  unsigned char Hdr[4] = {
      (unsigned char)(Payload.size() >> 24),
      (unsigned char)(Payload.size() >> 16),
      (unsigned char)(Payload.size() >> 8),
      (unsigned char)(Payload.size()),
  };
  return writeFull(Fd, reinterpret_cast<char *>(Hdr), 4) &&
         writeFull(Fd, Payload.data(), Payload.size());
}

bool liberty::driver::writeMessage(int Fd, const Json &Msg) {
  return writeFrame(Fd, Msg.dump());
}

//===----------------------------------------------------------------------===//
// Socket helpers
//===----------------------------------------------------------------------===//

namespace {

std::string errnoString(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

/// Opens a Unix-domain stream socket and fills \p SA with the socket path
/// \p Path. Returns the fd, or -1 with \p Err filled (including when the
/// path does not fit in sun_path).
int openUnixSocket(const std::string &Path, sockaddr_un &SA,
                   std::string *Err) {
  std::memset(&SA, 0, sizeof(SA));
  SA.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(SA.sun_path)) {
    if (Err)
      *Err = "Unix socket path too long: '" + Path + "'";
    return -1;
  }
  std::memcpy(SA.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0 && Err)
    *Err = errnoString("socket");
  return Fd;
}

} // namespace

int liberty::driver::netListen(const std::string &Address, std::string *Err) {
  sockaddr_un SA;
  int Fd = openUnixSocket(Address, SA, Err);
  if (Fd < 0)
    return -1;
  ::unlink(Address.c_str()); // Stale socket from a crashed daemon.
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) < 0 ||
      ::listen(Fd, 64) < 0) {
    if (Err)
      *Err = errnoString("bind/listen") + " on '" + Address + "'";
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int liberty::driver::netConnect(const std::string &Address, std::string *Err) {
  sockaddr_un SA;
  int Fd = openUnixSocket(Address, SA, Err);
  if (Fd < 0)
    return -1;
  // Connect non-blocking: a Unix-domain connect completes at once or fails
  // (EAGAIN when the listener's backlog is full), so a saturated daemon
  // fails fast into the caller's retry loop instead of stalling it. The fd
  // is returned to blocking mode for frame I/O.
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) < 0) {
    if (Err)
      *Err = errnoString("connect") + " to '" + Address + "'";
    ::close(Fd);
    return -1;
  }
  ::fcntl(Fd, F_SETFL, Flags);
  return Fd;
}
