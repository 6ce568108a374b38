//===- DaemonProtocol.cpp - The lssd wire protocol ----------------------------===//

#include "driver/DaemonProtocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
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

bool liberty::driver::isUnixAddress(const std::string &Address) {
  if (Address.find('/') != std::string::npos)
    return true;
  return Address.size() > 5 &&
         Address.compare(Address.size() - 5, 5, ".sock") == 0;
}

namespace {

bool parsePort(const std::string &Address, uint16_t &Port, std::string *Err) {
  if (Address.empty() ||
      Address.find_first_not_of("0123456789") != std::string::npos) {
    if (Err)
      *Err = "invalid address '" + Address +
             "' (expected a Unix socket path or a localhost TCP port)";
    return false;
  }
  unsigned long V = std::strtoul(Address.c_str(), nullptr, 10);
  if (V > 65535) {
    if (Err)
      *Err = "TCP port " + Address + " out of range";
    return false;
  }
  Port = uint16_t(V);
  return true;
}

void fillUnixAddr(const std::string &Path, sockaddr_un &SA, bool &Ok,
                  std::string *Err) {
  std::memset(&SA, 0, sizeof(SA));
  SA.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(SA.sun_path)) {
    Ok = false;
    if (Err)
      *Err = "Unix socket path too long: '" + Path + "'";
    return;
  }
  std::memcpy(SA.sun_path, Path.c_str(), Path.size() + 1);
  Ok = true;
}

std::string errnoString(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

/// connect() with an optional wall-clock bound: non-blocking connect,
/// poll for writability, then SO_ERROR tells the truth. The fd is
/// returned to blocking mode on success. TimeoutMs of 0 blocks.
bool connectWithTimeout(int Fd, const sockaddr *SA, socklen_t Len,
                        uint64_t TimeoutMs, std::string *Err,
                        const std::string &Where) {
  if (TimeoutMs == 0) {
    if (::connect(Fd, SA, Len) < 0) {
      if (Err)
        *Err = errnoString("connect") + " to " + Where;
      return false;
    }
    return true;
  }
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  int RC = ::connect(Fd, SA, Len);
  if (RC < 0 && errno != EINPROGRESS) {
    if (Err)
      *Err = errnoString("connect") + " to " + Where;
    return false;
  }
  if (RC < 0) {
    pollfd PFd = {Fd, POLLOUT, 0};
    int PR;
    do {
      PR = ::poll(&PFd, 1, int(std::min<uint64_t>(TimeoutMs, 60000)));
    } while (PR < 0 && errno == EINTR);
    if (PR <= 0) {
      if (Err)
        *Err = "connect to " + Where + ": timed out after " +
               std::to_string(TimeoutMs) + " ms";
      return false;
    }
    int SoErr = 0;
    socklen_t SoLen = sizeof(SoErr);
    ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &SoLen);
    if (SoErr != 0) {
      if (Err)
        *Err = "connect to " + Where + ": " + std::strerror(SoErr);
      return false;
    }
  }
  ::fcntl(Fd, F_SETFL, Flags);
  return true;
}

} // namespace

int liberty::driver::netListen(const std::string &Address, int *BoundPort,
                               std::string *Err) {
  if (isUnixAddress(Address)) {
    sockaddr_un SA;
    bool Ok = false;
    fillUnixAddr(Address, SA, Ok, Err);
    if (!Ok)
      return -1;
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      if (Err)
        *Err = errnoString("socket");
      return -1;
    }
    ::unlink(Address.c_str()); // Stale socket from a crashed daemon.
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) < 0 ||
        ::listen(Fd, 64) < 0) {
      if (Err)
        *Err = errnoString("bind/listen") + " on '" + Address + "'";
      ::close(Fd);
      return -1;
    }
    if (BoundPort)
      *BoundPort = -1;
    return Fd;
  }

  uint16_t Port = 0;
  if (!parsePort(Address, Port, Err))
    return -1;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Err)
      *Err = errnoString("socket");
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sin_family = AF_INET;
  SA.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // Localhost only, by design.
  SA.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) < 0 ||
      ::listen(Fd, 64) < 0) {
    if (Err)
      *Err = errnoString("bind/listen") + " on localhost:" + Address;
    ::close(Fd);
    return -1;
  }
  if (BoundPort) {
    socklen_t Len = sizeof(SA);
    *BoundPort = ::getsockname(Fd, reinterpret_cast<sockaddr *>(&SA), &Len) == 0
                     ? ntohs(SA.sin_port)
                     : int(Port);
  }
  return Fd;
}

int liberty::driver::netConnect(const std::string &Address, std::string *Err,
                                uint64_t TimeoutMs) {
  if (isUnixAddress(Address)) {
    sockaddr_un SA;
    bool Ok = false;
    fillUnixAddr(Address, SA, Ok, Err);
    if (!Ok)
      return -1;
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      if (Err)
        *Err = errnoString("socket");
      return -1;
    }
    if (!connectWithTimeout(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA),
                            TimeoutMs, Err, "'" + Address + "'")) {
      ::close(Fd);
      return -1;
    }
    return Fd;
  }

  uint16_t Port = 0;
  if (!parsePort(Address, Port, Err))
    return -1;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Err)
      *Err = errnoString("socket");
    return -1;
  }
  sockaddr_in SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sin_family = AF_INET;
  SA.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  SA.sin_port = htons(Port);
  if (!connectWithTimeout(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA),
                          TimeoutMs, Err, "localhost:" + Address)) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}
