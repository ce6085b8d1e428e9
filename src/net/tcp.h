#ifndef HYPERQ_NET_TCP_H_
#define HYPERQ_NET_TCP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace hyperq {

/// One gather-write fragment: WriteAllV sends a sequence of these with a
/// single sendmsg per batch, so a wire message assembled as header + arena
/// pieces + borrowed column payloads reaches the socket without being
/// concatenated first.
struct IoSlice {
  const void* data = nullptr;
  size_t len = 0;
};

/// Blocking TCP connection (kdb+ and PG both use TCP/IP, §3.1). Move-only
/// RAII wrapper over a socket descriptor.
class TcpConnection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connects to host:port (host is an IPv4 literal or "localhost").
  static Result<TcpConnection> Connect(const std::string& host,
                                       uint16_t port);

  /// Writes the whole buffer.
  Status WriteAll(const void* data, size_t len);
  Status WriteAll(const std::vector<uint8_t>& data) {
    return WriteAll(data.data(), data.size());
  }

  /// Scatter-gather write: sends every slice, in order, as if their
  /// concatenation had been passed to WriteAll, but without building the
  /// concatenation. Empty slices are permitted and skipped.
  Status WriteAllV(const IoSlice* slices, size_t count);
  Status WriteAllV(const std::vector<IoSlice>& slices) {
    return WriteAllV(slices.data(), slices.size());
  }

  /// Reads exactly `len` bytes (blocks until received or the peer closes).
  Result<std::vector<uint8_t>> ReadExact(size_t len);

  /// Like ReadExact but fills caller-owned memory — the per-connection
  /// read-buffer reuse primitive (no allocation per message).
  Status ReadExactInto(uint8_t* dst, size_t len);

  /// Reads at most `max` bytes; empty result means orderly shutdown.
  Result<std::vector<uint8_t>> ReadSome(size_t max);

  /// Switches the socket to non-blocking mode (O_NONBLOCK) for use on an
  /// epoll event loop. The blocking Read*/Write* calls above then surface
  /// empty sockets as "timed out" errors; event-driven callers use the
  /// *Some primitives below instead.
  Status SetNonBlocking(bool nonblocking);

  /// Non-blocking read outcome: distinguishes "nothing buffered right now"
  /// (kWouldBlock) from orderly shutdown (kEof) and real errors.
  enum class IoOutcome { kOk, kWouldBlock, kEof, kError };

  /// Reads at most `max` bytes into caller memory without blocking.
  /// Returns kOk with *n > 0, kWouldBlock (*n == 0), kEof on peer close,
  /// or kError (*status carries the errno text; also used for injected
  /// `net.read` faults).
  IoOutcome ReadSomeInto(uint8_t* dst, size_t max, size_t* n,
                         Status* status);

  /// Non-blocking scatter write: sends as much of slices[idx..] (starting
  /// `off` bytes into slices[idx]) as the socket accepts, advancing the
  /// (*idx, *off) cursor in place. Returns kOk when everything was
  /// written, kWouldBlock when the socket buffer filled (resume on
  /// EPOLLOUT), or kError. Injected `net.write` faults surface here
  /// exactly as on the blocking path: error, or a transmitted prefix
  /// followed by an error.
  IoOutcome WriteSomeV(const IoSlice* slices, size_t count, size_t* idx,
                       size_t* off, Status* status);

  void Close();
  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  int fd_;
};

/// Listening socket bound to 127.0.0.1; port 0 picks an ephemeral port.
class TcpListener {
 public:
  static Result<TcpListener> Listen(uint16_t port);
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_.exchange(-1)), port_(other.port_) {}
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Blocks until a client connects. Fails with the distinguished
  /// "listener closed" NetworkError after Close() — including the benign
  /// EBADF/EINVAL the kernel reports when the descriptor is torn down
  /// mid-accept — so shutdown never logs as a real accept failure.
  Result<TcpConnection> Accept();

  /// True when `status` is Accept()/TryAccept() reporting an orderly
  /// Close() rather than a genuine socket failure.
  static bool IsClosedError(const Status& status);

  /// Non-blocking accept for the event loop: returns a connection, or an
  /// empty optional when no client is pending (EAGAIN). The listener must
  /// have been put in non-blocking mode with SetNonBlocking().
  Result<std::optional<TcpConnection>> TryAccept();

  /// Switches the listening socket to non-blocking mode.
  Status SetNonBlocking(bool nonblocking);

  int fd() const { return fd_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  /// Safe to call from a thread other than the one blocked in Accept():
  /// exactly one closer wins the descriptor, and shutdown() wakes the
  /// accepting thread with an error.
  void Close();

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  std::atomic<int> fd_;
  uint16_t port_;
};

}  // namespace hyperq

#endif  // HYPERQ_NET_TCP_H_
