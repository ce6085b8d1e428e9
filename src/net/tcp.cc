#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/strings.h"

namespace hyperq {

namespace {

Status Errno(const char* what) {
  return NetworkError(StrCat(what, ": ", std::strerror(errno)));
}

constexpr const char kListenerClosedMsg[] = "accept: listener closed";

Status SetFdNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

}  // namespace

TcpConnection::~TcpConnection() { Close(); }

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpConnection> TcpConnection::Connect(const std::string& host,
                                             uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return NetworkError(StrCat("invalid address '", host, "'"));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Errno("connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(fd);
}

Status TcpConnection::SetNonBlocking(bool nonblocking) {
  return SetFdNonBlocking(fd_, nonblocking);
}

TcpConnection::IoOutcome TcpConnection::ReadSomeInto(uint8_t* dst,
                                                     size_t max, size_t* n,
                                                     Status* status) {
  *n = 0;
  if (FaultHit f = CheckFault("net.read");
      f.kind == FaultHit::Kind::kError) {
    *status = f.error;
    return IoOutcome::kError;
  }
  while (true) {
    ssize_t got = ::recv(fd_, dst, max, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoOutcome::kWouldBlock;
      }
      *status = Errno("recv");
      return IoOutcome::kError;
    }
    if (got == 0) return IoOutcome::kEof;
    *n = static_cast<size_t>(got);
    return IoOutcome::kOk;
  }
}

TcpConnection::IoOutcome TcpConnection::WriteSomeV(const IoSlice* slices,
                                                   size_t count,
                                                   size_t* idx, size_t* off,
                                                   Status* status) {
  if (FaultHit f = CheckFault("net.write"); f.kind != FaultHit::Kind::kNone) {
    if (f.kind == FaultHit::Kind::kError) {
      *status = f.error;
      return IoOutcome::kError;
    }
    // Short write: transmit a real prefix of what remains, then fail the
    // connection — identical contract to the blocking WriteAllV.
    size_t budget = f.short_len;
    for (size_t i = *idx; i < count && budget > 0; ++i) {
      size_t skip = i == *idx ? *off : 0;
      if (slices[i].len <= skip) continue;
      size_t want = std::min(budget, slices[i].len - skip);
      const uint8_t* p = static_cast<const uint8_t*>(slices[i].data) + skip;
      size_t sent = 0;
      while (sent < want) {
        ssize_t w = ::send(fd_, p + sent, want - sent, MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          break;  // best-effort prefix; the injected error wins anyway
        }
        sent += static_cast<size_t>(w);
      }
      budget -= want;
    }
    *status = NetworkError(
        StrCat("injected short write: ", f.short_len, "-byte prefix sent"));
    return IoOutcome::kError;
  }
  constexpr size_t kMaxIov = 64;
  iovec iov[kMaxIov];
  while (*idx < count) {
    size_t n_iov = 0;
    for (size_t j = *idx; j < count && n_iov < kMaxIov; ++j) {
      size_t skip = j == *idx ? *off : 0;
      if (slices[j].len <= skip) continue;
      iov[n_iov].iov_base =
          const_cast<uint8_t*>(static_cast<const uint8_t*>(slices[j].data)) +
          skip;
      iov[n_iov].iov_len = slices[j].len - skip;
      ++n_iov;
    }
    if (n_iov == 0) {  // only empty slices remained
      *idx = count;
      *off = 0;
      break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoOutcome::kWouldBlock;
      }
      *status = Errno("sendmsg");
      return IoOutcome::kError;
    }
    size_t done = static_cast<size_t>(n);
    while (*idx < count && done >= slices[*idx].len - *off) {
      done -= slices[*idx].len - *off;
      ++*idx;
      *off = 0;
    }
    *off += done;
  }
  return IoOutcome::kOk;
}

Status TcpConnection::WriteAll(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t cap = len;
  if (FaultHit f = CheckFault("net.write"); f.kind != FaultHit::Kind::kNone) {
    if (f.kind == FaultHit::Kind::kError) return f.error;
    // Short write: transmit a real prefix, then fail like a died peer —
    // the caller must treat the stream as broken, never patch over it.
    cap = std::min(cap, f.short_len);
  }
  size_t sent = 0;
  while (sent < cap) {
    ssize_t n = ::send(fd_, p + sent, cap - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return NetworkError("send timed out");
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  if (cap < len) {
    return NetworkError(StrCat("injected short write: ", cap, " of ", len,
                               " bytes sent"));
  }
  return Status::OK();
}

Status TcpConnection::WriteAllV(const IoSlice* slices, size_t count) {
  if (FaultHit f = CheckFault("net.write"); f.kind != FaultHit::Kind::kNone) {
    if (f.kind == FaultHit::Kind::kError) return f.error;
    // Short write across a scatter list: send a real prefix of the
    // concatenation, then fail the connection.
    size_t budget = f.short_len;
    for (size_t i = 0; i < count && budget > 0; ++i) {
      size_t n = std::min(budget, slices[i].len);
      const uint8_t* p = static_cast<const uint8_t*>(slices[i].data);
      size_t sent = 0;
      while (sent < n) {
        ssize_t w = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          return Errno("send");
        }
        sent += static_cast<size_t>(w);
      }
      budget -= n;
    }
    return NetworkError(
        StrCat("injected short write: ", f.short_len, "-byte prefix sent"));
  }
  // (slice index, offset into that slice) is the single write cursor; the
  // iovec window for each sendmsg is rebuilt from it, so short writes and
  // EINTR need no separate compaction pass.
  constexpr size_t kMaxIov = 64;
  iovec iov[kMaxIov];
  size_t i = 0;
  size_t off = 0;  // bytes of slices[i] already sent
  while (i < count) {
    size_t n_iov = 0;
    for (size_t j = i; j < count && n_iov < kMaxIov; ++j) {
      size_t skip = j == i ? off : 0;
      if (slices[j].len <= skip) continue;
      iov[n_iov].iov_base =
          const_cast<uint8_t*>(static_cast<const uint8_t*>(slices[j].data)) +
          skip;
      iov[n_iov].iov_len = slices[j].len - skip;
      ++n_iov;
    }
    if (n_iov == 0) break;  // only empty slices remained
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return NetworkError("send timed out");
      }
      return Errno("sendmsg");
    }
    size_t done = static_cast<size_t>(n);
    while (i < count && done >= slices[i].len - off) {
      done -= slices[i].len - off;
      ++i;
      off = 0;
    }
    off += done;
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> TcpConnection::ReadExact(size_t len) {
  std::vector<uint8_t> buf(len);
  HQ_RETURN_IF_ERROR(ReadExactInto(buf.data(), len));
  return buf;
}

Status TcpConnection::ReadExactInto(uint8_t* dst, size_t len) {
  if (FaultHit f = CheckFault("net.read");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd_, dst + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return NetworkError("recv timed out");
      }
      return Errno("recv");
    }
    if (n == 0) {
      return NetworkError(StrCat("peer closed connection after ", got,
                                 " of ", len, " bytes"));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> TcpConnection::ReadSome(size_t max) {
  if (FaultHit f = CheckFault("net.read");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }
  std::vector<uint8_t> buf(max);
  while (true) {
    ssize_t n = ::recv(fd_, buf.data(), max, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return NetworkError("recv timed out");
      }
      return Errno("recv");
    }
    buf.resize(static_cast<size_t>(n));
    return buf;
  }
}

void TcpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpListener> TcpListener::Listen(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Errno("bind");
  }
  // 512-deep accept backlog: a C10K bench opens thousands of connections in
  // a burst, far faster than a single dispatcher can drain 16 at a time.
  if (::listen(fd, 512) != 0) {
    ::close(fd);
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Errno("getsockname");
  }
  return TcpListener(fd, ntohs(addr.sin_port));
}

TcpListener::~TcpListener() { Close(); }

Result<TcpConnection> TcpListener::Accept() {
  while (true) {
    int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return NetworkError(kListenerClosedMsg);
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // Close() may race the accept(): the kernel then reports EBADF (fd
      // already closed) or EINVAL (no longer listening after shutdown).
      // Both mean orderly teardown, not a socket failure.
      if (fd_.load(std::memory_order_acquire) < 0 || errno == EBADF ||
          errno == EINVAL) {
        return NetworkError(kListenerClosedMsg);
      }
      return Errno("accept");
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpConnection(client);
  }
}

bool TcpListener::IsClosedError(const Status& status) {
  return status.message().find(kListenerClosedMsg) != std::string::npos;
}

Result<std::optional<TcpConnection>> TcpListener::TryAccept() {
  while (true) {
    int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return NetworkError(kListenerClosedMsg);
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return std::optional<TcpConnection>();
      }
      // ECONNABORTED: the peer gave up while queued — skip it, keep going.
      if (errno == ECONNABORTED) continue;
      if (fd_.load(std::memory_order_acquire) < 0 || errno == EBADF ||
          errno == EINVAL) {
        return NetworkError(kListenerClosedMsg);
      }
      return Errno("accept");
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::optional<TcpConnection>(TcpConnection(client));
  }
}

Status TcpListener::SetNonBlocking(bool nonblocking) {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return NetworkError(kListenerClosedMsg);
  return SetFdNonBlocking(fd, nonblocking);
}

void TcpListener::Close() {
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace hyperq
