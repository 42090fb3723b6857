#include "util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace blowfish {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

StatusOr<sockaddr_in> MakeAddress(const std::string& address,
                                  uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: '" +
                                   address + "'");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Socket> Socket::ConnectTcp(const std::string& address,
                                    uint16_t port) {
  BLOWFISH_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddress(address, port));
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return ErrnoStatus("socket");
  int rc;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return ErrnoStatus("connect to " + address + ":" +
                       std::to_string(port));
  }
  // Frames are small and latency-sensitive; never wait for Nagle.
  int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Status Socket::SendAll(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<size_t> Socket::Recv(void* buf, size_t cap) {
  while (true) {
    const ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return ErrnoStatus("recv");
  }
}

IoResult Socket::SendNb(const void* data, size_t len, size_t* n,
                        Status* error) {
  *n = 0;
  while (true) {
    const ssize_t rc = ::send(fd_, data, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (rc > 0) {
      *n = static_cast<size_t>(rc);
      return IoResult::kOk;
    }
    if (rc == 0) return IoResult::kWouldBlock;  // len == 0 only
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
    if (error != nullptr) *error = ErrnoStatus("send");
    return IoResult::kError;
  }
}

IoResult Socket::RecvNb(void* buf, size_t cap, size_t* n, Status* error) {
  *n = 0;
  while (true) {
    const ssize_t rc = ::recv(fd_, buf, cap, MSG_DONTWAIT);
    if (rc > 0) {
      *n = static_cast<size_t>(rc);
      return IoResult::kOk;
    }
    if (rc == 0) return IoResult::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
    if (error != nullptr) *error = ErrnoStatus("recv");
    return IoResult::kError;
  }
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

StatusOr<ListenSocket> ListenSocket::BindTcp(const std::string& address,
                                             uint16_t port, int backlog) {
  BLOWFISH_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddress(address, port));
  ListenSocket sock;
  sock.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock.fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(sock.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(sock.fd_, backlog) != 0) return ErrnoStatus("listen");
  // Resolve the kernel-assigned port when the caller asked for 0.
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(sock.fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return ErrnoStatus("getsockname");
  }
  sock.port_ = ntohs(bound.sin_port);
  return sock;
}

bool ListenSocket::IsTransientAcceptError(int errno_value) {
  switch (errno_value) {
    case EMFILE:        // process fd limit — frees up when fds close
    case ENFILE:        // system fd limit — likewise
    case ECONNABORTED:  // the pending connection died in the backlog
    case ENOBUFS:       // kernel buffer pressure
    case ENOMEM:        // kernel memory pressure
    case EPROTO:        // protocol error on the pending connection
      return true;
    default:
      return false;
  }
}

IoResult ListenSocket::TryAccept(Socket* out, int* errno_out) {
  while (true) {
    const int fd =
        ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      *out = Socket(fd);
      return IoResult::kOk;
    }
    if (errno == EINTR) continue;
    if (errno_out != nullptr) *errno_out = errno;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
    if (IsTransientAcceptError(errno)) return IoResult::kError;
    return IoResult::kEof;  // shutdown / fatal: stop accepting
  }
}

Status ListenSocket::SetNonBlocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd_, F_SETFL, want) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::OK();
}

void ListenSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WakeupFd& WakeupFd::operator=(WakeupFd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<WakeupFd> WakeupFd::Create() {
  WakeupFd wake;
  wake.fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake.fd_ < 0) return ErrnoStatus("eventfd");
  return wake;
}

void WakeupFd::Signal() {
  if (fd_ < 0) return;
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wake.
  ssize_t rc;
  do {
    rc = ::write(fd_, &one, sizeof(one));
  } while (rc < 0 && errno == EINTR);
}

void WakeupFd::Drain() {
  if (fd_ < 0) return;
  uint64_t count = 0;
  ssize_t rc;
  do {
    rc = ::read(fd_, &count, sizeof(count));
  } while (rc < 0 && errno == EINTR);
}

void WakeupFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace blowfish
