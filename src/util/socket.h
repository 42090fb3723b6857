// Thin RAII wrappers over POSIX TCP sockets (leaf utility — no
// dependencies above util/).
//
// The wire layer (src/net/) does all of its I/O through these classes
// so fd lifetime, partial writes, EINTR retries, SIGPIPE suppression,
// and close-on-exec hygiene are handled in exactly one place. Every fd
// is created with CLOEXEC (SOCK_CLOEXEC / accept4 / EFD_CLOEXEC): a
// daemon that ever exec()s a child must not leak its listener or a
// client's connection into it.
//
// Two I/O styles coexist:
//
//   * Blocking (ConnectTcp + SendAll / Recv) — what BlowfishClient and
//     the tests use: one thread, linear protocol state.
//   * Nonblocking (SendNb / RecvNb / TryAccept) — what the server's
//     epoll reactor uses: a would-block is a distinct outcome, never an
//     error, and no call ever parks the thread.

#ifndef BLOWFISH_UTIL_SOCKET_H_
#define BLOWFISH_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace blowfish {

/// Outcome of one nonblocking I/O attempt. kWouldBlock means "nothing
/// to do right now, re-arm and wait" — the reactor's steady state, not
/// a failure.
enum class IoResult {
  kOk,          // made progress (see the *n out-param)
  kWouldBlock,  // EAGAIN/EWOULDBLOCK
  kEof,         // peer closed cleanly (recv only)
  kError,       // transport failure; see the *error out-param
};

/// A connected (or accepted) stream socket. Move-only; closes on
/// destruction.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 = invalid).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Blocking TCP connect to a dotted-quad IPv4 address (the daemon
  /// binds numeric addresses; name resolution is out of scope). The fd
  /// is CLOEXEC.
  static StatusOr<Socket> ConnectTcp(const std::string& address,
                                     uint16_t port);

  /// Writes all of `len` bytes, blocking until done (retrying partial
  /// writes and EINTR). SIGPIPE is suppressed (MSG_NOSIGNAL) — a dead
  /// peer is an error return, never a process signal.
  Status SendAll(const void* data, size_t len);

  /// Reads up to `cap` bytes; returns 0 on clean EOF. Retries EINTR.
  StatusOr<size_t> Recv(void* buf, size_t cap);

  /// One nonblocking send attempt. kOk sets *n to the bytes the kernel
  /// accepted (> 0, possibly < len). Retries EINTR internally; never
  /// blocks (MSG_DONTWAIT regardless of the fd's flags).
  IoResult SendNb(const void* data, size_t len, size_t* n, Status* error);

  /// One nonblocking recv attempt. kOk sets *n (> 0); a clean peer
  /// close is kEof, not an error. Retries EINTR; never blocks.
  IoResult RecvNb(void* buf, size_t cap, size_t* n, Status* error);

  /// Half-closes the read side: later reads (Recv, RecvNb) see EOF, as
  /// if the peer had closed. The server's drain uses this to tell
  /// connections "finish the batch in flight, then stop".
  void ShutdownRead();

  /// Full shutdown: both directions. Used to simulate/force abrupt
  /// connection death.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

/// A bound, listening TCP socket.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens on a numeric IPv4 address. `port` 0 picks an
  /// ephemeral port; the resolved port is available via port(). The fd
  /// is CLOEXEC.
  static StatusOr<ListenSocket> BindTcp(const std::string& address,
                                        uint16_t port, int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  uint16_t port() const { return port_; }

  /// True for the accept(2) errnos that mean "this attempt failed but
  /// the listener is fine — try again shortly": fd exhaustion (EMFILE,
  /// ENFILE), kernel memory pressure (ENOBUFS, ENOMEM), and a
  /// connection that died in the backlog (ECONNABORTED, EPROTO). The
  /// historical bug this classifies away: treating any of these as
  /// fatal silently turns a live daemon into one that never accepts
  /// another connection.
  static bool IsTransientAcceptError(int errno_value);

  /// One nonblocking accept attempt (requires SetNonBlocking(true)).
  /// The accepted socket comes back nonblocking + CLOEXEC with
  /// TCP_NODELAY set. kError means transient (retry after backoff);
  /// after Shutdown() the result is kEof. `errno_out`, when non-null,
  /// receives the raw errno on kError/kEof.
  IoResult TryAccept(Socket* out, int* errno_out = nullptr);

  /// Toggles O_NONBLOCK on the listener.
  Status SetNonBlocking(bool on);

  /// Poisons the listener: every later TryAccept returns kEof.
  /// Idempotent.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// An eventfd the reactor threads sleep against: any thread Signal()s,
/// the owning epoll loop wakes and Drain()s. Nonblocking + CLOEXEC.
/// Coalescing is fine — N signals before a drain wake the loop once,
/// which then scans all its pending work.
class WakeupFd {
 public:
  /// Invalid until Create().
  WakeupFd() = default;
  ~WakeupFd() { Close(); }

  WakeupFd(WakeupFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  WakeupFd& operator=(WakeupFd&& other) noexcept;
  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  static StatusOr<WakeupFd> Create();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Wakes the poller. Async-signal-safe, callable from any thread.
  void Signal();

  /// Consumes all pending signals (call after epoll reports the fd
  /// readable, before processing queued work).
  void Drain();

  void Close();

 private:
  int fd_ = -1;
};

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_SOCKET_H_
