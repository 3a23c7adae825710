// Minimal loopback TCP plumbing for tyderd (net/server.h) and its client.
//
// Everything here is blocking-with-deadline: sockets stay in blocking mode
// and every read/write/accept first poll(2)s with a timeout derived from the
// caller's Deadline, so a slow or dead peer can never park a server thread
// forever — the poll expires, the caller gets a timeout status, and the
// admission-control layer decides whether that means "reap the connection"
// (idle client) or "shed the response" (slow reader backpressure).
//
// Deadlines are absolute (steady_clock) rather than per-call budgets so a
// request's budget naturally spans the read-parse-execute-respond pipeline:
// each stage polls with whatever is left, not with a fresh allowance.
//
// Only loopback is supported (tyderd is a local schema service, not an
// exposed network daemon); Listen binds 127.0.0.1 and port 0 picks an
// ephemeral port for tests.

#ifndef TYDER_NET_SOCKET_H_
#define TYDER_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"

namespace tyder::net {

// Absolute budget for one operation (or one request pipeline). Infinite()
// never expires; AfterMs(0) is already expired — a zero-deadline request is
// refused, not raced. A budget too large for steady_clock to represent
// (~292 years of nanoseconds, less the uptime) is Infinite().
class Deadline {
 public:
  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterMs(uint64_t ms);

  bool infinite() const { return !at_.has_value(); }
  bool expired() const {
    return at_.has_value() && std::chrono::steady_clock::now() >= *at_;
  }
  // The expiry instant; time_point::max() when infinite.
  std::chrono::steady_clock::time_point at() const {
    return at_.value_or(std::chrono::steady_clock::time_point::max());
  }
  // Remaining budget as a poll(2) timeout: -1 for infinite, else clamped to
  // [0, INT_MAX] milliseconds (0 == already expired: poll just probes).
  int PollTimeoutMs() const;
  // Remaining whole milliseconds (0 when expired; large when infinite).
  uint64_t RemainingMs() const;

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

// Owning file descriptor. Closing twice is a bug this guard makes
// unrepresentable; moved-from guards hold -1.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  // Half-close + full close from another thread wakes a blocked peer loop;
  // shutdown(2) is async-signal-safe with respect to concurrent poll.
  void ShutdownBoth();
  // Read side only: a blocked read sees EOF, writes still go through.
  void ShutdownRead();

 private:
  int fd_ = -1;
};

// Binds and listens on 127.0.0.1:`port` (0 = ephemeral); returns the socket
// and reports the actual port through `bound_port`.
Result<Fd> ListenLoopback(uint16_t port, uint16_t* bound_port);

// Accepts one connection, waiting until `deadline`. Timeout and EINTR are
// reported as statuses (see IsTimeout); callers loop.
Result<Fd> Accept(int listen_fd, Deadline deadline);

// Connects to 127.0.0.1:`port`, waiting at most until `deadline`.
Result<Fd> ConnectLoopback(uint16_t port, Deadline deadline);

// Blocks until `fd` is readable/writable or the deadline expires.
Status WaitReadable(int fd, Deadline deadline);
Status WaitWritable(int fd, Deadline deadline);

// True iff `s` is a deadline/idle expiry from this layer (as opposed to a
// real transport failure): the caller distinguishes "reap the idle client"
// from "the peer is gone".
bool IsTimeout(const Status& s);

}  // namespace tyder::net

#endif  // TYDER_NET_SOCKET_H_
