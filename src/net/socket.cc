#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <climits>

namespace tyder::net {

namespace {

constexpr const char* kTimeoutPrefix = "net: timed out";

Status Timeout(const char* what) {
  return Status::FailedPrecondition(std::string(kTimeoutPrefix) + " " + what);
}

Status Errno(const char* what) {
  return Status::Internal(std::string("net: ") + what + " failed: " +
                          strerror(errno));
}

// poll(2) one fd for `events`, honoring the deadline. OK == ready.
Status PollOne(int fd, short events, Deadline deadline, const char* what) {
  for (;;) {
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    int rc = poll(&p, 1, deadline.PollTimeoutMs());
    if (rc > 0) {
      // POLLERR/POLLHUP are "ready": the subsequent read/write surfaces the
      // real error (or EOF) with its errno.
      return Status::OK();
    }
    if (rc == 0) return Timeout(what);
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

}  // namespace

Deadline Deadline::AfterMs(uint64_t ms) {
  auto now = std::chrono::steady_clock::now();
  // now + ms would overflow the clock's signed nanoseconds (UB).
  auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::time_point::max() - now);
  if (ms >= static_cast<uint64_t>(room.count())) return Infinite();
  Deadline d;
  d.at_ = now + std::chrono::milliseconds(ms);
  return d;
}

int Deadline::PollTimeoutMs() const {
  if (!at_.has_value()) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  *at_ - std::chrono::steady_clock::now())
                  .count();
  if (left <= 0) return 0;
  if (left > INT_MAX) return INT_MAX;
  return static_cast<int>(left);
}

uint64_t Deadline::RemainingMs() const {
  int ms = PollTimeoutMs();
  if (ms < 0) return UINT64_MAX;
  return static_cast<uint64_t>(ms);
}

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Fd::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Fd::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

Result<Fd> ListenLoopback(uint16_t port, uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0)
    return Errno("bind");
  if (::listen(fd.get(), 64) != 0) return Errno("listen");

  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                      &len) != 0)
      return Errno("getsockname");
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

Result<Fd> Accept(int listen_fd, Deadline deadline) {
  TYDER_RETURN_IF_ERROR(PollOne(listen_fd, POLLIN, deadline, "accept"));
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Fd(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Result<Fd> ConnectLoopback(uint16_t port, Deadline deadline) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // Loopback connect either completes immediately or the listener's backlog
  // is full; a plain blocking connect with EINTR retry is enough — the
  // deadline guards the pathological case via SO_SNDTIMEO-free poll below.
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      break;
    if (errno == EINTR) {
      // The connect may have completed asynchronously; poll for writability
      // and check SO_ERROR.
      TYDER_RETURN_IF_ERROR(PollOne(fd.get(), POLLOUT, deadline, "connect"));
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0)
        return Errno("getsockopt");
      if (err != 0) {
        errno = err;
        return Errno("connect");
      }
      break;
    }
    return Errno("connect");
  }
  int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WaitReadable(int fd, Deadline deadline) {
  return PollOne(fd, POLLIN, deadline, "read");
}

Status WaitWritable(int fd, Deadline deadline) {
  return PollOne(fd, POLLOUT, deadline, "write");
}

bool IsTimeout(const Status& s) {
  return !s.ok() && s.message().rfind(kTimeoutPrefix, 0) == 0;
}

}  // namespace tyder::net
