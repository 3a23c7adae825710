// tyderd's serving core: a multi-client schema service over a
// DurableCatalog that stays correct and available under fault.
//
// Threading model. One accept thread and one reader thread per live
// connection. A connection carries ONE outstanding request at a time, and
// its reader executes that request itself and writes the response before
// reading the next frame, so responses never need correlation ids;
// concurrency comes from many connections and the group-commit window
// underneath them. A slot gate (one mutex + condvar) bounds how many
// requests execute at once (`workers`) and how many wait for a slot
// (`queue_capacity`). Waiters are not served in arrival order.
//
// Admission control — the server answers, it never stalls:
//   * accept with all max_connections seats taken → a RETRY_AFTER frame is
//     written to the new connection and it is closed;
//   * all slots busy and queue_capacity requests already waiting →
//     RETRY_AFTER on that request, connection stays up;
//   * request deadline (protocol.h) passes before a slot frees up →
//     DEADLINE_EXCEEDED, the request never touches the catalog;
//   * a connection that sends no complete frame for idle_timeout_ms is
//     closed (a request that is executing is never idle);
//   * a reader too slow to drain its response gets write_timeout_ms of
//     patience and is then disconnected (the slot is released before the
//     write, so backpressure never holds one).
//
// RETRY_AFTER and DEADLINE_EXCEEDED are definitive nacks (the catalog was
// not touched). A mutation that begins executing runs to completion even if
// its deadline lapses meanwhile — aborting a half-applied schema operation
// for latency would trade correctness for punctuality — so a late client
// may get an OK past its deadline, never a torn catalog.
//
// Graceful degradation. When the store drops into read-only degraded mode
// (storage/durable_catalog.h), mutations answer DEGRADED naming the original
// durability failure while ping/health/query keep serving off pinned epoch
// snapshots. The admin `reopen` command re-runs recovery in place with
// traffic still flowing.
//
// Fault points: net.accept (accepted socket dies), net.conn.drop_mid_request
// (connection killed after a request is read, before it executes),
// net.write.response (response write fails AFTER the mutation committed —
// the acked-but-unobserved window the chaos harness verifies), plus the
// frame-level net.read.* points (frame.h).
//
// Observability: net.* counters (accepted, requests, shed, deadline_misses,
// disconnects, response_write_failures, eintr_retries, frame_errors),
// net.queue_depth / net.request_ns histograms, a span per request, and
// flight-recorder marks on shed / degraded refusal / disconnect.

#ifndef TYDER_NET_SERVER_H_
#define TYDER_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/result.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "storage/durable_catalog.h"

namespace tyder::net {

struct ServerOptions {
  uint16_t port = 0;  // 0 = ephemeral (tests); port() reports the real one
  int max_connections = 64;
  size_t queue_capacity = 128;  // requests waiting for an execution slot
  int workers = 4;              // requests executing at once
  uint64_t idle_timeout_ms = 60'000;   // 0 = never reap
  uint64_t write_timeout_ms = 5'000;   // slow-reader patience
  uint64_t retry_after_ms = 50;        // hint sent with RETRY_AFTER
  size_t max_frame_bytes = kDefaultMaxFrame;
  // Enables reopen/fault/sleep/shutdown. tyderd sets this from --admin;
  // a non-admin server answers them with ERR FailedPrecondition.
  bool admin = false;
};

// Point-in-time copies of the server's own atomics (independent of the obs
// build mode, so tests assert on them directly).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t requests = 0;
  uint64_t shed = 0;              // RETRY_AFTER answers (door + slot gate)
  uint64_t deadline_misses = 0;   // DEADLINE_EXCEEDED answers
  uint64_t disconnects = 0;       // connections torn down for any reason
  uint64_t degraded_refusals = 0;
  uint64_t response_write_failures = 0;  // committed but never acked
};

class Server {
 public:
  // Starts listening and serving immediately. `db` must outlive the server.
  static Result<std::unique_ptr<Server>> Start(storage::DurableCatalog* db,
                                               ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }

  // Stops accepting and reading, closes the connections of requests still
  // waiting for a slot unanswered, lets executing requests finish and
  // answer, joins all threads. Idempotent.
  void Stop();

  // Blocks until an admin `shutdown` request arrives, RequestShutdown() is
  // called, or Stop() runs (tyderd's main thread parks here).
  void WaitForShutdownRequest();
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  // Flags shutdown without doing any teardown — a single atomic store, so
  // tyderd's signal handler may call it. WaitForShutdownRequest notices
  // within its poll tick.
  void RequestShutdown() {
    shutdown_requested_.store(true, std::memory_order_release);
  }

  ServerStats stats() const;
  int active_connections() const;

  // Executes one already-parsed request against the catalog — the command
  // registry, exposed for direct unit testing without sockets.
  Response Execute(const Request& request);

 private:
  struct Connection {
    uint64_t id = 0;
    Fd fd;
    std::thread reader;
    std::atomic<bool> reader_done{false};
  };

  Server(storage::DurableCatalog* db, ServerOptions options)
      : db_(db), options_(options) {}

  void AcceptLoop();
  void JoinExitedReaders();
  void ReaderLoop(Connection& conn);

  // Runs `request` under the slot gate. nullopt when the server stops while
  // the request waits; its connection then closes unanswered.
  std::optional<Response> Serve(const Request& request);

  // Writes `response` to the connection; false when it did not get through
  // (slow reader, injected response-write fault) and the connection must
  // close.
  bool WriteResponse(Connection& conn, const Response& response);

  // Command handlers (called from Execute).
  Response HandleQuery(const Request& request);
  Response HandleHealth();
  Response HandleMutation(const Request& request);
  Response HandleAdmin(const Request& request);
  Response MapMutationFailure(const Status& status);

  storage::DurableCatalog* db_;
  ServerOptions options_;
  uint16_t port_ = 0;
  Fd listener_;

  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  // Only the accept thread inserts and erases (Stop() after joining it).
  mutable std::mutex conns_mu_;
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  // The slot gate: requests executing (at most workers) and waiting for a
  // slot (at most queue_capacity).
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  int running_ = 0;
  size_t waiting_ = 0;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  std::atomic<bool> shutdown_requested_{false};

  // Server-local stat atomics (see ServerStats).
  std::atomic<uint64_t> n_accepted_{0}, n_requests_{0}, n_shed_{0},
      n_deadline_misses_{0}, n_disconnects_{0}, n_degraded_refusals_{0},
      n_response_write_failures_{0};
};

}  // namespace tyder::net

#endif  // TYDER_NET_SERVER_H_
