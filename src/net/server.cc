#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "methods/dispatch.h"
#include "objmodel/schema_printer.h"
#include "obs/obs.h"
#include "oracle/differential.h"

namespace tyder::net {

namespace {

bool LooksDegraded(const Status& s) {
  return s.code() == StatusCode::kFailedPrecondition &&
         s.message().find("read-only degraded mode") != std::string::npos;
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(storage::DurableCatalog* db,
                                              ServerOptions options) {
  if (db == nullptr)
    return Status::InvalidArgument("Server::Start: null catalog");
  if (options.workers < 1) options.workers = 1;
  if (options.max_connections < 1) options.max_connections = 1;
  if (options.queue_capacity < 1) options.queue_capacity = 1;

  std::unique_ptr<Server> server(new Server(db, options));
  TYDER_ASSIGN_OR_RETURN(server->listener_,
                         ListenLoopback(options.port, &server->port_));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  TYDER_RECORD_V(kMark, "net.server_start",
                 static_cast<int64_t>(server->port_));
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  {
    // Set under the gate's lock, where slot waiters test it, so none misses
    // the wake-up. Waiters give up and close their connections unanswered
    // — an indeterminate outcome by the protocol.
    std::lock_guard<std::mutex> lock(gate_mu_);
    stopping_.store(true, std::memory_order_release);
    gate_cv_.notify_all();
  }
  // Wake the tyderd main thread parked in WaitForShutdownRequest.
  shutdown_cv_.notify_all();

  // Accept next: no new connections, and nobody else touches the map.
  if (accept_thread_.joinable()) accept_thread_.join();

  // Stop reading: idle readers see EOF and exit at once; a request already
  // executing runs to completion and writes its response first.
  std::map<uint64_t, std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& [id, conn] : conns) {
    conn->fd.ShutdownRead();
    conn->reader.join();
  }
  TYDER_RECORD(kMark, "net.server_stop");
}

void Server::WaitForShutdownRequest() {
  // Polling wait (rather than a pure cv sleep) so an async-signal-context
  // RequestShutdown — which may only touch the atomic — is noticed too.
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  while (!shutdown_requested() &&
         !stopping_.load(std::memory_order_acquire)) {
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = n_accepted_.load();
  s.requests = n_requests_.load();
  s.shed = n_shed_.load();
  s.deadline_misses = n_deadline_misses_.load();
  s.disconnects = n_disconnects_.load();
  s.degraded_refusals = n_degraded_refusals_.load();
  s.response_write_failures = n_response_write_failures_.load();
  return s;
}

int Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return static_cast<int>(conns_.size());
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    // Short poll windows so Stop() is noticed without a wakeup pipe, and
    // seats of closed connections free up within one window.
    Result<Fd> accepted = Accept(listener_.get(), Deadline::AfterMs(100));
    JoinExitedReaders();
    if (!accepted.ok()) {
      if (IsTimeout(accepted.status())) continue;
      if (stopping_.load(std::memory_order_acquire)) break;
      TYDER_COUNT("net.accept_errors");
      continue;
    }
    n_accepted_.fetch_add(1);
    TYDER_COUNT("net.accepted");

    if (TYDER_FAULT_CONSUME("net.accept")) {
      // The accepted socket dies before the server can service it (FD
      // pressure, peer RST): drop it, keep accepting.
      TYDER_COUNT("net.accept_errors");
      TYDER_RECORD(kMark, "net.accept_fault");
      continue;  // ~Fd closes it
    }

    if (active_connections() >= options_.max_connections) {
      // Shed at the door: answer, don't stall. Best-effort write — the
      // client may already be gone.
      n_shed_.fetch_add(1);
      TYDER_COUNT("net.shed");
      TYDER_RECORD(kMark, "net.shed_conn");
      (void)WriteFrame(
          accepted->get(),
          EncodeResponse(RetryAfterResponse(options_.retry_after_ms)),
          Deadline::AfterMs(options_.write_timeout_ms));
      continue;
    }
    uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->id = id;
    conn->fd = std::move(*accepted);
    conn->reader = std::thread([this, c = conn.get()] { ReaderLoop(*c); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace(id, std::move(conn));
  }
}

void Server::JoinExitedReaders() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (!it->second->reader_done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    it->second->reader.join();  // returns at once: the reader is exiting
    it = conns_.erase(it);
  }
}

void Server::ReaderLoop(Connection& conn) {
  while (!stopping_.load(std::memory_order_acquire)) {
    // One deadline for the whole frame, so a peer trickling bytes is as
    // idle as a silent one.
    Deadline idle = options_.idle_timeout_ms == 0
                        ? Deadline::Infinite()
                        : Deadline::AfterMs(options_.idle_timeout_ms);
    Result<std::string> frame =
        ReadFrame(conn.fd.get(), idle, options_.max_frame_bytes);
    if (!frame.ok()) {
      if (IsTimeout(frame.status())) {
        TYDER_COUNT("net.idle_reaped");
        TYDER_RECORD_V(kMark, "net.idle_reaped",
                       static_cast<int64_t>(conn.id));
      } else if (!IsCleanClose(frame.status())) {
        TYDER_COUNT("net.frame_errors");
      }
      break;
    }

    Result<Request> request = ParseRequest(*frame);
    if (!request.ok()) {
      // The frame was intact (CRC passed); the stream stays synchronized,
      // so a malformed request earns an error, not a disconnect.
      if (!WriteResponse(conn, ErrResponse(request.status()))) break;
      continue;
    }

    if (TYDER_FAULT_CONSUME("net.conn.drop_mid_request")) {
      // The connection dies after the request was read but before it
      // executes: a definitive nack the client cannot observe.
      TYDER_RECORD_V(kMark, "net.drop_mid_request",
                     static_cast<int64_t>(conn.id));
      break;
    }

    std::optional<Response> response = Serve(*request);
    if (!response.has_value() || !WriteResponse(conn, *response)) break;
  }
  n_disconnects_.fetch_add(1);
  TYDER_COUNT("net.disconnects");
  TYDER_RECORD_V(kMark, "net.disconnect", static_cast<int64_t>(conn.id));
  // Shutdown, not close: Stop() may still be shutting the fd down from its
  // thread; the Connection destructor closes it after the join.
  conn.fd.ShutdownBoth();
  conn.reader_done.store(true, std::memory_order_release);
}

std::optional<Response> Server::Serve(const Request& request) {
  Deadline deadline = request.deadline_ms == 0
                          ? Deadline::Infinite()
                          : Deadline::AfterMs(request.deadline_ms);
  {
    std::unique_lock<std::mutex> lock(gate_mu_);
    if (running_ < options_.workers) {
      TYDER_RECORD_HIST("net.queue_depth", 0);
    } else if (waiting_ >= options_.queue_capacity) {
      lock.unlock();
      n_shed_.fetch_add(1);
      TYDER_COUNT("net.shed");
      TYDER_RECORD_V(kMark, "net.shed_queue",
                     static_cast<int64_t>(options_.queue_capacity));
      return RetryAfterResponse(options_.retry_after_ms);
    } else {
      ++waiting_;
      TYDER_RECORD_HIST("net.queue_depth", static_cast<int64_t>(waiting_));
      auto ready = [this] {
        return stopping_.load(std::memory_order_acquire) ||
               running_ < options_.workers;
      };
      if (deadline.infinite()) {
        gate_cv_.wait(lock, ready);
      } else {
        gate_cv_.wait_until(lock, deadline.at(), ready);
      }
      --waiting_;
    }
    if (stopping_.load(std::memory_order_acquire)) return std::nullopt;
    if (deadline.expired()) {
      // The budget ran out waiting for a slot: refuse before touching the
      // catalog.
      lock.unlock();
      n_deadline_misses_.fetch_add(1);
      TYDER_COUNT("net.deadline_misses");
      TYDER_RECORD(kMark, "net.deadline_miss");
      return DeadlineExceededResponse();
    }
    ++running_;
  }

  TYDER_SPAN("net.request");
  n_requests_.fetch_add(1);
  TYDER_COUNT("net.requests");
  auto start = std::chrono::steady_clock::now();
  Response response = Execute(request);
  TYDER_RECORD_HIST("net.request_ns",
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    --running_;
  }
  // notify_all, not notify_one: a waiter whose deadline passes as it wakes
  // gives up without taking the slot and must not swallow the only wake-up.
  gate_cv_.notify_all();
  return response;
}

bool Server::WriteResponse(Connection& conn, const Response& response) {
  if (TYDER_FAULT_CONSUME("net.write.response")) {
    // The client never hears about work that may already be durable — the
    // one indeterminate window the protocol admits. Close the connection so
    // the client sees a hard disconnect, not a hang.
    n_response_write_failures_.fetch_add(1);
    TYDER_COUNT("net.response_write_failures");
    TYDER_RECORD(kMark, "net.response_write_fault");
    return false;
  }
  Status written =
      WriteFrame(conn.fd.get(), EncodeResponse(response),
                 Deadline::AfterMs(options_.write_timeout_ms));
  if (written.ok()) return true;
  // Slow or dead reader: disconnect rather than wait on it.
  if (IsTimeout(written)) TYDER_COUNT("net.slow_reader_drops");
  n_response_write_failures_.fetch_add(1);
  TYDER_COUNT("net.response_write_failures");
  return false;
}

// --- command registry ------------------------------------------------------

Response Server::Execute(const Request& request) {
  const std::string& cmd = request.command;
  if (cmd == "ping") return OkResponse({"pong"});
  if (cmd == "health") return HandleHealth();
  if (cmd == "query") return HandleQuery(request);
  if (cmd == "project" || cmd == "select" || cmd == "generalize" ||
      cmd == "rename" || cmd == "drop" || cmd == "collapse" || cmd == "save")
    return HandleMutation(request);
  if (cmd == "verify") {
    // Differential oracle over the pinned snapshot: reads-only, safe (and
    // meaningful) even while degraded.
    EpochCatalog::Pin pin = db_->PinSnapshot();
    if (pin.get() == nullptr)
      return ErrResponse(Status::FailedPrecondition("no published epoch"));
    Status checked = oracle::CheckSchemaAgainstOracle(pin->schema());
    if (!checked.ok()) return ErrResponse(checked);
    return OkResponse({"oracle clean at epoch " +
                       std::to_string(pin.version())});
  }
  if (cmd == "reopen" || cmd == "fault" || cmd == "sleep" ||
      cmd == "shutdown")
    return HandleAdmin(request);
  return ErrResponse(
      Status::InvalidArgument("unknown command '" + cmd + "'"));
}

Response Server::HandleHealth() {
  EpochCatalog::Pin pin = db_->PinSnapshot();
  std::vector<std::string> body;
  body.push_back(std::string("status ") +
                 (db_->degraded_now() ? "degraded" : "ok"));
  body.push_back("lsn " + std::to_string(db_->last_lsn()));
  body.push_back("epoch " + std::to_string(pin.version()));
  body.push_back(
      "views " +
      std::to_string(pin.get() != nullptr ? pin->views().size() : 0));
  body.push_back("connections " + std::to_string(active_connections()));
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    body.push_back("queue " + std::to_string(waiting_));
  }
  return OkResponse(std::move(body));
}

Response Server::HandleQuery(const Request& request) {
  if (request.args.empty())
    return ErrResponse(Status::InvalidArgument(
        "query needs a subcommand: views | schema | subtype | dispatch"));
  EpochCatalog::Pin pin = db_->PinSnapshot();
  if (pin.get() == nullptr)
    return ErrResponse(Status::FailedPrecondition("no published epoch"));
  const Catalog& catalog = *pin;
  const std::string& sub = request.args[0];

  if (sub == "views") {
    std::vector<std::string> body;
    body.reserve(catalog.views().size());
    for (const ViewDef& view : catalog.views()) body.push_back(view.name);
    return OkResponse(std::move(body));
  }
  if (sub == "schema") {
    std::vector<std::string> body;
    std::string printed = PrintHierarchy(catalog.schema().types());
    size_t start = 0;
    while (start < printed.size()) {
      size_t nl = printed.find('\n', start);
      if (nl == std::string::npos) nl = printed.size();
      body.emplace_back(printed.substr(start, nl - start));
      start = nl + 1;
    }
    return OkResponse(std::move(body));
  }
  if (sub == "subtype") {
    if (request.args.size() != 3)
      return ErrResponse(
          Status::InvalidArgument("query subtype needs <TypeA> <TypeB>"));
    const TypeGraph& types = catalog.schema().types();
    auto a = types.FindType(request.args[1]);
    if (!a.ok()) return ErrResponse(a.status());
    auto b = types.FindType(request.args[2]);
    if (!b.ok()) return ErrResponse(b.status());
    return OkResponse({types.IsSubtype(*a, *b) ? "true" : "false"});
  }
  if (sub == "dispatch") {
    if (request.args.size() < 3)
      return ErrResponse(Status::InvalidArgument(
          "query dispatch needs <gf> <ArgType> [<ArgType>...]"));
    const Schema& schema = catalog.schema();
    std::vector<TypeId> arg_types;
    for (size_t i = 2; i < request.args.size(); ++i) {
      auto t = schema.types().FindType(request.args[i]);
      if (!t.ok()) return ErrResponse(t.status());
      arg_types.push_back(*t);
    }
    auto method = DispatchByName(schema, request.args[1], arg_types);
    if (!method.ok()) return ErrResponse(method.status());
    return OkResponse({schema.method(*method).label.str()});
  }
  return ErrResponse(
      Status::InvalidArgument("unknown query subcommand '" + sub + "'"));
}

Response Server::HandleMutation(const Request& request) {
  const std::string& cmd = request.command;
  const std::vector<std::string>& args = request.args;

  if (cmd == "project") {
    if (args.size() < 3 || args.size() > 4)
      return ErrResponse(Status::InvalidArgument(
          "project needs <View> <SourceType> <a,b,c> [noverify]"));
    ProjectionOptions options;
    if (args.size() == 4) {
      if (args[3] != "noverify")
        return ErrResponse(
            Status::InvalidArgument("unknown project flag '" + args[3] + "'"));
      options.verify = false;
    }
    auto view = db_->DefineProjectionView(args[0], args[1],
                                          SplitAndTrim(args[2], ','), options);
    if (!view.ok()) return MapMutationFailure(view.status());
    return OkResponse({"defined " + args[0]});
  }
  if (cmd == "select") {
    if (args.size() != 2)
      return ErrResponse(
          Status::InvalidArgument("select needs <View> <SourceType>"));
    auto view = db_->DefineSelectionView(args[0], args[1]);
    if (!view.ok()) return MapMutationFailure(view.status());
    return OkResponse({"defined " + args[0]});
  }
  if (cmd == "generalize") {
    if (args.size() != 3)
      return ErrResponse(
          Status::InvalidArgument("generalize needs <View> <TypeA> <TypeB>"));
    auto view = db_->DefineGeneralizationView(args[0], args[1], args[2]);
    if (!view.ok()) return MapMutationFailure(view.status());
    return OkResponse({"defined " + args[0]});
  }
  if (cmd == "rename") {
    if (args.size() != 3)
      return ErrResponse(Status::InvalidArgument(
          "rename needs <View> <SourceType> <old=new,...>"));
    std::vector<AttributeRename> renames;
    for (const std::string& pair : SplitAndTrim(args[2], ',')) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size())
        return ErrResponse(Status::InvalidArgument(
            "malformed rename '" + pair + "' (want old=new)"));
      renames.push_back({pair.substr(0, eq), pair.substr(eq + 1)});
    }
    auto view = db_->DefineRenameView(args[0], args[1], renames);
    if (!view.ok()) return MapMutationFailure(view.status());
    return OkResponse({"defined " + args[0]});
  }
  if (cmd == "drop") {
    if (args.size() != 1)
      return ErrResponse(Status::InvalidArgument("drop needs <View>"));
    Status dropped = db_->DropView(args[0]);
    if (!dropped.ok()) return MapMutationFailure(dropped);
    return OkResponse({"dropped " + args[0]});
  }
  if (cmd == "collapse") {
    auto report = db_->Collapse();
    if (!report.ok()) return MapMutationFailure(report.status());
    return OkResponse(
        {"collapsed " + std::to_string(report->collapsed.size())});
  }
  if (cmd == "save") {
    Status compacted = db_->Compact();
    if (!compacted.ok()) return MapMutationFailure(compacted);
    return OkResponse({"compacted at lsn " + std::to_string(db_->last_lsn())});
  }
  return ErrResponse(
      Status::Internal("unrouted mutation '" + cmd + "'"));
}

Response Server::MapMutationFailure(const Status& status) {
  if (LooksDegraded(status)) {
    // The typed degraded answer: reads still work, the cause is named, and
    // an admin reopen is the way out.
    n_degraded_refusals_.fetch_add(1);
    TYDER_COUNT("net.degraded_refusals");
    TYDER_RECORD(kMark, "net.degraded_refusal");
    return DegradedResponse(status.message());
  }
  return ErrResponse(status);
}

Response Server::HandleAdmin(const Request& request) {
  if (!options_.admin)
    return ErrResponse(Status::FailedPrecondition(
        "command '" + request.command +
        "' requires a server started with --admin"));
  const std::string& cmd = request.command;

  if (cmd == "reopen") {
    Status reopened = db_->Reopen();
    if (!reopened.ok()) return ErrResponse(reopened);
    return OkResponse({"recovered at lsn " + std::to_string(db_->last_lsn())});
  }
  if (cmd == "fault") {
    // Arms a registered fault point in-process — the chaos harness drives
    // net.* and storage.* failures through this instead of env vars so a
    // campaign can schedule faults mid-flight.
    if (request.args.size() != 2)
      return ErrResponse(
          Status::InvalidArgument("fault needs <point> <count>"));
    const std::vector<std::string>& known = failpoint::AllFaultPointNames();
    if (std::find(known.begin(), known.end(), request.args[0]) == known.end())
      return ErrResponse(Status::NotFound("unknown fault point '" +
                                          request.args[0] + "'"));
    int count = 0;
    try {
      count = std::stoi(request.args[1]);
    } catch (...) {
      return ErrResponse(Status::InvalidArgument("malformed fault count '" +
                                                 request.args[1] + "'"));
    }
    failpoint::Activate(request.args[0], count);
    return OkResponse({"armed " + request.args[0] + " x" + request.args[1]});
  }
  if (cmd == "sleep") {
    // Test/ops aid: holds an execution slot for a bounded time, for driving
    // the admission-control paths (slot-gate shed, deadline expiry) from
    // outside.
    if (request.args.size() != 1)
      return ErrResponse(Status::InvalidArgument("sleep needs <ms>"));
    int ms = 0;
    try {
      ms = std::stoi(request.args[0]);
    } catch (...) {
      return ErrResponse(
          Status::InvalidArgument("malformed sleep ms '" + request.args[0] +
                                  "'"));
    }
    ms = std::clamp(ms, 0, 5000);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return OkResponse({"slept " + std::to_string(ms)});
  }
  if (cmd == "shutdown") {
    shutdown_requested_.store(true, std::memory_order_release);
    shutdown_cv_.notify_all();
    return OkResponse({"shutting down"});
  }
  return ErrResponse(
      Status::Internal("unrouted admin command '" + cmd + "'"));
}

}  // namespace tyder::net
