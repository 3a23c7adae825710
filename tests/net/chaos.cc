#include "net/chaos.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "net/client.h"
#include "net/protocol.h"

namespace tyder::net {

namespace {

using Clock = std::chrono::steady_clock;

enum class Outcome { kAcked, kNacked, kIndeterminate };

// Per-worker slice of the campaign, merged after the threads join (names
// carry the worker index, so the ledgers are disjoint by construction).
struct WorkerState {
  ChaosReport report;
  std::vector<std::string> present;  // names this worker believes durable
};

// Connects (or reconnects after a transport failure) with patience: under
// an armed net.accept fault or a full connection table the first attempts
// may legitimately die.
bool EnsureConnected(std::optional<Client>& client, uint16_t port,
                     uint64_t* reconnects) {
  if (client.has_value() && client->connected()) return true;
  bool is_reconnect = client.has_value();
  for (int attempt = 0; attempt < 100; ++attempt) {
    Result<Client> fresh = Client::Connect(port, 1'000);
    if (fresh.ok()) {
      client.emplace(std::move(*fresh));
      if (is_reconnect && reconnects != nullptr) ++*reconnects;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// The heart of the ledger: what does this answer PROVE about durable state?
Outcome Classify(const Result<Response>& answer, bool storage_faults,
                 ChaosReport* report) {
  if (!answer.ok()) return Outcome::kIndeterminate;  // died mid-request
  switch (answer->kind) {
    case ResponseKind::kOk:
      return Outcome::kAcked;
    case ResponseKind::kRetryAfter:
      ++report->shed;
      return Outcome::kNacked;  // shed at admission: catalog untouched
    case ResponseKind::kDeadlineExceeded:
      ++report->deadline_exceeded;
      return Outcome::kNacked;  // expired awaiting a slot: catalog untouched
    case ResponseKind::kDegraded:
      ++report->degraded_refusals;
      return Outcome::kNacked;  // refused by the read-only gate
    case ResponseKind::kErr: {
      std::string_view message = answer->message();
      // These wordings are the storage layer's DEFINITIVE refusals (see
      // tests/storage/degraded_mode_test.cc's seam test).
      if (message.find("degraded") != std::string_view::npos ||
          message.find("stalled") != std::string_view::npos ||
          message.find("never written") != std::string_view::npos)
        return Outcome::kNacked;
      // Any other mutation error while a durability fault may be armed is
      // a poisoned-batch candidate: its bytes may sit in the WAL and be
      // replayed by the next recovery.
      return storage_faults ? Outcome::kIndeterminate : Outcome::kNacked;
    }
  }
  return Outcome::kIndeterminate;  // unreachable
}

void WorkerThread(const ChaosOptions& options, int index, Clock::time_point end,
                  WorkerState* state) {
  std::mt19937 rng(options.seed * 1000003u + static_cast<unsigned>(index));
  std::optional<Client> client;
  ChaosReport& report = state->report;

  for (int j = 0; j < options.ops_per_client && Clock::now() < end; ++j) {
    if (!EnsureConnected(client, options.port, &report.reconnects)) return;
    unsigned roll = rng() % 10;

    if (roll < 2) {
      // Read traffic: must keep answering even degraded; no ledger entry.
      ++report.attempted;
      auto answer = client->Call(roll == 0 ? "ping" : "query",
                                 roll == 0 ? std::vector<std::string>{}
                                           : std::vector<std::string>{"views"},
                                 options.deadline_ms);
      switch (Classify(answer, options.storage_faults, &report)) {
        case Outcome::kAcked: ++report.acked; break;
        case Outcome::kNacked: ++report.nacked; break;
        case Outcome::kIndeterminate: ++report.indeterminate; break;
      }
      continue;
    }

    if (roll < 8 || state->present.empty()) {
      // Create a uniquely-named view.
      std::string name = options.name_prefix + "_" + std::to_string(index) +
                         "_" + std::to_string(j);
      ++report.attempted;
      auto answer =
          client->Call("project", {name, options.source_type,
                                   options.attributes},
                       options.deadline_ms);
      switch (Classify(answer, options.storage_faults, &report)) {
        case Outcome::kAcked:
          ++report.acked;
          report.ledger[name] = Expect::kPresent;
          state->present.push_back(name);
          break;
        case Outcome::kNacked:
          ++report.nacked;
          report.ledger[name] = Expect::kAbsent;
          break;
        case Outcome::kIndeterminate:
          ++report.indeterminate;
          report.ledger[name] = Expect::kUnknown;
          break;
      }
      continue;
    }

    // Drop one of our own acked views.
    size_t pick = rng() % state->present.size();
    std::string name = state->present[pick];
    ++report.attempted;
    auto answer = client->Call("drop", {name}, options.deadline_ms);
    switch (Classify(answer, options.storage_faults, &report)) {
      case Outcome::kAcked:
        ++report.acked;
        report.ledger[name] = Expect::kAbsent;
        state->present.erase(state->present.begin() +
                             static_cast<long>(pick));
        break;
      case Outcome::kNacked:
        ++report.nacked;  // still present; may retry the drop later
        break;
      case Outcome::kIndeterminate:
        ++report.indeterminate;
        report.ledger[name] = Expect::kUnknown;
        state->present.erase(state->present.begin() +
                             static_cast<long>(pick));
        break;
    }
  }
}

// Arms faults and heals degradation over the admin channel while the
// workers run.
void SaboteurThread(const ChaosOptions& options, const std::atomic<bool>* done,
                    ChaosReport* report) {
  std::optional<Client> admin;
  size_t tick = 0;
  while (!done->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ++tick;
    // An armed net fault is as happy to eat the saboteur's own responses as
    // a worker's — arming net.write.response routinely tears THIS connection
    // the moment the ack is written (the arm itself still executed). So:
    // probe health before arming anything, and re-establish the connection
    // before every single admin action rather than once per tick.
    if (!EnsureConnected(admin, options.port, nullptr)) continue;
    auto health = admin->Call("health", {}, 1'000);
    if (health.ok() && health->ok() && !health->body.empty() &&
        health->body[0] == "status degraded") {
      auto reopened = admin->Call("reopen", {}, 5'000);
      if (reopened.ok() && reopened->ok()) ++report->degrade_cycles;
    }
    if (!options.fault_points.empty()) {
      if (!EnsureConnected(admin, options.port, nullptr)) continue;
      const std::string& point =
          options.fault_points[tick % options.fault_points.size()];
      (void)admin->Call("fault", {point, "1"}, 1'000);
    }
    if (options.storage_faults && tick % 4 == 0) {
      if (!EnsureConnected(admin, options.port, nullptr)) continue;
      (void)admin->Call("fault", {"storage.env.sync", "1"}, 1'000);
    }
  }
}

// Post-campaign settle: disarm everything, heal any residual degradation.
// A still-armed fault may eat our own round trips (an armed net.accept drops
// the admin connection itself), so every step retries, pausing between
// attempts, until one shared deadline; a failure names the last answer.
Status Settle(const ChaosOptions& options) {
  std::optional<Client> admin;
  std::vector<std::string> points = options.fault_points;
  if (options.storage_faults) points.push_back("storage.env.sync");
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  Result<Response> last = Status::Internal("no round trip attempted");
  auto call = [&](const std::string& command,
                  const std::vector<std::string>& args, uint64_t deadline_ms) {
    if (EnsureConnected(admin, options.port, nullptr)) {
      last = admin->Call(command, args, deadline_ms);
    } else {
      last = Status::Internal("cannot reconnect to server");
    }
    return last.ok() && last->ok();
  };
  auto give_up = [&](const std::string& what) {
    return Status::Internal(
        "chaos settle: " + what + "; last answer: " +
        (last.ok() ? EncodeResponse(*last) : last.status().ToString()));
  };

  for (const std::string& point : points) {
    while (!call("fault", {point, "0"}, 1'000)) {
      if (Clock::now() >= deadline) {
        return give_up("cannot disarm '" + point + "'");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  while (true) {
    if (call("health", {}, 1'000) && !last->body.empty()) {
      if (last->body[0] == "status ok") return Status::OK();
      (void)admin->Call("reopen", {}, 5'000);
    }
    if (Clock::now() >= deadline) {
      return give_up("store stuck degraded after reopens");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

Result<ChaosReport> RunChaosCampaign(const ChaosOptions& options) {
  if (options.port == 0)
    return Status::InvalidArgument("chaos: a server port is required");
  if (options.clients < 1)
    return Status::InvalidArgument("chaos: need at least one client");

  Clock::time_point end =
      Clock::now() + std::chrono::milliseconds(options.duration_ms);
  std::vector<WorkerState> states(static_cast<size_t>(options.clients));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(options.clients));
  for (int i = 0; i < options.clients; ++i) {
    workers.emplace_back(WorkerThread, std::cref(options), i, end,
                         &states[static_cast<size_t>(i)]);
  }

  std::atomic<bool> done{false};
  ChaosReport saboteur_report;
  std::thread saboteur(SaboteurThread, std::cref(options), &done,
                       &saboteur_report);

  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  saboteur.join();

  TYDER_RETURN_IF_ERROR(Settle(options));

  ChaosReport merged = std::move(saboteur_report);
  for (WorkerState& state : states) {
    ChaosReport& r = state.report;
    merged.attempted += r.attempted;
    merged.acked += r.acked;
    merged.nacked += r.nacked;
    merged.indeterminate += r.indeterminate;
    merged.shed += r.shed;
    merged.deadline_exceeded += r.deadline_exceeded;
    merged.degraded_refusals += r.degraded_refusals;
    merged.reconnects += r.reconnects;
    merged.ledger.insert(r.ledger.begin(), r.ledger.end());
  }
  return merged;
}

namespace {

// Right after a campaign the door can still be busy — a closed peer's seat
// frees up only when the accept loop joins its reader (within its 100 ms
// poll), and requests from dead clients still waiting for a slot take a
// moment to flush. A verifier is a well-behaved client: it honors
// RETRY_AFTER (and transient transport losses) with bounded patience.
Result<Response> CallWithRetry(std::optional<Client>& client, uint16_t port,
                               const std::string& command,
                               const std::vector<std::string>& args,
                               uint64_t deadline_ms) {
  Result<Response> answer = Status::Internal("chaos verify: never attempted");
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (!EnsureConnected(client, port, nullptr))
      return Status::Internal("chaos verify: cannot connect to server");
    answer = client->Call(command, args, deadline_ms);
    if (answer.ok() && answer->kind == ResponseKind::kRetryAfter) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<uint64_t>(
              answer->retry_after_ms, 10)));
      continue;
    }
    if (answer.ok()) return answer;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return answer;
}

}  // namespace

Status VerifyOverWire(uint16_t port, const ChaosReport& report) {
  std::optional<Client> client;

  auto health = CallWithRetry(client, port, "health", {}, 2'000);
  if (!health.ok()) return health.status();
  if (!health->ok() || health->body.empty() || health->body[0] != "status ok")
    return Status::Internal("chaos verify: server is not healthy: " +
                            std::string(health->message()));

  auto oracle = CallWithRetry(client, port, "verify", {}, 10'000);
  if (!oracle.ok()) return oracle.status();
  if (!oracle->ok())
    return Status::Internal("chaos verify: differential oracle rejected the "
                            "served schema: " +
                            std::string(oracle->message()));

  auto views = CallWithRetry(client, port, "query", {"views"}, 5'000);
  if (!views.ok()) return views.status();
  if (!views->ok())
    return Status::Internal("chaos verify: query views failed: " +
                            std::string(views->message()));
  std::set<std::string> served(views->body.begin(), views->body.end());

  for (const auto& [name, expect] : report.ledger) {
    bool present = served.count(name) > 0;
    if (expect == Expect::kPresent && !present)
      return Status::Internal("chaos verify: acked view '" + name +
                              "' is missing from the served catalog");
    if (expect == Expect::kAbsent && present)
      return Status::Internal("chaos verify: nacked view '" + name +
                              "' is present in the served catalog");
  }
  return Status::OK();
}

Status VerifyAgainstCatalog(const Catalog& catalog,
                            const ChaosReport& report) {
  for (const auto& [name, expect] : report.ledger) {
    bool present = catalog.FindView(name).ok();
    if (expect == Expect::kPresent && !present)
      return Status::Internal("chaos verify: acked view '" + name +
                              "' did not survive recovery");
    if (expect == Expect::kAbsent && present)
      return Status::Internal("chaos verify: nacked view '" + name +
                              "' reappeared after recovery");
  }
  return Status::OK();
}

}  // namespace tyder::net
