// End-to-end contract of the tyderd serving core (net/server.h): command
// registry, admission control (door shed, slot-gate shed, deadlines, idle
// reaping), shutdown, admin gating, and degraded-mode serving — all over
// real loopback sockets against a real DurableCatalog.

#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "net/client.h"
#include "storage/durable_catalog.h"
#include "testing/fixtures.h"

namespace tyder::net {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// One seeded store + one running server per test.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(const std::string& name, ServerOptions options = {}) {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    dir_ = (fs::temp_directory_path() / ("tyder_server_test_" + name)).string();
    fs::remove_all(dir_);
    auto opened = storage::DurableCatalog::Open(dir_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    db_.emplace(std::move(*opened));
    ASSERT_TRUE(db_->Seed(Catalog(std::move(fx->schema))).ok());
    options.admin = admin_;
    auto server = Server::Start(&*db_, options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  Client MustConnect() {
    auto client = Client::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    failpoint::DeactivateAll();
  }

  bool admin_ = true;
  std::string dir_;
  std::optional<storage::DurableCatalog> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingAndHealth) {
  StartServer("ping");
  Client client = MustConnect();

  auto pong = client.Call("ping");
  ASSERT_TRUE(pong.ok()) << pong.status();
  ASSERT_TRUE(pong->ok()) << pong->message();
  EXPECT_EQ(pong->message(), "pong");

  auto health = client.Call("health");
  ASSERT_TRUE(health.ok() && health->ok());
  ASSERT_FALSE(health->body.empty());
  EXPECT_EQ(health->body[0], "status ok");
}

TEST_F(ServerTest, MutationsAndQueriesShareOneCatalog) {
  StartServer("mutate");
  Client client = MustConnect();

  auto defined = client.Call(
      "project", {"EmpView", "Employee", "SSN,date_of_birth,pay_rate"});
  ASSERT_TRUE(defined.ok()) << defined.status();
  ASSERT_TRUE(defined->ok()) << defined->message();

  auto views = client.Call("query", {"views"});
  ASSERT_TRUE(views.ok() && views->ok());
  ASSERT_EQ(views->body.size(), 1u);
  EXPECT_EQ(views->body[0], "EmpView");

  // The derived view type joined the hierarchy: Employee <= EmpView.
  auto sub = client.Call("query", {"subtype", "Employee", "EmpView"});
  ASSERT_TRUE(sub.ok() && sub->ok()) << sub.status();
  EXPECT_EQ(sub->message(), "true");

  auto dispatch = client.Call("query", {"dispatch", "income", "Employee"});
  ASSERT_TRUE(dispatch.ok() && dispatch->ok()) << dispatch.status();
  EXPECT_EQ(dispatch->message(), "income");

  // A generalization of two served types projects the first onto the
  // attributes both carry (here SSN and date_of_birth), so the first and its
  // subtypes sit under it, and `age`, which reads only date_of_birth,
  // dispatches on it.
  auto general = client.Call("generalize", {"GenView", "EmpView", "Person"});
  ASSERT_TRUE(general.ok()) << general.status();
  ASSERT_TRUE(general->ok()) << general->message();
  EXPECT_EQ(general->message(), "defined GenView");
  for (const char* sub : {"EmpView", "Employee"}) {
    auto above = client.Call("query", {"subtype", sub, "GenView"});
    ASSERT_TRUE(above.ok() && above->ok()) << above.status();
    EXPECT_EQ(above->message(), "true") << sub;
  }
  auto on_view = client.Call("query", {"dispatch", "age", "GenView"});
  ASSERT_TRUE(on_view.ok() && on_view->ok()) << on_view.status();
  EXPECT_EQ(on_view->message(), "age");

  auto collapsed = client.Call("collapse");
  ASSERT_TRUE(collapsed.ok()) << collapsed.status();
  ASSERT_TRUE(collapsed->ok()) << collapsed->message();
  EXPECT_EQ(collapsed->message().substr(0, 10), "collapsed ");

  auto oracle = client.Call("verify");
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_TRUE(oracle->ok()) << oracle->message();

  auto health = client.Call("health");
  ASSERT_TRUE(health.ok() && health->ok()) << health.status();
  ASSERT_FALSE(health->body.empty());
  EXPECT_EQ(health->body[0], "status ok");
  EXPECT_NE(std::find(health->body.begin(), health->body.end(), "views 2"),
            health->body.end());

  // A second client sees the same published epoch.
  Client other = MustConnect();
  auto again = other.Call("query", {"views"});
  ASSERT_TRUE(again.ok() && again->ok());
  EXPECT_EQ(again->body, (std::vector<std::string>{"EmpView", "GenView"}));
}

TEST_F(ServerTest, ErrorsAreAnswersNotDisconnects) {
  StartServer("errors");
  Client client = MustConnect();

  auto unknown = client.Call("frobnicate");
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(unknown->kind, ResponseKind::kErr);
  EXPECT_EQ(unknown->code, StatusCode::kInvalidArgument);

  auto missing = client.Call("query", {"subtype", "Ghost", "Person"});
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->kind, ResponseKind::kErr);
  EXPECT_EQ(missing->code, StatusCode::kNotFound);

  // The connection survived both errors.
  auto pong = client.Call("ping");
  ASSERT_TRUE(pong.ok() && pong->ok());
}

TEST_F(ServerTest, MalformedRequestEarnsErrOnALiveConnection) {
  StartServer("malformed");
  auto fd = ConnectLoopback(server_->port(), Deadline::AfterMs(2000));
  ASSERT_TRUE(fd.ok()) << fd.status();

  // The frame is intact (CRC passes) but the payload is not tyder1.
  ASSERT_TRUE(
      WriteFrame(fd->get(), "HELO world", Deadline::AfterMs(2000)).ok());
  auto answer = ReadFrame(fd->get(), Deadline::AfterMs(2000));
  ASSERT_TRUE(answer.ok()) << answer.status();
  auto parsed = ParseResponse(*answer);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, ResponseKind::kErr);

  // Stream still synchronized: a well-formed request now succeeds.
  Request ping;
  ping.command = "ping";
  ASSERT_TRUE(
      WriteFrame(fd->get(), EncodeRequest(ping), Deadline::AfterMs(2000))
          .ok());
  auto pong = ReadFrame(fd->get(), Deadline::AfterMs(2000));
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(ParseResponse(*pong)->ok());
}

TEST_F(ServerTest, AdminCommandsNeedTheAdminFlag) {
  admin_ = false;
  StartServer("noadmin");
  Client client = MustConnect();
  for (const char* cmd : {"reopen", "fault", "sleep", "shutdown"}) {
    auto refused = client.Call(cmd);
    ASSERT_TRUE(refused.ok()) << refused.status();
    EXPECT_EQ(refused->kind, ResponseKind::kErr) << cmd;
    EXPECT_EQ(refused->code, StatusCode::kFailedPrecondition) << cmd;
    EXPECT_NE(refused->message().find("--admin"), std::string_view::npos);
  }
  EXPECT_FALSE(server_->shutdown_requested());
}

TEST_F(ServerTest, ExpiredDeadlineIsRefusedBeforeTouchingTheCatalog) {
  ServerOptions options;
  options.workers = 1;
  StartServer("deadline", options);

  // Occupy the only execution slot, then send a tightly-budgeted mutation:
  // it waits for the slot, its budget runs out first, and the catalog must
  // not have been touched.
  std::atomic<bool> blocker_done{false};
  std::thread blocker([this, &blocker_done] {
    Client client = MustConnect();
    auto slept = client.Call("sleep", {"400"});
    EXPECT_TRUE(slept.ok() && slept->ok());
    blocker_done.store(true);
  });
  std::this_thread::sleep_for(milliseconds(100));

  Client client = MustConnect();
  auto sent = steady_clock::now();
  auto late = client.Call("project", {"LateView", "Person", "SSN"},
                          /*deadline_ms=*/50);
  auto waited = steady_clock::now() - sent;
  // The waiter gives up at its own deadline, not when the slot frees up.
  EXPECT_FALSE(blocker_done.load());
  EXPECT_GE(waited, milliseconds(50));
  EXPECT_LT(waited, milliseconds(250));
  blocker.join();
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(late->kind, ResponseKind::kDeadlineExceeded);
  EXPECT_GE(server_->stats().deadline_misses, 1u);

  auto views = client.Call("query", {"views"});
  ASSERT_TRUE(views.ok() && views->ok());
  EXPECT_TRUE(views->body.empty());  // the nack was definitive
}

TEST_F(ServerTest, FullQueueShedsWithRetryAfter) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 75;
  StartServer("queueshed", options);

  std::thread busy([this] {
    Client client = MustConnect();
    auto slept = client.Call("sleep", {"600"});
    EXPECT_TRUE(slept.ok() && slept->ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread queued([this] {
    Client client = MustConnect();
    auto slept = client.Call("sleep", {"0"});
    EXPECT_TRUE(slept.ok() && slept->ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Slot busy, one request already waiting: the third request must be
  // shed, immediately and with the configured hint.
  Client client = MustConnect();
  auto shed = client.Call("ping");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->kind, ResponseKind::kRetryAfter);
  EXPECT_EQ(shed->retry_after_ms, 75u);
  EXPECT_GE(server_->stats().shed, 1u);

  busy.join();
  queued.join();

  // Load gone: the same connection is served again.
  auto pong = client.Call("ping");
  ASSERT_TRUE(pong.ok() && pong->ok());
}

TEST_F(ServerTest, ConnectionLimitShedsAtTheDoor) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer("doorshed", options);

  Client first = MustConnect();
  ASSERT_TRUE(first.Call("ping").ok());

  // The second connection is answered RETRY_AFTER and closed — by the
  // accept loop itself, before any request is read.
  auto second = Client::Connect(server_->port());
  ASSERT_TRUE(second.ok()) << second.status();
  auto shed = second->Call("ping");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->kind, ResponseKind::kRetryAfter);
  EXPECT_GE(server_->stats().shed, 1u);

  // The first connection never noticed.
  ASSERT_TRUE(first.Call("ping").ok());
}

TEST_F(ServerTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer("idle", options);

  Client client = MustConnect();
  ASSERT_TRUE(client.Call("ping").ok());
  for (int i = 0; i < 100 && server_->active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server_->active_connections(), 0);
  EXPECT_GE(server_->stats().disconnects, 1u);
}

TEST_F(ServerTest, SlowRequestOutlivesIdleTimeout) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer("slow", options);

  // The idle timeout bounds the wait for a request frame, not the time a
  // request spends executing.
  Client client = MustConnect();
  auto slept = client.Call("sleep", {"400"});
  ASSERT_TRUE(slept.ok()) << slept.status();
  EXPECT_TRUE(slept->ok()) << slept->message();
  EXPECT_EQ(slept->message(), "slept 400");
}

TEST_F(ServerTest, StopWhileARequestWaitsForASlotNeverExecutesIt) {
  ServerOptions options;
  options.workers = 1;
  StartServer("stopwait", options);

  auto holder_started = steady_clock::now();
  std::optional<Result<Response>> slept;
  std::thread holder([this, &slept] {
    Client client = MustConnect();
    slept = client.Call("sleep", {"300"});
  });
  std::this_thread::sleep_for(milliseconds(100));
  std::optional<Result<Response>> waited;
  std::thread waiter([this, &waited] {
    Client client = MustConnect();
    waited = client.Call("project", {"Waiter", "Person", "SSN"});
  });
  std::this_thread::sleep_for(milliseconds(100));

  // Stop lets the running request finish and answer, and wakes the waiter
  // without executing it.
  server_->Stop();
  EXPECT_GE(steady_clock::now() - holder_started, milliseconds(300));
  holder.join();
  waiter.join();
  ASSERT_TRUE(slept.has_value());
  ASSERT_TRUE(slept->ok()) << slept->status();
  EXPECT_TRUE((*slept)->ok()) << (*slept)->message();
  ASSERT_TRUE(waited.has_value());
  EXPECT_FALSE(waited->ok());  // closed unanswered: never executed

  server_.reset();
  db_.reset();
  auto reopened = storage::DurableCatalog::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE(reopened->catalog().FindView("Waiter").ok());
}

TEST_F(ServerTest, HugeWireDeadlineNeverExpires) {
  StartServer("hugewire");
  auto fd = ConnectLoopback(server_->port(), Deadline::AfterMs(2000));
  ASSERT_TRUE(fd.ok()) << fd.status();

  // ~317 years: past steady_clock's nanosecond range from now.
  ASSERT_TRUE(WriteFrame(fd->get(), "tyder1 ping 10000000000000",
                         Deadline::AfterMs(2000))
                  .ok());
  auto answer = ReadFrame(fd->get(), Deadline::AfterMs(2000));
  ASSERT_TRUE(answer.ok()) << answer.status();
  auto parsed = ParseResponse(*answer);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->kind, ResponseKind::kOk);
  EXPECT_EQ(parsed->message(), "pong");
}

TEST_F(ServerTest, HugeClientDeadlineDoesNotTimeOut) {
  StartServer("hugeclient");
  Client client = MustConnect();
  // The second budget is the largest the wire accepts (19 digits).
  for (uint64_t deadline_ms :
       {10'000'000'000'000ULL, 9'999'999'999'999'999'999ULL}) {
    auto pong = client.Call("ping", {}, deadline_ms);
    ASSERT_TRUE(pong.ok()) << deadline_ms << ": " << pong.status();
    EXPECT_TRUE(pong->ok()) << deadline_ms;
    EXPECT_EQ(pong->message(), "pong");
  }
}

TEST_F(ServerTest, ServesReadsWhileDegradedAndRecoversOnReopen) {
  StartServer("degraded");
  Client client = MustConnect();

  ASSERT_TRUE(client.Call("project", {"Keep", "Person", "SSN"})->ok());

  // Arm the durability fault over the wire, exactly as a chaos campaign
  // does, and drive the store into read-only degraded mode.
  ASSERT_TRUE(client.Call("fault", {"storage.env.sync", "1"})->ok());
  // The op that TRIGGERS the fsync failure reports the raw durability error
  // (its WAL bytes may survive — an indeterminate outcome, see chaos.h)...
  auto trigger = client.Call("project", {"Lost", "Person", "name"});
  ASSERT_TRUE(trigger.ok()) << trigger.status();
  EXPECT_EQ(trigger->kind, ResponseKind::kErr);
  // ...and every mutation AFTER it gets the typed DEGRADED refusal.
  auto refused = client.Call("project", {"Lost2", "Person", "name"});
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->kind, ResponseKind::kDegraded);
  EXPECT_FALSE(refused->message().empty());  // names the original failure
  EXPECT_GE(server_->stats().degraded_refusals, 1u);

  // Reads keep serving off the pinned epoch; health names the state.
  auto views = client.Call("query", {"views"});
  ASSERT_TRUE(views.ok() && views->ok());
  ASSERT_EQ(views->body.size(), 1u);
  EXPECT_EQ(views->body[0], "Keep");
  auto health = client.Call("health");
  ASSERT_TRUE(health.ok() && health->ok());
  EXPECT_EQ(health->body[0], "status degraded");
  EXPECT_TRUE(client.Call("verify")->ok());

  // Admin reopen recovers in place, on the same live connection.
  auto reopened = client.Call("reopen");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE(reopened->ok()) << reopened->message();
  EXPECT_EQ(client.Call("health")->body[0], "status ok");

  auto after = client.Call("project", {"After", "Person", "SSN,name"});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->ok()) << after->message();
  EXPECT_TRUE(client.Call("verify")->ok());
}

TEST_F(ServerTest, AdminFaultValidatesThePointName) {
  StartServer("badfault");
  Client client = MustConnect();
  auto unknown = client.Call("fault", {"net.nonsense", "1"});
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(unknown->kind, ResponseKind::kErr);
  EXPECT_EQ(unknown->code, StatusCode::kNotFound);
}

TEST_F(ServerTest, ShutdownCommandUnparksTheDaemon) {
  StartServer("shutdown");
  Client client = MustConnect();
  auto answer = client.Call("shutdown");
  ASSERT_TRUE(answer.ok() && answer->ok());
  EXPECT_TRUE(server_->shutdown_requested());
  server_->WaitForShutdownRequest();  // returns immediately now
  server_->Stop();
}

TEST_F(ServerTest, SaveCompactsThroughTheServer) {
  StartServer("save");
  Client client = MustConnect();
  ASSERT_TRUE(client.Call("project", {"V", "Employee", "SSN"})->ok());
  auto saved = client.Call("save");
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_TRUE(saved->ok()) << saved->message();
  auto dropped = client.Call("drop", {"V"});
  ASSERT_TRUE(dropped.ok() && dropped->ok());
  EXPECT_TRUE(client.Call("query", {"views"})->body.empty());
}

}  // namespace
}  // namespace tyder::net
