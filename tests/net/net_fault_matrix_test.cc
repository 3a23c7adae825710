// The net.* fault matrix: every network fault point, with and without
// concurrent load. The invariants, from ISSUE/docs/ROBUSTNESS.md:
//   * the server never crashes — it keeps serving new connections;
//   * a mutation acked OK is durable;
//   * a mutation that never started executing is absent;
//   * a response-write failure after commit leaves the mutation durable
//     (the one acked-but-unobserved window);
//   * after the fault the catalog still passes the differential oracle.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/failpoint.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/durable_catalog.h"
#include "testing/fixtures.h"

namespace tyder::net {
namespace {

constexpr const char* kNetPoints[] = {
    "net.accept",       "net.conn.drop_mid_request", "net.read.eintr",
    "net.read.short",   "net.write.response",
};

class NetFaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string dir = testing::UniqueTestDir(
        "tyder_net_fault_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    auto opened = storage::DurableCatalog::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status();
    db_.emplace(std::move(*opened));
    ASSERT_TRUE(db_->Seed(Catalog(std::move(fx->schema))).ok());
    ServerOptions options;
    options.admin = true;
    auto server = Server::Start(&*db_, options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  void TearDown() override {
    failpoint::DeactivateAll();
    if (server_ != nullptr) server_->Stop();
  }

  Client MustConnect() {
    auto client = Client::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }

  // The server must still answer a fresh connection — "never crashes".
  void ExpectServerAlive() {
    Client probe = MustConnect();
    auto pong = probe.Call("ping");
    ASSERT_TRUE(pong.ok()) << pong.status();
    EXPECT_TRUE(pong->ok());
    auto oracle = probe.Call("verify");
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_TRUE(oracle->ok()) << oracle->message();
  }

  bool ViewServed(const std::string& name) {
    Client probe = MustConnect();
    auto views = probe.Call("query", {"views"});
    EXPECT_TRUE(views.ok() && views->ok());
    for (const std::string& view : views->body)
      if (view == name) return true;
    return false;
  }

  std::optional<storage::DurableCatalog> db_;
  std::unique_ptr<Server> server_;
};

// --- without load: one client, one targeted fault, exact assertions -------

TEST_F(NetFaultMatrixTest, AcceptFaultDropsTheSocketNotTheServer) {
  failpoint::Activate("net.accept", 1);
  auto doomed = Client::Connect(server_->port());
  ASSERT_TRUE(doomed.ok()) << doomed.status();  // TCP accepts via backlog
  auto answer = doomed->Call("ping");
  EXPECT_FALSE(answer.ok());  // the accepted socket died unserviced
  ExpectServerAlive();
}

TEST_F(NetFaultMatrixTest, ShortReadTearsOneConnectionOnly) {
  Client victim = MustConnect();
  failpoint::Activate("net.read.short", 1);
  auto answer = victim.Call("ping");
  EXPECT_FALSE(answer.ok());
  EXPECT_TRUE(victim.SentWithoutAnswer());
  ExpectServerAlive();
}

TEST_F(NetFaultMatrixTest, EintrIsAbsorbedTransparently) {
  Client client = MustConnect();
  failpoint::Activate("net.read.eintr", 1);
  auto answer = client.Call("ping");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->ok());
}

TEST_F(NetFaultMatrixTest, DropMidRequestNeverExecutesTheMutation) {
  Client victim = MustConnect();
  failpoint::Activate("net.conn.drop_mid_request", 1);
  auto answer = victim.Call("project", {"NeverRan", "Person", "SSN"});
  EXPECT_FALSE(answer.ok());  // connection died, no response
  // The request was read but dropped BEFORE execution: definitively absent.
  EXPECT_FALSE(ViewServed("NeverRan"));
  ExpectServerAlive();
}

TEST_F(NetFaultMatrixTest, ResponseWriteFaultLeavesTheCommitDurable) {
  Client victim = MustConnect();
  failpoint::Activate("net.write.response", 1);
  auto answer = victim.Call("project", {"AckedUnheard", "Person", "SSN"});
  EXPECT_FALSE(answer.ok());             // the ack never crossed the wire...
  EXPECT_TRUE(victim.SentWithoutAnswer());
  EXPECT_TRUE(ViewServed("AckedUnheard"));  // ...but the commit is real
  EXPECT_GE(server_->stats().response_write_failures, 1u);
  ExpectServerAlive();
}

// --- with load: each point armed repeatedly under a concurrent campaign ---

TEST_F(NetFaultMatrixTest, EveryPointHoldsTheLedgerUnderLoad) {
  for (const char* point : kNetPoints) {
    ChaosOptions options;
    options.port = server_->port();
    options.clients = 3;
    options.duration_ms = 1'000;
    options.deadline_ms = 2'000;
    options.fault_points = {point};
    options.name_prefix = std::string("Mx_") + (point + 4);  // skip "net."
    for (char& c : options.name_prefix)
      if (c == '.') c = '_';
    auto report = RunChaosCampaign(options);
    ASSERT_TRUE(report.ok()) << point << ": " << report.status();
    EXPECT_GT(report->attempted, 0u) << point;
    Status verified = VerifyOverWire(server_->port(), *report);
    EXPECT_TRUE(verified.ok()) << point << ": " << verified;
  }
}

}  // namespace
}  // namespace tyder::net
