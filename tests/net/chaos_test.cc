// In-process chaos campaigns against a live tyderd serving core: concurrent
// clients define/drop views while the saboteur arms network and durability
// faults, then the ledger is verified over the wire AND against a freshly
// recovered catalog (acks must be durable, not merely visible).

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/failpoint.h"
#include "net/chaos.h"
#include "net/server.h"
#include "storage/durable_catalog.h"
#include "testing/fixtures.h"

namespace tyder::net {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void Boot(const std::string& name) {
    dir_ = testing::UniqueTestDir("tyder_chaos_test_" + name);
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    auto opened = storage::DurableCatalog::Open(dir_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    db_.emplace(std::move(*opened));
    ASSERT_TRUE(db_->Seed(Catalog(std::move(fx->schema))).ok());
    ServerOptions options;
    options.admin = true;
    auto server = Server::Start(&*db_, options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  // Stops the server, drops the live catalog, and re-runs recovery from
  // disk — what a restart of tyderd would see.
  Result<storage::DurableCatalog> Restart() {
    server_->Stop();
    server_.reset();
    db_.reset();
    return storage::DurableCatalog::Open(dir_);
  }

  void TearDown() override {
    failpoint::DeactivateAll();
    if (server_ != nullptr) server_->Stop();
  }

  std::string dir_;
  std::optional<storage::DurableCatalog> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ChaosTest, NetworkFaultCampaignKeepsTheLedgerExact) {
  Boot("net");
  ChaosOptions options;
  options.port = server_->port();
  options.clients = 4;
  options.duration_ms = 2'500;
  options.deadline_ms = 2'000;
  options.seed = 7;
  options.fault_points = {"net.accept", "net.conn.drop_mid_request",
                          "net.read.eintr", "net.read.short",
                          "net.write.response"};
  options.name_prefix = "NetC";

  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->attempted, 0u);
  EXPECT_GT(report->acked, 0u);
  ASSERT_TRUE(VerifyOverWire(server_->port(), *report).ok());

  auto recovered = Restart();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  Status durable = VerifyAgainstCatalog(recovered->catalog(), *report);
  EXPECT_TRUE(durable.ok()) << durable;
}

TEST_F(ChaosTest, DurabilityFaultCampaignDegradesHealsAndStaysExact) {
  Boot("storage");
  ChaosOptions options;
  options.port = server_->port();
  options.clients = 4;
  options.duration_ms = 3'000;
  options.deadline_ms = 2'000;
  options.seed = 11;
  options.storage_faults = true;
  options.fault_points = {"net.write.response"};  // compound the two layers
  options.name_prefix = "StC";

  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->acked, 0u);
  // The store really went down into degraded mode and was healed (possibly
  // several times) while traffic flowed.
  EXPECT_GE(report->degrade_cycles, 1u);
  ASSERT_TRUE(VerifyOverWire(server_->port(), *report).ok());

  auto recovered = Restart();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  Status durable = VerifyAgainstCatalog(recovered->catalog(), *report);
  EXPECT_TRUE(durable.ok()) << durable;
}

TEST_F(ChaosTest, OverloadCampaignShedsInsteadOfStalling) {
  Boot("overload");
  // A deliberately tiny server: one execution slot, one waiter, few seats,
  // so both the door and the slot gate shed.
  server_->Stop();
  server_.reset();
  ServerOptions small;
  small.admin = true;
  small.workers = 1;
  small.queue_capacity = 1;
  small.max_connections = 3;
  auto server = Server::Start(&*db_, small);
  ASSERT_TRUE(server.ok()) << server.status();
  server_ = std::move(*server);

  ChaosOptions options;
  options.port = server_->port();
  options.clients = 6;  // twice the seats
  options.duration_ms = 2'000;
  options.deadline_ms = 1'000;
  options.seed = 13;
  options.name_prefix = "OvC";

  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->acked, 0u);
  // Overload surfaced as answers, not hangs: at least some requests were
  // shed with RETRY_AFTER at the door or the slot gate.
  EXPECT_GT(report->shed, 0u);
  ASSERT_TRUE(VerifyOverWire(server_->port(), *report).ok());
}

}  // namespace
}  // namespace tyder::net
