// The crash matrix: for EVERY registered storage fault point, inject the
// failure mid-operation, abandon the DurableCatalog instance (the in-process
// stand-in for a crash), re-open the directory, and prove recovery yields a
// catalog byte-identical to the state either before or after the interrupted
// mutation — never anything in between. Complements the in-memory rollback
// matrix in tests/core/transaction_test.cc, which intentionally skips the
// storage.* points, and the FaultyEnv-driven per-call-site sweep in
// io_fault_matrix_test.cc.
//
// Each point maps to a scenario:
//   kWalLive      fires during a WAL append whose durable undo holds — the
//                 op fails, state is unchanged, a retry succeeds.
//   kWalDegraded  a (simulated) fsync failure — the op fails AND the
//                 database drops into read-only degraded mode until
//                 Reopen() re-validates the on-disk state.
//   kCompact      fires during Compact() — compaction fails, the old
//                 snapshot + WAL remain the recovery source, retry works.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "storage/catalog_snapshot.h"
#include "storage/durable_catalog.h"
#include "storage/wal.h"
#include "testing/fixtures.h"

namespace tyder::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  return testing::UniqueTestDir("tyder_crash_test_" + name);
}

Result<DurableCatalog> OpenSeeded(const std::string& dir) {
  auto fx = testing::BuildPersonEmployee();
  if (!fx.ok()) return fx.status();
  TYDER_ASSIGN_OR_RETURN(DurableCatalog db, DurableCatalog::Open(dir));
  TYDER_RETURN_IF_ERROR(db.Seed(Catalog(std::move(fx->schema))));
  TYDER_ASSIGN_OR_RETURN(
      const ViewDef* view,
      db.DefineProjectionView("BaseView", "Employee",
                              {"SSN", "date_of_birth", "pay_rate"}));
  (void)view;
  return db;
}

// Every storage.* fault point in the registry, so this test fails loudly
// when a new point is added without crash-matrix coverage.
std::set<std::string> StoragePoints() {
  std::set<std::string> points;
  for (const std::string& name : failpoint::AllFaultPointNames()) {
    if (name.rfind("storage.", 0) == 0) points.insert(name);
  }
  return points;
}

struct CrashOutcome {
  std::string pre;   // catalog bytes before the faulted operation
  std::string post;  // catalog bytes had the operation succeeded
  std::string recovered;
};

enum class Scenario { kWalLive, kWalDegraded, kCompact };

// Every storage point must pick a scenario here; a new registry entry that
// is missing from this map fails the matrix loudly.
Result<Scenario> ScenarioFor(const std::string& point) {
  if (point == "storage.wal.torn_write" ||
      point == "storage.wal.after_append" ||
      point == "storage.wal.mid_fsync" ||    // crash DURING fsync, no error
      point == "storage.wal.after_sync" ||
      point == "storage.env.append" ||       // undo holds -> live
      point == "storage.env.short_write") {
    return Scenario::kWalLive;
  }
  if (point == "storage.env.sync") {         // fsync returns failure
    return Scenario::kWalDegraded;
  }
  if (point == "storage.compact.before_rename" ||
      point == "storage.compact.after_rename" ||
      point == "storage.env.rename" ||       // fires in Compact's publish
      point == "storage.env.sync_dir" ||     // fires in Compact's dir fsync
      point == "storage.env.truncate") {     // fires in Compact's WAL trunc
    return Scenario::kCompact;
  }
  return Status::Internal(
      "new storage fault point '" + point +
      "'? add it to ScenarioFor, io_fault_matrix_test.cc and the "
      "run_all.sh crash/iofault modes");
}

// Arms `point`, runs a WAL-logged mutation that must fail, "crashes" (drops
// the instance), recovers, and returns the three states. Catalog
// construction is deterministic, so the pre/post reference states can be
// built in their own fresh directories and compared byte-for-byte.
CrashOutcome RunWalCrash(const std::string& point) {
  CrashOutcome outcome;
  {
    // Reference: what the state would be had the mutation committed.
    std::string dir = FreshDir(point + ".post");
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    auto applied = db->DefineProjectionView("CrashView", "Person", {"SSN"});
    EXPECT_TRUE(applied.ok()) << point << ": " << applied.status();
    outcome.post = SerializeCatalog(db->catalog());
  }
  {
    // Liveness: the failed commit rolls back and does not poison retries.
    std::string dir = FreshDir(point + ".live");
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    outcome.pre = SerializeCatalog(db->catalog());

    failpoint::Activate(point, 1);
    auto faulted = db->DefineProjectionView("CrashView", "Person", {"SSN"});
    failpoint::DeactivateAll();
    EXPECT_FALSE(faulted.ok()) << "fault '" << point << "' did not fire";
    EXPECT_EQ(SerializeCatalog(db->catalog()), outcome.pre) << point;
    auto retried = db->DefineProjectionView("CrashView", "Person", {"SSN"});
    EXPECT_TRUE(retried.ok()) << point << ": " << retried.status();
    EXPECT_EQ(SerializeCatalog(db->catalog()), outcome.post) << point;
  }

  // Crash: on-disk state is exactly "faulted append right after BaseView".
  std::string dir = FreshDir(point);
  {
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    failpoint::Activate(point, 1);
    (void)db->DefineProjectionView("CrashView", "Person", {"SSN"});
    failpoint::DeactivateAll();
  }  // crash: instance abandoned

  auto recovered = DurableCatalog::Open(dir);
  EXPECT_TRUE(recovered.ok()) << point << ": " << recovered.status();
  if (recovered.ok()) {
    outcome.recovered = SerializeCatalog(recovered->catalog());
  }
  return outcome;
}

// A simulated fsync failure: the op fails, the database degrades to
// read-only, and Reopen() re-validates the on-disk state before mutations
// are allowed again.
CrashOutcome RunWalCrashDegraded(const std::string& point) {
  CrashOutcome outcome;
  {
    // Reference: what the state would be had the mutation committed.
    std::string dir = FreshDir(point + ".post");
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    auto applied = db->DefineProjectionView("CrashView", "Person", {"SSN"});
    EXPECT_TRUE(applied.ok()) << point << ": " << applied.status();
    outcome.post = SerializeCatalog(db->catalog());
  }
  {
    std::string dir = FreshDir(point + ".live");
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    outcome.pre = SerializeCatalog(db->catalog());

    failpoint::Activate(point, 1);
    auto faulted = db->DefineProjectionView("CrashView", "Person", {"SSN"});
    failpoint::DeactivateAll();
    EXPECT_FALSE(faulted.ok()) << "fault '" << point << "' did not fire";

    // The store can no longer prove durability: read-only degraded mode.
    EXPECT_TRUE(db->degraded()) << point;
    EXPECT_EQ(SerializeCatalog(db->catalog()), outcome.pre) << point;
    auto refused = db->DefineProjectionView("CrashView", "Person", {"SSN"});
    EXPECT_FALSE(refused.ok()) << point;
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(refused.status().message().find("degraded"), std::string::npos);
    EXPECT_FALSE(db->Compact().ok()) << point;
    EXPECT_EQ(SerializeCatalog(db->catalog()), outcome.pre) << point;

    // Reopen re-validates from disk. The record's bytes landed before the
    // injected fsync failure, so the re-validated state may be pre or post.
    Status reopened = db->Reopen();
    EXPECT_TRUE(reopened.ok()) << point << ": " << reopened;
    EXPECT_FALSE(db->degraded()) << point;
    std::string revalidated = SerializeCatalog(db->catalog());
    EXPECT_TRUE(revalidated == outcome.pre || revalidated == outcome.post)
        << point;
    if (revalidated == outcome.pre) {
      auto retried = db->DefineProjectionView("CrashView", "Person", {"SSN"});
      EXPECT_TRUE(retried.ok()) << point << ": " << retried.status();
    }
    EXPECT_EQ(SerializeCatalog(db->catalog()), outcome.post) << point;
  }

  // Crash: instance abandoned while degraded.
  std::string dir = FreshDir(point);
  {
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    failpoint::Activate(point, 1);
    (void)db->DefineProjectionView("CrashView", "Person", {"SSN"});
    failpoint::DeactivateAll();
  }  // crash

  auto recovered = DurableCatalog::Open(dir);
  EXPECT_TRUE(recovered.ok()) << point << ": " << recovered.status();
  if (recovered.ok()) {
    outcome.recovered = SerializeCatalog(recovered->catalog());
  }
  return outcome;
}

CrashOutcome RunCompactCrash(const std::string& point) {
  CrashOutcome outcome;
  std::string dir = FreshDir(point);
  {
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    // Compaction does not change the catalog: pre == post by definition.
    outcome.pre = outcome.post = SerializeCatalog(db->catalog());

    failpoint::Activate(point, 1);
    Status compacted = db->Compact();
    failpoint::DeactivateAll();
    EXPECT_FALSE(compacted.ok()) << "fault '" << point << "' did not fire";
    EXPECT_EQ(SerializeCatalog(db->catalog()), outcome.pre) << point;
    // Not poisoned: compaction succeeds on retry.
    EXPECT_TRUE(db->Compact().ok()) << point;
    EXPECT_EQ(SerializeCatalog(db->catalog()), outcome.pre) << point;
  }

  // Rebuild so the on-disk state is exactly "crashed during compaction".
  fs::remove_all(dir);
  {
    auto db = OpenSeeded(dir);
    EXPECT_TRUE(db.ok()) << db.status();
    failpoint::Activate(point, 1);
    (void)db->Compact();
    failpoint::DeactivateAll();
  }  // crash

  auto recovered = DurableCatalog::Open(dir);
  EXPECT_TRUE(recovered.ok()) << point << ": " << recovered.status();
  if (recovered.ok()) {
    outcome.recovered = SerializeCatalog(recovered->catalog());
  }
  return outcome;
}

TEST(CrashMatrixTest, EveryStorageFaultPointRecoversToPreOrPost) {
  std::set<std::string> covered;
  for (const std::string& point : StoragePoints()) {
    SCOPED_TRACE(point);
    Result<Scenario> scenario = ScenarioFor(point);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    CrashOutcome outcome;
    switch (*scenario) {
      case Scenario::kWalLive:
        outcome = RunWalCrash(point);
        break;
      case Scenario::kWalDegraded:
        outcome = RunWalCrashDegraded(point);
        break;
      case Scenario::kCompact:
        outcome = RunCompactCrash(point);
        break;
    }
    ASSERT_FALSE(outcome.pre.empty());
    EXPECT_TRUE(outcome.recovered == outcome.pre ||
                outcome.recovered == outcome.post)
        << "recovered state is neither the pre- nor the post-mutation "
           "catalog";
    covered.insert(point);
  }
  // The matrix must cover exactly the storage points the registry declares.
  EXPECT_EQ(covered, StoragePoints());
  EXPECT_EQ(covered.size(), 12u) << "new storage fault point? extend "
                                    "ScenarioFor above and run_all.sh "
                                    "crash/iofault modes";
}

// The crash matrix extended to the group-commit path: four concurrent
// committers share fsync batches while storage.env.sync is armed to fail
// once. The faulted batch must nack EVERY committer it carried (no partial
// acks inside a batch), the database degrades, and after the crash every
// acknowledged commit — from batches durable before the fault — is
// recovered. Which committers land in the faulted batch is scheduling-
// dependent, so the assertions are the ack-set contract rather than a fixed
// pre/post pair.
TEST(CrashMatrixTest, GroupCommitFsyncFailureNacksTheWholeBatch) {
  std::string dir = FreshDir("group_sync_fail");
  constexpr int kCommitters = 4;
  std::vector<char> acked(kCommitters, 0);
  {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    GroupCommitOptions group;
    group.max_batch = kCommitters;
    group.max_wait_us = 200;
    auto db = DurableCatalog::Open(dir, nullptr, group);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Seed(Catalog(std::move(fx->schema))).ok());

    failpoint::Activate("storage.env.sync", 1);
    std::vector<std::thread> committers;
    for (int t = 0; t < kCommitters; ++t) {
      committers.emplace_back([&, t] {
        auto r = db->DefineProjectionView("Grp" + std::to_string(t),
                                          "Employee", {"SSN"});
        acked[t] = r.ok() ? 1 : 0;
      });
    }
    for (auto& th : committers) th.join();
    failpoint::DeactivateAll();

    // The armed fsync failure hit some batch: its committers all failed and
    // the store degraded to read-only.
    int acks = 0;
    for (char a : acked) acks += a;
    EXPECT_LT(acks, kCommitters) << "the fsync fault nacked no committer";
    EXPECT_TRUE(db->degraded());

    // Ack and visibility agree per committer, even mid-degradation.
    for (int t = 0; t < kCommitters; ++t) {
      auto found = db->catalog().FindView("Grp" + std::to_string(t));
      EXPECT_EQ(found.ok(), acked[t] != 0) << "committer " << t;
    }
    auto refused = db->DefineProjectionView("Probe", "Person", {"SSN"});
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  }  // crash: instance abandoned while degraded

  auto recovered = DurableCatalog::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (int t = 0; t < kCommitters; ++t) {
    if (acked[t] == 0) continue;
    auto found = recovered->catalog().FindView("Grp" + std::to_string(t));
    EXPECT_TRUE(found.ok())
        << "acknowledged commit Grp" << t << " lost across the crash";
  }
}

// A doubly-injected crash: the append tears AND the process dies before the
// undo completes. Simulated by tearing the file manually after a successful
// append — recovery must warn, truncate, and land on the pre-state.
TEST(CrashMatrixTest, TornTailAfterCrashRecoversToPreState) {
  std::string dir = FreshDir("torn_after_crash");
  std::string pre;
  uint64_t intact_size = 0;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    pre = SerializeCatalog(db->catalog());
    intact_size = fs::file_size(dir + "/wal.log");
    ASSERT_TRUE(db->DefineProjectionView("CrashView", "Person", {"SSN"}).ok());
  }
  // Cut the last record in half: the on-disk signature of a torn append.
  uint64_t full_size = fs::file_size(dir + "/wal.log");
  ASSERT_GT(full_size, intact_size);
  fs::resize_file(dir + "/wal.log", intact_size + (full_size - intact_size) / 2);

  auto recovered = DurableCatalog::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered->recovery().warnings.empty());
  EXPECT_NE(recovered->recovery().warnings[0].find("torn WAL tail"),
            std::string::npos);
  EXPECT_EQ(SerializeCatalog(recovered->catalog()), pre);
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), intact_size);
}

}  // namespace
}  // namespace tyder::storage
