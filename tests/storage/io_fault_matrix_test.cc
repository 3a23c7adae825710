// The I/O fault matrix: for EVERY Env call a durable operation makes, fail
// that call with every fault kind FaultyEnv can inject — EIO at any call,
// ENOSPC and short writes at appends, fsync failure at file and directory
// syncs — each with and without a simulated power loss afterwards, and
// prove:
//
//   - the in-memory catalog is byte-identical to the pre- or post-state of
//     the interrupted operation, or the database is provably read-only
//     (degraded mode: mutations refuse, reads serve the pre-state);
//   - recovery from the surviving directory is byte-identical to pre or
//     post — never anything in between;
//   - an operation that reported OK is durable: after a power loss the
//     recovered state is exactly its post-state.
//
// The sweep space is not hard-coded: a clean instrumented run of each
// operation counts its Env calls per category, then the matrix re-runs the
// operation once per (kind, call index, power-loss) cell. A new Env call
// site in the storage layer automatically widens the matrix.
//
// Complements crash_matrix_test.cc (failpoint-driven, one representative
// scenario per registered point) with exhaustive call-site coverage.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "storage/catalog_snapshot.h"
#include "storage/durable_catalog.h"
#include "storage/faulty_env.h"
#include "storage/wal.h"
#include "testing/fixtures.h"

namespace tyder::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  return testing::UniqueTestDir("tyder_iofault_test_" + name);
}

Result<DurableCatalog> OpenSeeded(const std::string& dir, Env* env = nullptr) {
  auto fx = testing::BuildPersonEmployee();
  if (!fx.ok()) return fx.status();
  TYDER_ASSIGN_OR_RETURN(DurableCatalog db, DurableCatalog::Open(dir, env));
  TYDER_RETURN_IF_ERROR(db.Seed(Catalog(std::move(fx->schema))));
  TYDER_ASSIGN_OR_RETURN(
      const ViewDef* view,
      db.DefineProjectionView("BaseView", "Employee",
                              {"SSN", "date_of_birth", "pay_rate"}));
  (void)view;
  return db;
}

using OpFn = std::function<Status(DurableCatalog&)>;

struct OpCase {
  std::string name;
  OpFn run;
};

Status RunProject(DurableCatalog& db) {
  auto r = db.DefineProjectionView("MatrixView", "Person", {"SSN"});
  return r.ok() ? Status::OK() : r.status();
}
Status RunDrop(DurableCatalog& db) { return db.DropView("BaseView"); }
Status RunCollapse(DurableCatalog& db) {
  auto r = db.Collapse();
  return r.ok() ? Status::OK() : r.status();
}
Status RunCompact(DurableCatalog& db) { return db.Compact(); }

struct FaultCell {
  FaultyEnv::FaultKind kind;
  const char* kind_name;
  int index;
  bool power_loss;
};

// One matrix cell: seed, arm the fault, run the op, check in-memory
// consistency, crash (drop the instance, optionally power-loss), recover,
// check byte-identity against the references.
void RunCell(const OpCase& op, const FaultCell& cell, const std::string& pre,
             const std::string& post) {
  SCOPED_TRACE(std::string(cell.kind_name) + "@" +
               std::to_string(cell.index) +
               (cell.power_loss ? "+powerloss" : ""));
  std::string dir =
      FreshDir(op.name + "_" + cell.kind_name + "_" +
               std::to_string(cell.index) + (cell.power_loss ? "_pl" : ""));
  FaultyEnv env;
  Status status;
  {
    auto db = OpenSeeded(dir, &env);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_EQ(SerializeCatalog(db->catalog()), pre);
    env.ResetCounters();
    env.InjectAt(cell.kind, cell.index);
    status = op.run(*db);
    env.ClearFaults();
    // Calls before the armed index replay the clean run, so the armed call
    // is always reached.
    EXPECT_TRUE(env.fault_fired());

    if (status.ok()) {
      // The fault hit a call whose failure is absorbed (e.g. stale-snapshot
      // cleanup): the operation committed.
      EXPECT_EQ(SerializeCatalog(db->catalog()), post);
      EXPECT_FALSE(db->degraded());
    } else if (db->degraded()) {
      // Provably read-only: reads serve the pre-state, mutations refuse.
      EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
      auto refused = db->DefineProjectionView("Probe", "Person", {"SSN"});
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(refused.status().message().find("degraded"),
                std::string::npos);
    } else {
      // Failed but live: rolled back, nothing in between.
      EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
    }
  }  // crash: instance abandoned with the fault's damage on disk

  if (cell.power_loss) env.PowerLoss();

  auto recovered = DurableCatalog::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  std::string rec = SerializeCatalog(recovered->catalog());
  EXPECT_TRUE(rec == pre || rec == post)
      << "recovered state is neither the pre- nor the post-operation "
         "catalog";
  if (status.ok() && cell.power_loss) {
    // Durability: an acknowledged operation survives power loss.
    EXPECT_EQ(rec, post);
  }
}

void RunMatrix(const OpCase& op) {
  // Reference pre/post states (catalog construction is deterministic).
  std::string pre, post;
  {
    std::string dir = FreshDir(op.name + "_ref");
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    pre = SerializeCatalog(db->catalog());
    Status applied = op.run(*db);
    ASSERT_TRUE(applied.ok()) << applied;
    post = SerializeCatalog(db->catalog());
  }

  // Clean instrumented run: size the sweep space per fault category.
  int total_calls = 0, append_calls = 0, sync_calls = 0;
  {
    std::string dir = FreshDir(op.name + "_count");
    FaultyEnv env;
    auto db = OpenSeeded(dir, &env);
    ASSERT_TRUE(db.ok()) << db.status();
    env.ResetCounters();
    Status applied = op.run(*db);
    ASSERT_TRUE(applied.ok()) << applied;
    EXPECT_EQ(SerializeCatalog(db->catalog()), post);
    total_calls = env.total_calls();
    append_calls = env.append_calls();
    sync_calls = env.sync_calls();
  }
  ASSERT_GT(total_calls, 0) << op.name << " makes no Env calls to fault";
  ASSERT_GT(append_calls, 0);
  ASSERT_GT(sync_calls, 0);

  for (bool power_loss : {false, true}) {
    for (int i = 0; i < total_calls; ++i) {
      RunCell(op, {FaultyEnv::FaultKind::kError, "eio", i, power_loss}, pre,
              post);
    }
    for (int i = 0; i < append_calls; ++i) {
      RunCell(op, {FaultyEnv::FaultKind::kEnospc, "enospc", i, power_loss},
              pre, post);
      RunCell(op,
              {FaultyEnv::FaultKind::kShortWrite, "short_write", i,
               power_loss},
              pre, post);
    }
    for (int i = 0; i < sync_calls; ++i) {
      RunCell(op, {FaultyEnv::FaultKind::kSyncFail, "sync_fail", i,
                   power_loss},
              pre, post);
    }
  }
}

TEST(IoFaultMatrixTest, ProjectionSurvivesEveryEnvFault) {
  RunMatrix({"project", RunProject});
}

TEST(IoFaultMatrixTest, DropViewSurvivesEveryEnvFault) {
  RunMatrix({"drop", RunDrop});
}

TEST(IoFaultMatrixTest, CollapseSurvivesEveryEnvFault) {
  RunMatrix({"collapse", RunCollapse});
}

TEST(IoFaultMatrixTest, CompactionSurvivesEveryEnvFault) {
  RunMatrix({"compact", RunCompact});
}

// --- Group-commit batch append ---------------------------------------------
//
// The same exhaustive per-Env-call sweep for WalWriter::AppendBatch, the
// group-commit primitive. The batch must be all-or-nothing at every fault:
// a live writer after a failed batch holds exactly the pre-batch records
// and retries cleanly; a poisoned writer refuses further mutation; and
// power-loss recovery sees either no batch record or the whole batch —
// never a partial one.

std::vector<WalRecord> BatchRecords() {
  return {{2, "project V1 Employee SSN verify"},
          {3, "project V2 Employee pay_rate verify"},
          {4, "drop V1"}};
}

void RunBatchCell(const FaultCell& cell) {
  SCOPED_TRACE(std::string(cell.kind_name) + "@" +
               std::to_string(cell.index) +
               (cell.power_loss ? "+powerloss" : ""));
  std::string dir =
      FreshDir(std::string("batch_") + cell.kind_name + "_" +
               std::to_string(cell.index) + (cell.power_loss ? "_pl" : ""));
  fs::create_directories(dir);
  std::string path = dir + "/wal.log";
  FaultyEnv env;
  std::optional<WalWriter> writer;
  {
    auto opened = WalWriter::Open(path, &env);
    ASSERT_TRUE(opened.ok()) << opened.status();
    writer.emplace(std::move(*opened));
  }
  ASSERT_TRUE(writer->Append(1, "seed").ok());

  env.ResetCounters();
  env.InjectAt(cell.kind, cell.index);
  Status status = writer->AppendBatch(BatchRecords());
  env.ClearFaults();
  EXPECT_TRUE(env.fault_fired());

  bool acked = status.ok();
  if (status.ok()) {
    EXPECT_FALSE(writer->poisoned());
    auto live = ReadWal(path, &env);
    ASSERT_TRUE(live.ok()) << live.status();
    EXPECT_EQ(live->records.size(), 4u);
  } else if (!writer->poisoned()) {
    // Durable undo held: the live file is exactly the pre-batch log and the
    // whole batch lands on retry — no committer is half-acknowledged.
    auto live = ReadWal(path, &env);
    ASSERT_TRUE(live.ok()) << live.status();
    EXPECT_EQ(live->records.size(), 1u);
    Status retried = writer->AppendBatch(BatchRecords());
    ASSERT_TRUE(retried.ok()) << retried;
    acked = true;
  } else {
    // Poisoned (the batch fsync or its undo failed): the writer can no
    // longer vouch for durability and must refuse every further mutation.
    EXPECT_FALSE(writer->Append(9, "probe").ok());
    EXPECT_FALSE(writer->AppendBatch(BatchRecords()).ok());
  }

  if (cell.power_loss) {
    writer.reset();  // drop the file handle before rewinding
    env.PowerLoss();
    auto recovered = ReadWal(path);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ASSERT_TRUE(recovered->records.size() == 1u ||
                recovered->records.size() == 4u)
        << "power loss exposed a partial batch ("
        << recovered->records.size() << " records)";
    if (acked) {
      // An acknowledged batch is durable as a unit.
      EXPECT_EQ(recovered->records.size(), 4u);
      EXPECT_EQ(recovered->records.back().lsn, 4u);
    }
  }
}

TEST(IoFaultMatrixTest, GroupCommitBatchSurvivesEveryEnvFault) {
  // Size the sweep from a clean instrumented batch append.
  int total_calls = 0, append_calls = 0, sync_calls = 0;
  {
    std::string dir = FreshDir("batch_count");
    fs::create_directories(dir);
    FaultyEnv env;
    auto writer = WalWriter::Open(dir + "/wal.log", &env);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(1, "seed").ok());
    env.ResetCounters();
    Status clean = writer->AppendBatch(BatchRecords());
    ASSERT_TRUE(clean.ok()) << clean;
    total_calls = env.total_calls();
    append_calls = env.append_calls();
    sync_calls = env.sync_calls();
  }
  ASSERT_GT(total_calls, 0);
  ASSERT_GT(append_calls, 0);
  ASSERT_GT(sync_calls, 0);
  // One contiguous write, one fsync: the whole point of the batch path.
  EXPECT_EQ(append_calls, 1);
  EXPECT_EQ(sync_calls, 1);

  for (bool power_loss : {false, true}) {
    for (int i = 0; i < total_calls; ++i) {
      RunBatchCell({FaultyEnv::FaultKind::kError, "eio", i, power_loss});
    }
    for (int i = 0; i < append_calls; ++i) {
      RunBatchCell({FaultyEnv::FaultKind::kEnospc, "enospc", i, power_loss});
      RunBatchCell(
          {FaultyEnv::FaultKind::kShortWrite, "short_write", i, power_loss});
    }
    for (int i = 0; i < sync_calls; ++i) {
      RunBatchCell(
          {FaultyEnv::FaultKind::kSyncFail, "sync_fail", i, power_loss});
    }
  }
}

}  // namespace
}  // namespace tyder::storage
