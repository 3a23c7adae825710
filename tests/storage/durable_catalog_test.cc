// DurableCatalog lifecycle: seed, logged mutations, recovery byte-equality,
// compaction, snapshot fallback, and torn-tail repair
// (storage/durable_catalog.h).

#include "storage/durable_catalog.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "catalog/serialize.h"
#include "common/failpoint.h"
#include "instances/interp.h"
#include "lang/analyzer.h"
#include "storage/catalog_snapshot.h"
#include "testing/fixtures.h"

namespace tyder::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  return testing::UniqueTestDir("tyder_db_test_" + name);
}

Result<DurableCatalog> OpenSeeded(const std::string& dir) {
  auto fx = testing::BuildPersonEmployee();
  if (!fx.ok()) return fx.status();
  TYDER_ASSIGN_OR_RETURN(DurableCatalog db, DurableCatalog::Open(dir));
  TYDER_RETURN_IF_ERROR(db.Seed(Catalog(std::move(fx->schema))));
  return db;
}

size_t CountSnapshots(const std::string& dir) {
  size_t n = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tysnap") ++n;
  }
  return n;
}

TEST(DurableCatalogTest, OpenCreatesAFreshEmptyDatabase) {
  std::string dir = FreshDir("fresh");
  auto db = DurableCatalog::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->last_lsn(), 0u);
  EXPECT_FALSE(db->recovery().snapshot_loaded);
  EXPECT_TRUE(db->recovery().warnings.empty());
  EXPECT_TRUE(db->catalog().views().empty());
}

TEST(DurableCatalogTest, MutationsSurviveReopenByteIdentically) {
  std::string dir = FreshDir("reopen");
  std::string expected;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    auto view = db->DefineProjectionView("EmployeeView", "Employee",
                                         {"SSN", "date_of_birth", "pay_rate"});
    ASSERT_TRUE(view.ok()) << view.status();
    ASSERT_TRUE(db->DefineSelectionView("Sel", "Person").ok());
    expected = SerializeCatalog(db->catalog());
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
  EXPECT_EQ(reopened->recovery().replayed_records, 2u);
  EXPECT_TRUE(reopened->recovery().snapshot_loaded);  // the seed snapshot
  ASSERT_EQ(reopened->catalog().views().size(), 2u);
  // The recovered op log keeps the views' checkpoints: drop works.
  EXPECT_TRUE(reopened->DropView("EmployeeView").ok());
}

TEST(DurableCatalogTest, DropAndCollapseAreLoggedAndReplayed) {
  std::string dir = FreshDir("dropcollapse");
  std::string expected;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DefineProjectionView("V1", "Employee", {"SSN"}).ok());
    ASSERT_TRUE(db
                    ->DefineProjectionView("V2", "Person",
                                           {"SSN", "date_of_birth"})
                    .ok());
    ASSERT_TRUE(db->DropView("V2").ok());
    ASSERT_TRUE(db->Collapse().ok());
    expected = SerializeCatalog(db->catalog());
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
}

TEST(DurableCatalogTest, NoVerifyDerivationsReplayWithVerificationOff) {
  std::string dir = FreshDir("noverify");
  std::string expected;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ProjectionOptions options;
    options.verify = false;
    ASSERT_TRUE(
        db->DefineProjectionView("V", "Employee", {"SSN"}, options).ok());
    expected = SerializeCatalog(db->catalog());
  }
  // If the verify flag were not logged, replay under the default
  // (verify-on) options could diverge from the original derivation.
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
}

TEST(DurableCatalogTest, CompactAndReopenKeepFloatLiteralsExact) {
  std::string dir = FreshDir("float_literal");
  const double kPi = 3.14159265358979;
  {
    auto seed = LoadTdl(
        "type T { x: Int; }\n"
        "method pi (t: T) -> Float { return 3.14159265358979; }\n");
    ASSERT_TRUE(seed.ok()) << seed.status();
    auto db = DurableCatalog::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Seed(std::move(seed).value()).ok());
    ASSERT_TRUE(db->Compact().ok());
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const Schema& schema = reopened->catalog().schema();
  ObjectStore store;
  auto obj = store.CreateObject(schema, *schema.types().FindType("T"));
  ASSERT_TRUE(obj.ok()) << obj.status();
  Interpreter interp(schema, &store);
  auto value = interp.CallByName("pi", {Value::Object(*obj)});
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(std::bit_cast<uint64_t>(value->AsFloat()),
            std::bit_cast<uint64_t>(kPi));
}

TEST(DurableCatalogTest, CompactTruncatesTheLogAndDropsOldSnapshots) {
  std::string dir = FreshDir("compact");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->DefineProjectionView("V", "Employee", {"SSN"}).ok());
  std::string before = SerializeCatalog(db->catalog());
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(CountSnapshots(dir), 1u);
  EXPECT_EQ(fs::file_size(dir + "/wal.log"), 0u);
  EXPECT_EQ(SerializeCatalog(db->catalog()), before);

  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), before);
  EXPECT_EQ(reopened->recovery().replayed_records, 0u);
  EXPECT_EQ(reopened->last_lsn(), 1u);
  // New mutations after a compaction land in the (now empty) log.
  ASSERT_TRUE(reopened->DropView("V").ok());
  auto again = DurableCatalog::Open(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->recovery().replayed_records, 1u);
}

TEST(DurableCatalogTest, ReplaySkipsRecordsTheSnapshotAlreadyCovers) {
  std::string dir = FreshDir("skipreplay");
  std::string expected;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DefineProjectionView("V", "Employee", {"SSN"}).ok());
    // Crash between the snapshot rename and the WAL truncate: the snapshot
    // covers lsn 1 but the log still holds the record.
    failpoint::Activate("storage.compact.after_rename", 1);
    Status compacted = db->Compact();
    failpoint::DeactivateAll();
    ASSERT_FALSE(compacted.ok());
    expected = SerializeCatalog(db->catalog());
  }
  ASSERT_GT(fs::file_size(dir + "/wal.log"), 0u);  // record still in the log
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // Replaying the covered record would re-derive 'V' onto a catalog that
  // already has it and fail; the lsn filter must skip it.
  EXPECT_EQ(reopened->recovery().replayed_records, 0u);
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
}

TEST(DurableCatalogTest, CorruptNewestSnapshotFallsBackToOlderPlusLog) {
  std::string dir = FreshDir("fallback");
  std::string expected;
  std::string newest;
  {
    auto db = OpenSeeded(dir);  // snapshot at lsn 0
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DefineProjectionView("V", "Employee", {"SSN"}).ok());
    // A compaction that crashes before truncating the WAL leaves: the old
    // snapshot, the new snapshot, and the full log.
    failpoint::Activate("storage.compact.after_rename", 1);
    ASSERT_FALSE(db->Compact().ok());
    failpoint::DeactivateAll();
    expected = SerializeCatalog(db->catalog());
  }
  ASSERT_EQ(CountSnapshots(dir), 2u);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.find("00001.tysnap") != std::string::npos) {
      newest = entry.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_FALSE(reopened->recovery().warnings.empty());
  EXPECT_NE(reopened->recovery().warnings[0].find("falling back"),
            std::string::npos);
  EXPECT_EQ(reopened->recovery().replayed_records, 1u);
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
}

// Dropping the older of two views re-folds the newer one; recovery (load,
// re-fold, WAL tail) lands on the same catalog, before and after compaction.
TEST(DurableCatalogTest, DropOfAnOlderViewRecoversByteIdentically) {
  std::string dir = FreshDir("refold");
  std::string expected;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(
        db->DefineProjectionView("V1", "Employee", {"SSN", "name"}).ok());
    ASSERT_TRUE(
        db->DefineProjectionView("V2", "Employee", {"SSN", "name"}).ok());
    Status dropped = db->DropView("V1");
    ASSERT_TRUE(dropped.ok()) << dropped;
    expected = SerializeCatalog(db->catalog());
  }
  {
    auto reopened = DurableCatalog::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->recovery().replayed_records, 3u);
    EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
    ASSERT_TRUE(reopened->Compact().ok());
  }
  auto compacted = DurableCatalog::Open(dir);
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_EQ(compacted->recovery().replayed_records, 0u);
  EXPECT_EQ(SerializeCatalog(compacted->catalog()), expected);
  ASSERT_EQ(compacted->catalog().views().size(), 1u);
  EXPECT_EQ(compacted->catalog().views()[0].name, "V2");
}

// A snapshot whose ops re-fold to another schema than its `fold` line
// records does not load; recovery falls back to the older snapshot.
TEST(DurableCatalogTest, SnapshotThatRefoldsElsewhereFallsBack) {
  std::string dir = FreshDir("badfold");
  std::string expected;
  {
    auto db = OpenSeeded(dir);  // snapshot at lsn 0
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DefineProjectionView("V", "Employee", {"SSN"}).ok());
    failpoint::Activate("storage.compact.after_rename", 1);
    ASSERT_FALSE(db->Compact().ok());
    failpoint::DeactivateAll();
    expected = SerializeCatalog(db->catalog());
  }
  std::string newest;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find("00001.tysnap") !=
        std::string::npos) {
      newest = entry.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  // Same envelope, same fold line, but the view projects another attribute.
  std::string payload = expected;
  std::string op = "op project V Employee SSN verify\n";
  size_t at = payload.find(op);
  ASSERT_NE(at, std::string::npos) << payload;
  payload.replace(at, op.size(), "op project V Employee name verify\n");
  EXPECT_EQ(DeserializeCatalog(payload).status().code(),
            StatusCode::kParseError);
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << EncodeSnapshotEnvelope(payload);
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_FALSE(reopened->recovery().warnings.empty());
  EXPECT_NE(reopened->recovery().warnings[0].find("re-fold"),
            std::string::npos)
      << reopened->recovery().warnings[0];
  EXPECT_EQ(reopened->recovery().snapshot_lsn, 0u);
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
}

// Format v1 (derivation records) is refused with directions to move the
// data through the previous build's TDL export.
TEST(DurableCatalogTest, V1SnapshotPayloadIsRefusedWithMigrationSteps) {
  Result<Catalog> v1 = DeserializeCatalog("tyder-db v1\nschema 0\n\n");
  ASSERT_EQ(v1.status().code(), StatusCode::kParseError);
  EXPECT_NE(v1.status().message().find("v1"), std::string::npos);
  EXPECT_NE(v1.status().message().find("--export"), std::string::npos)
      << v1.status();
}

TEST(DurableCatalogTest, RefusesWhenNoSnapshotDecodes) {
  std::string dir = FreshDir("allcorrupt");
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tysnap") {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << "garbage";
    }
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("no snapshot"), std::string::npos)
      << reopened.status();
}

TEST(DurableCatalogTest, TornWalTailIsRepairedWithAWarning) {
  std::string dir = FreshDir("torntail");
  std::string expected;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DefineProjectionView("V", "Employee", {"SSN"}).ok());
    expected = SerializeCatalog(db->catalog());
  }
  // Simulate a crash mid-append: partial bytes after the last valid record.
  {
    std::ofstream out(dir + "/wal.log",
                      std::ios::binary | std::ios::app);
    out << "abc";  // 3 bytes of a 16-byte header
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_FALSE(reopened->recovery().warnings.empty());
  EXPECT_NE(reopened->recovery().warnings[0].find("torn WAL tail"),
            std::string::npos);
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), expected);
  // The repair truncated the junk: a further mutation + reopen is clean.
  ASSERT_TRUE(reopened->DropView("V").ok());
  auto again = DurableCatalog::Open(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->recovery().warnings.empty());
}

TEST(DurableCatalogTest, MidLogCorruptionRefusesRecovery) {
  std::string dir = FreshDir("midlog");
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DefineProjectionView("V1", "Employee", {"SSN"}).ok());
    ASSERT_TRUE(db->DefineProjectionView("V2", "Person", {"SSN"}).ok());
  }
  // Flip a byte inside the FIRST record — not a torn tail.
  std::string path = dir + "/wal.log";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[20] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("refusing to replay"),
            std::string::npos)
      << reopened.status();
}

TEST(DurableCatalogTest, SeedRefusesADatabaseWithState) {
  std::string dir = FreshDir("reseed");
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
  }
  auto db = DurableCatalog::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  Status reseeded = db->Seed(Catalog(std::move(fx->schema)));
  ASSERT_FALSE(reseeded.ok());
  EXPECT_EQ(reseeded.code(), StatusCode::kFailedPrecondition);
}

TEST(DurableCatalogTest, FailedMutationRollsBackAndDoesNotPoison) {
  std::string dir = FreshDir("rollback");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string pre = SerializeCatalog(db->catalog());
  // A semantic failure (bad attribute), not an injected one: nothing may be
  // logged for it.
  ASSERT_FALSE(db->DefineProjectionView("V", "Employee", {"nope"}).ok());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
  EXPECT_EQ(db->last_lsn(), 0u);
  ASSERT_TRUE(db->DefineProjectionView("V", "Employee", {"SSN"}).ok());
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->recovery().replayed_records, 1u);
  EXPECT_EQ(SerializeCatalog(reopened->catalog()),
            SerializeCatalog(db->catalog()));
}

}  // namespace
}  // namespace tyder::storage
