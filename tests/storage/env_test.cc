// Contract tests for storage::Env (env.h): PosixEnv file-system semantics,
// the partial-write retry loop (forced through real short writes), the
// fsync-failure poison rule, and the FaultyEnv injection/durability model
// that powers io_fault_matrix_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "storage/env.h"
#include "storage/faulty_env.h"
#include "storage/wal.h"
#include "testing/fixtures.h"

namespace tyder::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::UniqueTestDir("tyder_env_test_" + name);
  fs::create_directories(dir);
  return dir;
}

std::string Contents(Env& env, const std::string& path) {
  Result<std::string> bytes = env.ReadFile(path);
  return bytes.ok() ? *bytes : "<" + bytes.status().ToString() + ">";
}

TEST(PosixEnvTest, AppendReadRoundTrip) {
  std::string dir = FreshDir("round_trip");
  std::string path = dir + "/file";
  Env& env = Env::Posix();
  {
    auto file = env.OpenAppendable(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE((*file)->Append("hello ").ok());
    ASSERT_TRUE((*file)->Append("world").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 11u);
  }
  EXPECT_EQ(Contents(env, path), "hello world");
}

TEST(PosixEnvTest, ReadMissingFileIsNotFound) {
  std::string dir = FreshDir("missing");
  Result<std::string> bytes = Env::Posix().ReadFile(dir + "/absent");
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kNotFound);
}

TEST(PosixEnvTest, RemoveIsOkWhenAbsentListIsSorted) {
  std::string dir = FreshDir("list");
  Env& env = Env::Posix();
  EXPECT_TRUE(env.RemoveFile(dir + "/nothing_here").ok());
  for (const char* name : {"c", "a", "b"}) {
    auto file = env.OpenTruncated(dir + "/" + std::string(name));
    ASSERT_TRUE(file.ok());
  }
  auto names = env.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PosixEnvTest, RenameReplacesAtomically) {
  std::string dir = FreshDir("rename");
  Env& env = Env::Posix();
  {
    auto file = env.OpenTruncated(dir + "/new");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("new bytes").ok());
  }
  {
    auto file = env.OpenTruncated(dir + "/old");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("old bytes").ok());
  }
  ASSERT_TRUE(env.RenameFile(dir + "/new", dir + "/old").ok());
  EXPECT_EQ(Contents(env, dir + "/old"), "new bytes");
  EXPECT_EQ(env.ReadFile(dir + "/new").status().code(), StatusCode::kNotFound);
}

TEST(PosixEnvTest, TruncateFileCutsToSize) {
  std::string dir = FreshDir("truncate");
  Env& env = Env::Posix();
  {
    auto file = env.OpenTruncated(dir + "/f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("0123456789").ok());
  }
  ASSERT_TRUE(env.TruncateFile(dir + "/f", 4).ok());
  EXPECT_EQ(Contents(env, dir + "/f"), "0123");
}

// Pins the partial-write fix: write(2) may persist fewer bytes than asked
// without error. Capping every write(2) at 3 bytes forces the retry loop on
// a real file — a single-shot ::write would tear every record.
TEST(PosixEnvTest, ShortWriteLoopKeepsWalRecordsIntact) {
  std::string dir = FreshDir("short_write_loop");
  PosixEnv env;
  env.set_max_write_bytes_for_testing(3);
  std::string path = dir + "/wal.log";
  auto wal = WalWriter::Open(path, &env);
  ASSERT_TRUE(wal.ok()) << wal.status();
  std::string payload(100, 'x');
  ASSERT_TRUE(wal->Append(1, payload).ok());
  ASSERT_TRUE(wal->Append(2, "project V T a verify").ok());

  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->torn_tail_warning.empty()) << read->torn_tail_warning;
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].payload, payload);
  EXPECT_EQ(read->records[1].payload, "project V T a verify");
}

TEST(WritableFileTest, FailedSyncPoisonsTheHandleForever) {
  std::string dir = FreshDir("poison");
  FaultyEnv env;
  auto file = env.OpenAppendable(dir + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("bytes").ok());

  env.InjectAt(FaultyEnv::FaultKind::kSyncFail, 0);
  Status failed = (*file)->Sync();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE((*file)->poisoned());
  env.ClearFaults();

  // Never re-fsync and claim durability: everything but Size refuses, even
  // though the underlying file is healthy again.
  Status append = (*file)->Append("more");
  EXPECT_EQ(append.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(append.message().find("poisoned"), std::string::npos);
  EXPECT_EQ((*file)->Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*file)->Truncate(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE((*file)->Size().ok());
}

TEST(FaultyEnvTest, ShortWritePersistsExactlyHalf) {
  std::string dir = FreshDir("faulty_short");
  FaultyEnv env;
  auto file = env.OpenAppendable(dir + "/f");
  ASSERT_TRUE(file.ok());
  env.InjectAt(FaultyEnv::FaultKind::kShortWrite, 0);
  Status failed = (*file)->Append("0123456789");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(env.fault_fired());
  EXPECT_EQ(Contents(env, dir + "/f"), "01234");
}

TEST(FaultyEnvTest, ByteQuotaExhaustsMidWrite) {
  std::string dir = FreshDir("faulty_quota");
  FaultyEnv env;
  auto file = env.OpenAppendable(dir + "/f");
  ASSERT_TRUE(file.ok());
  env.SetByteQuota(10);
  ASSERT_TRUE((*file)->Append("123456").ok());  // 6 of 10
  Status full = (*file)->Append("78901234");    // would need 14
  ASSERT_FALSE(full.ok());
  EXPECT_NE(full.message().find("ENOSPC"), std::string::npos);
  // Exactly the bytes that fit reached the file: disk-full mid-write.
  EXPECT_EQ(Contents(env, dir + "/f"), "1234567890");
  // The disk stays full until the quota is lifted.
  EXPECT_FALSE((*file)->Append("x").ok());
  env.ClearFaults();
  EXPECT_TRUE((*file)->Append("x").ok());
}

TEST(FaultyEnvTest, PowerLossDropsUnsyncedBytes) {
  std::string dir = FreshDir("faulty_power");
  FaultyEnv env;
  {
    auto file = env.OpenAppendable(dir + "/f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("durable").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Append(" volatile").ok());  // never fsync'd
  }
  env.PowerLoss();
  EXPECT_EQ(Contents(env, dir + "/f"), "durable");
}

TEST(FaultyEnvTest, PowerLossRemovesNeverSyncedFile) {
  std::string dir = FreshDir("faulty_power_new");
  FaultyEnv env;
  {
    auto file = env.OpenTruncated(dir + "/never_synced");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("gone after crash").ok());
  }
  env.PowerLoss();
  EXPECT_EQ(env.ReadFile(dir + "/never_synced").status().code(),
            StatusCode::kNotFound);
}

TEST(FaultyEnvTest, PowerLossUndoesRenameUntilDirSync) {
  std::string dir = FreshDir("faulty_rename");
  FaultyEnv env;
  {
    auto file = env.OpenTruncated(dir + "/tmp");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("snapshot").ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  ASSERT_TRUE(env.RenameFile(dir + "/tmp", dir + "/final").ok());
  EXPECT_EQ(Contents(env, dir + "/final"), "snapshot");  // real effect now

  env.PowerLoss();  // ...but not durable without the directory fsync
  EXPECT_EQ(env.ReadFile(dir + "/final").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Contents(env, dir + "/tmp"), "snapshot");

  // With the directory fsync the rename survives power loss.
  ASSERT_TRUE(env.RenameFile(dir + "/tmp", dir + "/final").ok());
  ASSERT_TRUE(env.SyncDir(dir).ok());
  env.PowerLoss();
  EXPECT_EQ(Contents(env, dir + "/final"), "snapshot");
  EXPECT_EQ(env.ReadFile(dir + "/tmp").status().code(), StatusCode::kNotFound);
}

TEST(FaultyEnvTest, InjectedErrorFiresAtTheRequestedCall) {
  std::string dir = FreshDir("faulty_nth");
  FaultyEnv env;
  auto file = env.OpenAppendable(dir + "/f");
  ASSERT_TRUE(file.ok());
  env.ResetCounters();
  env.InjectAt(FaultyEnv::FaultKind::kError, 2);
  EXPECT_TRUE((*file)->Append("a").ok());   // call 0
  EXPECT_TRUE((*file)->Sync().ok());        // call 1
  EXPECT_FALSE((*file)->Append("b").ok());  // call 2: the armed one
  EXPECT_TRUE(env.fault_fired());
  EXPECT_TRUE((*file)->Append("c").ok());   // one-shot: disarmed
}

}  // namespace
}  // namespace tyder::storage
