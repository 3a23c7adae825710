// WAL format contract: round trips, torn-tail tolerance at every truncation
// length, and precise rejection of mid-log corruption (storage/wal.h).

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/failpoint.h"
#include "testing/fixtures.h"

namespace tyder::storage {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::UniqueTestDir("tyder_wal_test_" + name);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalTest, MissingFileIsAnEmptyLog) {
  std::string dir = FreshDir("missing");
  auto result = ReadWal(dir + "/wal.log");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->valid_bytes, 0u);
  EXPECT_TRUE(result->torn_tail_warning.empty());
}

TEST(WalTest, AppendReadRoundTrip) {
  std::string dir = FreshDir("roundtrip");
  std::string path = dir + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(1, "project V Emp a,b verify").ok());
    ASSERT_TRUE(writer->Append(2, "").ok());  // empty payload is legal
    ASSERT_TRUE(writer->Append(7, "drop V").ok());  // lsn gaps are legal
  }
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].lsn, 1u);
  EXPECT_EQ(result->records[0].payload, "project V Emp a,b verify");
  EXPECT_EQ(result->records[1].lsn, 2u);
  EXPECT_EQ(result->records[1].payload, "");
  EXPECT_EQ(result->records[2].lsn, 7u);
  EXPECT_EQ(result->records[2].payload, "drop V");
  EXPECT_EQ(result->valid_bytes, ReadAll(path).size());
  EXPECT_TRUE(result->torn_tail_warning.empty());
}

// The core torn-tail guarantee: a crash can cut the file at ANY byte; every
// truncation length must recover the longest valid record prefix with a
// warning — never an error, never a crash.
TEST(WalTest, EveryTruncationLengthIsAValidTornTail) {
  std::string dir = FreshDir("torn");
  std::string path = dir + "/wal.log";
  std::vector<std::string> payloads = {"project V1 T a verify", "drop V1",
                                       "collapse"};
  std::vector<uint64_t> boundaries;  // cumulative record end offsets
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_TRUE(writer->Append(i + 1, payloads[i]).ok());
      boundaries.push_back(ReadAll(path).size());
    }
  }
  std::string full = ReadAll(path);
  for (size_t len = 0; len < full.size(); ++len) {
    auto result = ParseWal(std::string_view(full).substr(0, len));
    ASSERT_TRUE(result.ok())
        << "prefix of " << len << " bytes was rejected: " << result.status();
    size_t complete = 0;
    while (complete < boundaries.size() && boundaries[complete] <= len) {
      ++complete;
    }
    EXPECT_EQ(result->records.size(), complete) << "at length " << len;
    EXPECT_EQ(result->valid_bytes, complete == 0 ? 0 : boundaries[complete - 1])
        << "at length " << len;
    bool at_boundary = len == 0 || (complete > 0 && boundaries[complete - 1] == len);
    EXPECT_EQ(result->torn_tail_warning.empty(), at_boundary)
        << "at length " << len;
  }
}

TEST(WalTest, ChecksumMismatchOnFinalRecordIsATornTail) {
  std::string dir = FreshDir("finalflip");
  std::string path = dir + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(1, "project V T a verify").ok());
    ASSERT_TRUE(writer->Append(2, "drop V").ok());
  }
  std::string bytes = ReadAll(path);
  bytes.back() ^= 0x40;  // corrupt the last record's payload
  auto result = ParseWal(bytes);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->records.size(), 1u);
  EXPECT_NE(result->torn_tail_warning.find("checksum mismatch"),
            std::string::npos);
}

TEST(WalTest, MidLogCorruptionIsRejectedWithOffset) {
  std::string dir = FreshDir("midflip");
  std::string path = dir + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(1, "project V T a verify").ok());
    ASSERT_TRUE(writer->Append(2, "drop V").ok());
  }
  std::string bytes = ReadAll(path);
  bytes[20] ^= 0x01;  // inside the first record's payload
  auto result = ParseWal(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("offset 0"), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("refusing to replay"),
            std::string::npos)
      << result.status();
}

TEST(WalTest, NonAdvancingLsnIsRejected) {
  std::string dir = FreshDir("lsn");
  std::string path = dir + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(5, "a").ok());
    ASSERT_TRUE(writer->Append(5, "b").ok());  // writer does not police lsns
  }
  auto result = ReadWal(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("does not advance"),
            std::string::npos)
      << result.status();
}

TEST(WalTest, RepairTornTailMakesTheLogAppendableAgain) {
  std::string dir = FreshDir("repair");
  std::string path = dir + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(1, "project V T a verify").ok());
  }
  std::string intact = ReadAll(path);
  WriteAll(path, intact + "partial garbage");
  auto torn = ReadWal(path);
  ASSERT_TRUE(torn.ok()) << torn.status();
  ASSERT_FALSE(torn->torn_tail_warning.empty());
  ASSERT_TRUE(RepairTornTail(path, torn->valid_bytes).ok());
  EXPECT_EQ(ReadAll(path), intact);

  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append(2, "drop V").ok());
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->records.size(), 2u);
  EXPECT_TRUE(result->torn_tail_warning.empty());
}

// A failed append (here: an injected torn write) must leave the file exactly
// as it was — the undo keeps the tail clean so the very next append works.
TEST(WalTest, FailedAppendUndoesItsPartialWrite) {
  std::string dir = FreshDir("undo");
  std::string path = dir + "/wal.log";
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append(1, "project V T a verify").ok());
  std::string before = ReadAll(path);

  failpoint::Activate("storage.wal.torn_write", 1);
  Status failed = writer->Append(2, "drop V");
  failpoint::DeactivateAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(ReadAll(path), before);

  ASSERT_TRUE(writer->Append(2, "drop V").ok());
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->records.size(), 2u);
}

TEST(WalTest, TruncateAllEmptiesTheLog) {
  std::string dir = FreshDir("truncate");
  std::string path = dir + "/wal.log";
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append(1, "project V T a verify").ok());
  ASSERT_TRUE(writer->TruncateAll().ok());
  auto result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->records.empty());
  // The next append after a truncate parses cleanly.
  ASSERT_TRUE(writer->Append(2, "drop V").ok());
  result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->records[0].lsn, 2u);
}

}  // namespace
}  // namespace tyder::storage
