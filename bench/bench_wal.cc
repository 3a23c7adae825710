// Durability cost (src/storage/): what an fsynced WAL append adds to a
// committed mutation, what snapshot compaction costs, and how recovery time
// scales with the number of log records that must be replayed. Each append
// is one write(2) plus one fsync(2), so WalAppend is dominated by the
// filesystem's sync latency — docs/PERFORMANCE.md quotes these numbers.

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "storage/durable_catalog.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "testing/fixtures.h"

namespace tyder::bench {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir =
      (fs::temp_directory_path() / ("tyder_bench_wal_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The raw unit of durability: append one record and fsync it.
void BM_WalAppend(benchmark::State& state) {
  std::string dir = FreshDir("append");
  auto writer = storage::WalWriter::Open(dir + "/wal.log");
  if (!writer.ok()) {
    state.SkipWithError(writer.status().ToString().c_str());
    return;
  }
  uint64_t lsn = 0;
  std::string payload = "project EmployeeView Employee SSN,pay_rate verify";
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer->Append(++lsn, payload).ok());
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppend);

// A logged derivation end to end: derive + append + fsync, against the
// in-memory Catalog::DefineProjectionView cost visible in bench_transaction.
void BM_LoggedDerivation(benchmark::State& state) {
  std::string dir = FreshDir("logged");
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    auto fx = testing::BuildPersonEmployee();
    auto db = storage::DurableCatalog::Open(dir);
    if (!fx.ok() || !db.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    if (!db->Seed(Catalog(std::move(fx->schema))).ok()) {
      state.SkipWithError("seed failed");
      return;
    }
    state.ResumeTiming();
    auto view = db->DefineProjectionView("EmployeeView", "Employee",
                                         {"SSN", "date_of_birth", "pay_rate"});
    benchmark::DoNotOptimize(view.ok());
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_LoggedDerivation);

// --- Env indirection cost (PR 7) ------------------------------------------
//
// Every WAL byte now routes through the virtual storage::Env interface. This
// pair isolates what that indirection adds to an un-synced append: both
// variants issue the same write(2) into the page cache (no fsync, so sync
// latency cannot mask the dispatch), in batches of kAppendBatch with the file
// truncated between batches so the benchmark does not fill /tmp. Dispatch
// must stay within 2% of Raw — docs/PERFORMANCE.md quotes the pair.

constexpr int kAppendBatch = 4096;
constexpr std::string_view kAppendPayload =
    "project EmployeeView Employee SSN,pay_rate verify";

// Through the interface: guard checks + failpoint probe + virtual hop.
void BM_EnvAppendDispatch(benchmark::State& state) {
  std::string dir = FreshDir("env_dispatch");
  auto file = storage::Env::Posix().OpenAppendable(dir + "/wal.log");
  if (!file.ok()) {
    state.SkipWithError(file.status().ToString().c_str());
    return;
  }
  while (state.KeepRunningBatch(kAppendBatch)) {
    for (int i = 0; i < kAppendBatch; ++i) {
      benchmark::DoNotOptimize((*file)->Append(kAppendPayload).ok());
    }
    state.PauseTiming();
    if (!(*file)->Truncate(0).ok()) {
      state.SkipWithError("truncate failed");
      return;
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kAppendPayload.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_EnvAppendDispatch);

// The floor: a bare write(2) loop with the same EINTR/short-write handling
// PosixEnv uses, minus the interface.
void BM_EnvAppendRaw(benchmark::State& state) {
  std::string dir = FreshDir("env_raw");
  int fd = ::open((dir + "/wal.log").c_str(),
                  O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    state.SkipWithError("open failed");
    return;
  }
  while (state.KeepRunningBatch(kAppendBatch)) {
    for (int i = 0; i < kAppendBatch; ++i) {
      const char* p = kAppendPayload.data();
      size_t left = kAppendPayload.size();
      while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
          if (errno == EINTR) continue;
          state.SkipWithError("write failed");
          ::close(fd);
          return;
        }
        p += n;
        left -= static_cast<size_t>(n);
      }
      benchmark::DoNotOptimize(left);
    }
    state.PauseTiming();
    if (::ftruncate(fd, 0) != 0) {
      state.SkipWithError("ftruncate failed");
      ::close(fd);
      return;
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kAppendPayload.size()));
  ::close(fd);
  fs::remove_all(dir);
}
BENCHMARK(BM_EnvAppendRaw);

// Snapshot + log truncation: the amortized cost of bounding recovery time.
void BM_Compact(benchmark::State& state) {
  std::string dir = FreshDir("compact");
  auto fx = testing::BuildPersonEmployee();
  auto db = storage::DurableCatalog::Open(dir);
  if (!fx.ok() || !db.ok() ||
      !db->Seed(Catalog(std::move(fx->schema))).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Compact().ok());
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_Compact);

// Recovery vs. log length: open a directory whose WAL holds N derivation
// records (alternating define/drop so the catalog stays small while the
// replay work grows linearly).
void BM_Recovery(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  std::string dir = FreshDir("recovery_" + std::to_string(records));
  {
    auto fx = testing::BuildPersonEmployee();
    auto db = storage::DurableCatalog::Open(dir);
    if (!fx.ok() || !db.ok() ||
        !db->Seed(Catalog(std::move(fx->schema))).ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    for (int i = 0; i < records / 2; ++i) {
      // A fresh name per round keeps the records of every length distinct.
      std::string name = "V" + std::to_string(i);
      if (!db->DefineProjectionView(name, "Employee", {"SSN"}).ok() ||
          !db->DropView(name).ok()) {
        state.SkipWithError("log construction failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    auto db = storage::DurableCatalog::Open(dir);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(db->recovery().replayed_records);
  }
  state.SetItemsProcessed(state.iterations() * records);
  fs::remove_all(dir);
}
BENCHMARK(BM_Recovery)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace tyder::bench
