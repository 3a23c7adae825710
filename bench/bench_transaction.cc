// Cost of the all-or-nothing machinery (core/transaction.h): what a schema
// snapshot costs on the happy path, what a rollback costs on the failure
// path, and that an inactive fault point is free. The snapshot shares the
// schema's tables (common/cow.h) and costs reference counts, so commit
// overhead must stay a small fraction of the derivation it protects.

#include <benchmark/benchmark.h>

#include "common/failpoint.h"
#include "core/projection.h"
#include "core/transaction.h"
#include "testing/fixtures.h"
#include "testing/random_schema.h"

namespace tyder::bench {
namespace {

using tyder::testing::BuildPersonEmployee;

Schema LargeRandomSchema() {
  testing::RandomSchemaOptions options;
  options.seed = 7;
  options.num_types = 40;
  options.num_general_methods = 30;
  auto schema = testing::GenerateRandomSchema(options);
  if (!schema.ok()) std::abort();
  return *std::move(schema);
}

// Baseline for the snapshot benches: a bare schema copy.
void BM_SchemaCopy(benchmark::State& state) {
  Schema schema = LargeRandomSchema();
  for (auto _ : state) {
    Schema copy = schema;
    benchmark::DoNotOptimize(copy.types().NumTypes());
  }
}
BENCHMARK(BM_SchemaCopy);

void BM_TransactionCommit(benchmark::State& state) {
  Schema schema = LargeRandomSchema();
  for (auto _ : state) {
    SchemaTransaction txn(schema);
    benchmark::DoNotOptimize(txn.Commit().ok());
    benchmark::DoNotOptimize(txn.committed());
  }
}
BENCHMARK(BM_TransactionCommit);

void BM_TransactionRollback(benchmark::State& state) {
  Schema schema = LargeRandomSchema();
  for (auto _ : state) {
    SchemaTransaction txn(schema);
    // No commit: the destructor restores the (unchanged) snapshot.
  }
  benchmark::DoNotOptimize(schema.types().NumTypes());
}
BENCHMARK(BM_TransactionRollback);

// The full failure path: derivation runs to the last phase boundary, fails,
// and rolls back — versus the same derivation succeeding.
void BM_DerivationWithRollback(benchmark::State& state) {
  failpoint::Activate("verify.before");
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = BuildPersonEmployee();
    if (!fx.ok()) {
      state.SkipWithError(fx.status().ToString().c_str());
      failpoint::DeactivateAll();
      return;
    }
    state.ResumeTiming();
    auto result = DeriveProjectionByName(
        fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
    benchmark::DoNotOptimize(result.ok());
  }
  failpoint::DeactivateAll();
}
BENCHMARK(BM_DerivationWithRollback);

void BM_DerivationCommitted(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = BuildPersonEmployee();
    if (!fx.ok()) {
      state.SkipWithError(fx.status().ToString().c_str());
      return;
    }
    state.ResumeTiming();
    auto result = DeriveProjectionByName(
        fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_DerivationCommitted);

// An inactive fault point must cost one relaxed atomic load — nothing.
Status HitInactiveFaultPoint() {
  TYDER_FAULT_POINT("verify.before");
  return Status::OK();
}

void BM_FaultPointInactive(benchmark::State& state) {
  failpoint::DeactivateAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HitInactiveFaultPoint().ok());
  }
}
BENCHMARK(BM_FaultPointInactive);

}  // namespace
}  // namespace tyder::bench
