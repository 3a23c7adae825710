// Query throughput: predicate evaluation over growing extents, on the base
// type vs. a derived view. A scan resolves each call once per concrete type
// it meets, so the derived hierarchy's dispatch costs it nothing per object.

#include <benchmark/benchmark.h>

#include "core/projection.h"
#include "query/query.h"
#include "testing/fixtures.h"

namespace tyder::bench {
namespace {

using tyder::testing::BuildPersonEmployee;
using tyder::testing::PersonEmployeeFixture;

struct Workload {
  PersonEmployeeFixture fx;
  ObjectStore store;
};

Result<Workload> BuildWorkload(int num_objects, bool with_view) {
  Workload w;
  TYDER_ASSIGN_OR_RETURN(w.fx, BuildPersonEmployee());
  if (with_view) {
    TYDER_RETURN_IF_ERROR(
        DeriveProjectionByName(w.fx.schema, "Employee",
                               {"SSN", "date_of_birth", "pay_rate"},
                               "EmployeeView")
            .status());
  }
  for (int i = 0; i < num_objects; ++i) {
    TYDER_ASSIGN_OR_RETURN(ObjectId obj,
                           w.store.CreateObject(w.fx.schema, w.fx.employee));
    TYDER_RETURN_IF_ERROR(
        w.store.SetSlot(obj, w.fx.date_of_birth, Value::Int(1950 + i % 60)));
    TYDER_RETURN_IF_ERROR(w.store.SetSlot(
        obj, w.fx.pay_rate, Value::Float(20.0 + (i * 7) % 150)));
  }
  return w;
}

void RunQuery(benchmark::State& state, const char* type_name, bool with_view) {
  auto workload = BuildWorkload(static_cast<int>(state.range(0)), with_view);
  if (!workload.ok()) {
    state.SkipWithError(workload.status().ToString().c_str());
    return;
  }
  Query query(workload->fx.schema, type_name);
  query.WhereTdl("get_pay_rate(self) < 100.0 and age(self) < 65")
      .Column("get_SSN");
  size_t matched = 0;
  for (auto _ : state) {
    auto result = query.Execute(workload->store);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    matched = result->objects.size();
    benchmark::DoNotOptimize(matched);
  }
  state.counters["matched"] = static_cast<double>(matched);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_QueryBaseType(benchmark::State& state) {
  RunQuery(state, "Employee", /*with_view=*/false);
}
BENCHMARK(BM_QueryBaseType)->RangeMultiplier(4)->Range(64, 4096);

void BM_QueryAfterDerivation(benchmark::State& state) {
  // Same extent and predicate, but the schema carries the factored
  // hierarchy; the rewritten accessors dispatch through surrogates.
  RunQuery(state, "Employee", /*with_view=*/true);
}
BENCHMARK(BM_QueryAfterDerivation)->RangeMultiplier(4)->Range(64, 4096);

void BM_QueryViaViewType(benchmark::State& state) {
  RunQuery(state, "EmployeeView", /*with_view=*/true);
}
BENCHMARK(BM_QueryViaViewType)->RangeMultiplier(4)->Range(64, 4096);

}  // namespace
}  // namespace tyder::bench
