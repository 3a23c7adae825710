// Section 7's open problem, quantified: surrogate growth when views are
// defined over views, with and without the empty-surrogate collapse pass.
// The `live_surrogates` / `after_collapse` / `num_types` counters are the
// series for the EXPERIMENTS.md table; `num_types` is the schema's NumTypes
// (after the collapse, in the collapse series), builtins and payroll's base
// types included.

#include <benchmark/benchmark.h>

#include "catalog/catalog.h"
#include "testing/fixtures.h"

namespace tyder::bench {
namespace {

Result<Catalog> BuildChainCatalog(int depth) {
  TYDER_ASSIGN_OR_RETURN(tyder::testing::PersonEmployeeFixture fx,
                         tyder::testing::BuildPersonEmployee());
  Catalog catalog(std::move(fx.schema));
  std::string source = "Employee";
  for (int i = 0; i < depth; ++i) {
    std::string name = "V" + std::to_string(i);
    TYDER_RETURN_IF_ERROR(
        catalog
            .DefineProjectionView(name, source,
                                  {"SSN", "date_of_birth", "pay_rate"})
            .status());
    source = name;
  }
  return catalog;
}

void BM_ViewChainNoCollapse(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  size_t surrogates = 0, types = 0;
  for (auto _ : state) {
    auto catalog = BuildChainCatalog(depth);
    if (!catalog.ok()) {
      state.SkipWithError(catalog.status().ToString().c_str());
      return;
    }
    surrogates = catalog->LiveSurrogateCount();
    types = catalog->schema().types().NumTypes();
    benchmark::DoNotOptimize(surrogates);
  }
  state.counters["live_surrogates"] = static_cast<double>(surrogates);
  state.counters["num_types"] = static_cast<double>(types);
}
BENCHMARK(BM_ViewChainNoCollapse)->DenseRange(1, 8);

void BM_ViewChainWithCollapse(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  size_t before = 0, after = 0, types = 0;
  for (auto _ : state) {
    auto catalog = BuildChainCatalog(depth);
    if (!catalog.ok()) {
      state.SkipWithError(catalog.status().ToString().c_str());
      return;
    }
    before = catalog->LiveSurrogateCount();
    auto report = catalog->Collapse();
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    after = catalog->LiveSurrogateCount();
    types = catalog->schema().types().NumTypes();
    benchmark::DoNotOptimize(after);
  }
  state.counters["live_surrogates"] = static_cast<double>(before);
  state.counters["after_collapse"] = static_cast<double>(after);
  state.counters["num_types"] = static_cast<double>(types);
}
BENCHMARK(BM_ViewChainWithCollapse)->DenseRange(1, 8);

}  // namespace
}  // namespace tyder::bench
