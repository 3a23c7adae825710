// Concurrency stressor for the frozen-schema query paths: N threads hammer
// IsSubtype / ApplicableMethods / DispatchOrder on a freshly invalidated
// schema, so they race to allocate the closure and build its rows and to
// build the dispatch index, interleaved with exclusive mutation + Invalidate
// cycles.
// The suite name matches the tsan regex in scripts/run_all.sh, so every
// cycle runs under ThreadSanitizer in that mode; a single-threaded
// oracle sweep at the end of each cycle proves the answers stayed right,
// not merely race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "methods/applicability.h"
#include "methods/dispatch.h"
#include "mir/builder.h"
#include "oracle/differential.h"
#include "oracle/reference.h"
#include "storage/durable_catalog.h"
#include "testing/fixtures.h"
#include "testing/random_schema.h"

namespace tyder {
namespace {

TEST(OracleStressTest, ConcurrentQueriesDuringPrewarmInvalidateCycles) {
  testing::RandomSchemaOptions options;
  options.seed = 99;
  options.num_types = 10;
  options.num_general_methods = 6;
  options.methods_per_gf = 2;
  auto schema_or = testing::GenerateRandomSchema(options);
  ASSERT_TRUE(schema_or.ok()) << schema_or.status().ToString();
  Schema schema = std::move(*schema_or);

  const int kCycles = 24;
  const unsigned kThreads =
      std::max(4u, std::min(8u, std::thread::hardware_concurrency()));
  const int kQueriesPerThread = 400;

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Exclusive mutation phase: grow the hierarchy, invalidating the closure
    // and (via the version bump) the dispatch index.
    TypeGraph& graph = schema.types();
    auto t = graph.DeclareType("S" + std::to_string(cycle), TypeKind::kUser);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    TypeId base = static_cast<TypeId>(cycle % options.num_types);
    ASSERT_TRUE(graph.AddSupertype(*t, base).ok());

    // Frozen phase: concurrent readers warm the cold caches between them.
    const size_t num_types = graph.NumTypes();
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        std::mt19937 rng(static_cast<uint32_t>(cycle * 131 + tid));
        std::uniform_int_distribution<size_t> pick_type(0, num_types - 1);
        std::uniform_int_distribution<size_t> pick_gf(
            0, schema.NumGenericFunctions() - 1);
        for (int q = 0; q < kQueriesPerThread; ++q) {
          TypeId a = static_cast<TypeId>(pick_type(rng));
          TypeId b = static_cast<TypeId>(pick_type(rng));
          (void)schema.types().IsSubtype(a, b);
          GfId gf = static_cast<GfId>(pick_gf(rng));
          std::vector<TypeId> args;
          for (int i = 0; i < schema.gf(gf).arity; ++i) {
            args.push_back(static_cast<TypeId>(pick_type(rng)));
          }
          std::vector<MethodId> scanned = ApplicableMethods(schema, gf, args);
          std::vector<MethodId> order = DispatchOrder(schema, gf, args);
          // Cheap cross-thread sanity: the dispatch order is a permutation
          // of the applicable set, whatever interleaving built the index.
          if (scanned.size() != order.size()) ok.store(false);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    ASSERT_TRUE(ok.load()) << "applicable/order size mismatch under threads";

    // Single-threaded truth check: whatever the interleaving did to the
    // caches, the answers must still match the naive oracle.
    Status s = oracle::CheckSubtypeOracle(schema);
    ASSERT_TRUE(s.ok()) << "cycle " << cycle << ": " << s.ToString();
  }

  // One full differential at the end (dispatch included).
  oracle::DifferentialOptions dopts;
  dopts.tuples_per_gf = 4;
  dopts.exhaustive_tuple_limit = 128;
  Status s = oracle::CheckSchemaAgainstOracle(schema, dopts);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Epoch-churn variant: readers never coordinate with the writer at all.
// Each reader loop pins the current schema epoch (DurableCatalog::
// PinSnapshot) and queries the frozen snapshot while a writer commits
// derive / collapse / drop cycles through the group-committed WAL,
// publishing a new epoch per commit. Every pinned snapshot must agree
// with the naive oracle — a reader can observe any committed epoch, but
// never a torn or half-mutated one. `age` gets a second method, so the
// readers' first dispatches on a fresh epoch race to build a dispatch index
// with real content.
TEST(OracleStressTest, EpochChurnReadersMatchOracleOnPinnedSnapshots) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  GfId age = fx->schema.method(fx->age).gf;
  Method age_employee;
  age_employee.label = Symbol::Intern("age_employee");
  age_employee.gf = age;
  age_employee.kind = MethodKind::kGeneral;
  age_employee.sig = fx->schema.method(fx->age).sig;
  age_employee.sig.params = {fx->employee};
  age_employee.param_names = {Symbol::Intern("e")};
  age_employee.body = mir::Seq({mir::Return(mir::IntLit(40))});
  ASSERT_TRUE(fx->schema.AddMethod(std::move(age_employee)).ok());

  std::string dir = testing::UniqueTestDir("tyder_epoch_churn_stress");
  auto db = storage::DurableCatalog::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->Seed(Catalog(std::move(fx->schema))).ok());

  const int kWriterCycles = 40;
  const unsigned kReaders =
      std::max(3u, std::min(7u, std::thread::hardware_concurrency() - 1));
  std::atomic<bool> writer_done{false};
  std::atomic<bool> ok{true};

  std::vector<std::thread> readers;
  for (unsigned tid = 0; tid < kReaders; ++tid) {
    readers.emplace_back([&, tid] {
      std::mt19937 rng(1000 + tid);
      int sweeps = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        auto pin = db->PinSnapshot();
        const Schema& schema = pin->schema();
        const size_t num_types = schema.types().NumTypes();
        std::uniform_int_distribution<size_t> pick_type(0, num_types - 1);
        std::uniform_int_distribution<size_t> pick_gf(
            0, schema.NumGenericFunctions() - 1);
        for (int q = 0; q < 64; ++q) {
          TypeId a = static_cast<TypeId>(pick_type(rng));
          TypeId b = static_cast<TypeId>(pick_type(rng));
          (void)schema.types().IsSubtype(a, b);
          GfId gf = static_cast<GfId>(pick_gf(rng));
          std::vector<TypeId> args;
          for (int i = 0; i < schema.gf(gf).arity; ++i) {
            args.push_back(static_cast<TypeId>(pick_type(rng)));
          }
          if (ApplicableMethods(schema, gf, args).size() !=
              DispatchOrder(schema, gf, args).size()) {
            ok.store(false);
          }
        }
        for (TypeId t = 0; t < num_types; ++t) {
          Result<MethodId> got = Dispatch(schema, age, {t});
          Result<MethodId> want = oracle::RefDispatch(schema, age, {t});
          if (got.ok() != want.ok() || (got.ok() && *got != *want)) {
            ok.store(false);
          }
        }
        // Engine == oracle on the pinned (frozen) snapshot, concurrently
        // with the writer publishing newer epochs past it.
        Status s = oracle::CheckSubtypeOracle(schema);
        if (!s.ok()) ok.store(false);
        ++sweeps;
      }
      EXPECT_GT(sweeps, 0);
    });
  }

  // The writer: each iteration is one derive / drop (+ periodic collapse)
  // cycle, i.e. two to three group-committed epoch publishes.
  for (int cycle = 0; cycle < kWriterCycles && ok.load(); ++cycle) {
    std::string name = "Churn" + std::to_string(cycle);
    auto view = db->DefineProjectionView(name, "Employee",
                                         {"SSN", "date_of_birth"});
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_TRUE(db->DropView(name).ok());
    if (cycle % 8 == 7) {
      auto report = db->Collapse();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(ok.load()) << "a pinned epoch disagreed with the oracle";

  // Quiesced: everything the churn retired is now reclaimable, and the tip
  // still matches the oracle.
  db->epochs().TryReclaim();
  EXPECT_EQ(db->epochs().retired_pending(), 0u);
  EXPECT_TRUE(oracle::CheckSubtypeOracle(db->catalog().schema()).ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tyder
