// Copy-on-write schema tables (common/cow.h): a Schema copy shares every
// table with its original, and a mutator clones a table on its first write
// while another schema still holds it. These tests hold the isolation that
// makes this safe — a write through one copy never shows in another — on
// evolve-shaped random schemas and on the paper's Example 1, count the
// clones each mutator and each catalog operation makes, and run reader
// threads over published epochs while the writer tip defines and drops
// views (the TSan leg of scripts/run_all.sh runs this suite).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/serialize.h"
#include "methods/dispatch.h"
#include "mir/builder.h"
#include "obs/obs.h"
#include "storage/durable_catalog.h"
#include "testing/fixtures.h"
#include "workload/random_schema.h"

namespace tyder {
namespace {

// What a schema answers: its serialized tables, every ancestor row and the
// dispatch of every gf on every tuple of one type, and of every binary gf on
// every pair (on every pair whose second type is a builtin, for a mutator).
// Read from a fresh copy, so the rows and the dispatch index are rebuilt from
// the shared tables rather than served from a warm cache.
struct Answers {
  std::string text;
  std::vector<std::vector<uint64_t>> rows;
  std::vector<int64_t> dispatch;
  bool operator==(const Answers&) const = default;
};

int64_t DispatchAnswer(const Schema& schema, GfId gf,
                       const std::vector<TypeId>& args) {
  Result<MethodId> m = Dispatch(schema, gf, args);
  return m.ok() ? int64_t{*m} : -1 - static_cast<int64_t>(m.status().code());
}

Answers Observe(const Schema& schema) {
  Schema probe = schema;
  Answers out;
  out.text = SerializeSchema(probe);
  const TypeGraph& types = probe.types();
  const TypeId n = static_cast<TypeId>(types.NumTypes());
  for (TypeId t = 0; t < n; ++t) {
    std::span<const uint64_t> row = types.AncestorRow(t);
    out.rows.emplace_back(row.begin(), row.end());
  }
  for (GfId g = 0; g < probe.NumGenericFunctions(); ++g) {
    const GenericFunction& gf = probe.gf(g);
    bool mutator = !gf.methods.empty();
    for (MethodId m : gf.methods) {
      mutator = mutator && probe.method(m).kind == MethodKind::kMutator;
    }
    for (TypeId t = 0; t < n; ++t) {
      if (gf.arity != 2) {
        out.dispatch.push_back(
            DispatchAnswer(probe, g, std::vector<TypeId>(gf.arity, t)));
        continue;
      }
      for (TypeId u = 0; u < n; ++u) {
        if (mutator && types.type(u).kind() != TypeKind::kBuiltin) continue;
        out.dispatch.push_back(DispatchAnswer(probe, g, {t, u}));
      }
    }
  }
  return out;
}

uint64_t TableClones() {
  return obs::MetricsRegistry::Global().CounterValue("schema.table_clones");
}

// One mutator of the schema's public surface, and the tables its first
// write after a copy clones.
struct Mutation {
  std::string name;
  std::function<Status(Schema&)> apply;
  uint64_t clones;
};

// A base schema plus the arguments the mutators need: a user type `user`,
// and a leaf `leaf` (a subtype of Object only, owning and typing nothing)
// that RemoveTypes can delete and that takes new supertype edges without a
// cycle.
struct Base {
  Schema schema;
  TypeId user = kInvalidType;
  TypeId leaf = kInvalidType;
};

Base MakeBase(Schema schema) {
  Base base{std::move(schema)};
  TypeGraph& types = base.schema.types();
  for (TypeId t = 0; t < types.NumTypes(); ++t) {
    if (types.type(t).kind() == TypeKind::kUser) {
      base.user = t;
      break;
    }
  }
  EXPECT_NE(base.user, kInvalidType);
  Result<TypeId> leaf = types.DeclareType("SharingLeaf", TypeKind::kUser);
  EXPECT_TRUE(leaf.ok()) << leaf.status();
  base.leaf = *leaf;
  EXPECT_TRUE(types.AddSupertype(base.leaf, base.schema.builtins().object).ok());
  return base;
}

std::vector<Mutation> Mutations(const Base& base) {
  const TypeId user = base.user;
  const TypeId leaf = base.leaf;
  const BuiltinTypes b = base.schema.builtins();
  MethodId with_body = kInvalidMethod;
  for (MethodId m = 0; m < base.schema.NumMethods(); ++m) {
    if (base.schema.method(m).body != nullptr) {
      with_body = m;
      break;
    }
  }
  EXPECT_NE(with_body, kInvalidMethod);
  return {
      {"DeclareType",  // types, type names
       [](Schema& s) {
         return s.types().DeclareType("SharingNew", TypeKind::kUser).status();
       },
       2},
      {"DeclareSurrogate",  // types, type names
       [user](Schema& s) {
         return s.types().DeclareSurrogate("~SharingSurrogate", user).status();
       },
       2},
      {"AddSupertype",  // types
       [user, leaf](Schema& s) { return s.types().AddSupertype(leaf, user); },
       1},
      {"PrependSupertype",  // types
       [user, leaf](Schema& s) {
         s.types().mutable_type(leaf).PrependSupertype(user);
         return Status::OK();
       },
       1},
      {"DeclareAttribute",  // types, attributes, attribute names
       [user, b](Schema& s) {
         return s.types()
             .DeclareAttribute(user, "sharing_attr", b.int_type)
             .status();
       },
       3},
      {"MoveAttribute",  // types, attributes
       [leaf](Schema& s) { return s.types().MoveAttribute(0, leaf); }, 2},
      {"AddMethod",  // gfs, gf names, methods, method labels
       [user, b](Schema& s) -> Status {
         TYDER_ASSIGN_OR_RETURN(GfId gf,
                                s.DeclareGenericFunction("sharing_gf", 1));
         Method m;
         m.label = Symbol::Intern("sharing_m");
         m.gf = gf;
         m.sig = Signature{{user}, b.void_type};
         m.param_names = {Symbol::Intern("self")};
         m.body = mir::Seq({});
         return s.AddMethod(std::move(m)).status();
       },
       4},
      {"SetMethodSignature",  // methods
       [b](Schema& s) {
         Signature sig = s.method(0).sig;
         sig.result = sig.result == b.int_type ? b.string_type : b.int_type;
         s.SetMethodSignature(0, std::move(sig));
         return Status::OK();
       },
       1},
      {"SetMethodBody",  // methods
       [with_body](Schema& s) {
         s.SetMethodBody(with_body, mir::Seq({}));
         return Status::OK();
       },
       1},
      {"RemoveTypes",  // types, attributes, methods (type names are rebuilt)
       [leaf](Schema& s) {
         std::vector<bool> removed(s.types().NumTypes(), false);
         removed[leaf] = true;
         s.RemoveTypes(removed);
         return Status::OK();
       },
       3},
  };
}

// Applies every mutation to a copy and checks the original's answers, then
// to the original and checks the copy's.
void ExpectIsolated(const Base& base) {
  const Answers expected = Observe(base.schema);
  for (const Mutation& mutation : Mutations(base)) {
    SCOPED_TRACE(mutation.name);
    for (bool write_the_copy : {true, false}) {
      SCOPED_TRACE(write_the_copy ? "copy written" : "original written");
      Schema original = base.schema;
      Schema copy = original;
      Schema& written = write_the_copy ? copy : original;
      const Schema& kept = write_the_copy ? original : copy;
      uint64_t clones = TableClones();
      Status applied = mutation.apply(written);
      ASSERT_TRUE(applied.ok()) << applied;
#if TYDER_OBS_ENABLED
      EXPECT_EQ(TableClones() - clones, mutation.clones);
#endif
      (void)clones;
      EXPECT_TRUE(Observe(kept) == expected);
      EXPECT_NE(Observe(written).text, expected.text);
    }
  }
}

workload::RandomSchemaOptions EvolveShaped(uint32_t seed) {
  workload::RandomSchemaOptions gen;
  gen.seed = seed;
  gen.num_types = 40;
  gen.max_supers = 3;
  gen.attrs_per_type = 2;
  gen.num_general_methods = 40 / 3;
  gen.max_stmts_per_body = 4;
  gen.with_mutators = true;
  gen.methods_per_gf = 2;
  return gen;
}

TEST(SchemaSharingTest, MutatorsOnACopyLeaveRandomSchemasUnchanged) {
  for (uint32_t seed : {1u, 2u, 3u, 9001u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Result<Schema> schema = workload::GenerateRandomSchema(EvolveShaped(seed));
    ASSERT_TRUE(schema.ok()) << schema.status();
    ExpectIsolated(MakeBase(std::move(*schema)));
  }
}

TEST(SchemaSharingTest, MutatorsOnACopyLeaveExample1Unchanged) {
  auto fx = testing::BuildExample1(/*with_z_methods=*/true);
  ASSERT_TRUE(fx.ok()) << fx.status();
  ExpectIsolated(MakeBase(std::move(fx->schema)));
}

// A projection after a copy writes the same tables whether the copy or the
// original runs it, and the other side keeps its answers.
TEST(SchemaSharingTest, AProjectionLeavesItsSnapshotUnchanged) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  std::vector<std::string> projection;
  for (AttrId a : fx->Projection()) {
    projection.push_back(fx->schema.types().attribute(a).name.str());
  }
  Catalog catalog(std::move(fx->schema));
  const Schema before = catalog.schema();
  const Answers expected = Observe(before);
  ASSERT_TRUE(catalog.DefineProjectionView("W1", "A", projection).ok());
  EXPECT_TRUE(Observe(before) == expected);
  EXPECT_TRUE(Observe(*catalog.log().back().checkpoint) == expected);
  ASSERT_TRUE(catalog.DropView("W1").ok());
  EXPECT_TRUE(Observe(catalog.schema()) == expected);
}

TEST(SchemaSharingTest, CatalogOperationsCloneOnlyWhatTheyWrite) {
#if !TYDER_OBS_ENABLED
  GTEST_SKIP() << "counters are compiled out";
#else
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  std::vector<std::string> projection;
  for (AttrId a : fx->Projection()) {
    projection.push_back(fx->schema.types().attribute(a).name.str());
  }
  Catalog catalog(std::move(fx->schema));

  // Nothing to collapse yet: the Collapse returns before any write.
  uint64_t clones = TableClones();
  auto nothing = catalog.Collapse();
  ASSERT_TRUE(nothing.ok()) << nothing.status();
  ASSERT_TRUE(nothing->collapsed.empty());
  EXPECT_EQ(TableClones() - clones, 0u);

  // The projection declares surrogates (types, type names), moves the
  // projected attributes onto them (attributes) and rewrites the methods
  // FactorMethods re-homes (methods). The generic functions, their names,
  // the method labels, the reader and mutator indexes and the attribute
  // names stay shared with the view's checkpoint.
  clones = TableClones();
  ASSERT_TRUE(catalog.DefineProjectionView("W1", "A", projection).ok());
  EXPECT_EQ(TableClones() - clones, 4u);

  // Dropping the newest view restores its checkpoint: no table is copied.
  clones = TableClones();
  ASSERT_TRUE(catalog.DropView("W1").ok());
  EXPECT_EQ(TableClones() - clones, 0u);

  // A second write to a table the schema already holds alone clones nothing.
  ASSERT_TRUE(catalog.DeclareType("Fresh1", {"A"}).ok());
  clones = TableClones();
  ASSERT_TRUE(catalog.DeclareType("Fresh2", {"A"}).ok());
  EXPECT_EQ(TableClones() - clones, 0u);
#endif
}

// Reader threads pin published epochs and read their type and method
// tables while the writer defines and drops views on the tip, which shares
// those tables until its first write.
TEST(SchemaSharingTest, ReadersOfPublishedEpochsRaceTheWriterTip) {
  std::string dir = testing::UniqueTestDir("tyder_schema_sharing_test");
  auto db = storage::DurableCatalog::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  ASSERT_TRUE(db->Seed(Catalog(std::move(fx->schema))).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&] {
    uint64_t sum = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto pin = db->PinSnapshot();
      const Schema& schema = pin->schema();
      Result<TypeId> employee = schema.types().FindType("Employee");
      if (!employee.ok()) {
        ADD_FAILURE() << employee.status();
        return;
      }
      const TypeGraph& types = schema.types();
      for (TypeId t = 0; t < types.NumTypes(); ++t) {
        sum += types.type(t).supertypes().size();
      }
      for (MethodId m = 0; m < schema.NumMethods(); ++m) {
        sum += schema.method(m).sig.params.size();
      }
      for (GfId g = 0; g < schema.NumGenericFunctions(); ++g) {
        if (schema.gf(g).arity != 1) continue;
        Result<MethodId> m =
            Dispatch(schema, g, std::vector<TypeId>{*employee});
        if (m.ok()) sum += *m;
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
    EXPECT_GT(sum, 0u);
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader);

  Status written = Status::OK();
  for (int i = 0; i < 20 && written.ok(); ++i) {
    const std::string name = "Shared" + std::to_string(i);
    written = db->DefineProjectionView(name, "Employee",
                                       {"SSN", "date_of_birth"})
                  .status();
    if (written.ok() && i % 2 == 0) written = db->DropView(name);
  }
  while (written.ok() && reads.load(std::memory_order_relaxed) < 2) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(written.ok()) << written;
  EXPECT_EQ(db->catalog().views().size(), 10u);
}

}  // namespace
}  // namespace tyder
