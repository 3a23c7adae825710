// Tests for the per-version dispatch index (methods/dispatch_index.h): its
// applicability masks must agree bit-for-bit with the brute-force scan,
// Dispatch and DispatchOrder must equal the oracle's reference on every
// argument tuple, no index may survive a schema mutation or a rollback, and
// concurrent first reads must race the build safely (run under
// `run_all.sh tsan`).

#include "methods/dispatch_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "core/transaction.h"
#include "methods/applicability.h"
#include "methods/dispatch.h"
#include "methods/precedence.h"
#include "oracle/reference.h"
#include "testing/fixtures.h"
#include "testing/random_schema.h"

namespace tyder {
namespace {

// The brute-force definition the masks must reproduce: scan the gf's methods
// in registration order, keep those applicable to the call.
std::vector<MethodId> BruteForceApplicable(const Schema& schema, GfId gf,
                                           const std::vector<TypeId>& args) {
  std::vector<MethodId> out;
  for (MethodId m : schema.gf(gf).methods) {
    if (ApplicableToCall(schema, m, args)) out.push_back(m);
  }
  return out;
}

Result<MethodId> AddGeneral(Schema& schema, GfId gf, const std::string& label,
                            const std::vector<TypeId>& formals) {
  Method m;
  m.label = Symbol::Intern(label);
  m.gf = gf;
  m.kind = MethodKind::kGeneral;
  m.sig = Signature{formals, schema.builtins().void_type};
  for (size_t i = 0; i < formals.size(); ++i) {
    m.param_names.push_back(Symbol::Intern("p" + std::to_string(i)));
  }
  return schema.AddMethod(std::move(m));
}

// Calls visit(args) for every tuple of `arity` types of `schema`.
template <typename Visit>
void ForEveryTuple(const Schema& schema, int arity, Visit&& visit) {
  const size_t n = schema.types().NumTypes();
  size_t count = 1;
  for (int i = 0; i < arity; ++i) count *= n;
  std::vector<TypeId> args(static_cast<size_t>(arity));
  for (size_t k = 0; k < count; ++k) {
    size_t rem = k;
    for (TypeId& a : args) {
      a = static_cast<TypeId>(rem % n);
      rem /= n;
    }
    visit(args);
  }
}

// Dispatch and DispatchOrder against RefDispatch and RefDispatchOrder on
// every tuple of every gf with two or more methods.
void ExpectMatchesReference(const Schema& schema, const std::string& where) {
  for (GfId gf = 0; gf < schema.NumGenericFunctions(); ++gf) {
    if (schema.gf(gf).methods.size() < 2) continue;
    ForEveryTuple(schema, schema.gf(gf).arity,
                  [&](const std::vector<TypeId>& args) {
      Result<MethodId> got = Dispatch(schema, gf, args);
      Result<MethodId> want = oracle::RefDispatch(schema, gf, args);
      ASSERT_EQ(got.ok(), want.ok()) << where << " gf " << gf;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << where << " gf " << gf;
      }
      ASSERT_EQ(DispatchOrder(schema, gf, args),
                oracle::RefDispatchOrder(schema, gf, args))
          << where << " gf " << gf;
    });
  }
}

TEST(DispatchTableTest, MasksMatchBruteForceOnRandomSchemas) {
  for (uint32_t seed : {7u, 8u, 9u}) {
    testing::RandomSchemaOptions options;
    options.seed = seed;
    options.num_types = 16;
    options.num_general_methods = 20;
    options.methods_per_gf = 3;
    auto schema = testing::GenerateRandomSchema(options);
    ASSERT_TRUE(schema.ok()) << schema.status();
    std::mt19937 rng(seed);
    size_t num_types = schema->types().NumTypes();
    const DispatchIndex& index = DispatchIndex::Of(*schema);
    for (GfId gf = 0; gf < schema->NumGenericFunctions(); ++gf) {
      int arity = schema->gf(gf).arity;
      for (int trial = 0; trial < 32; ++trial) {
        std::vector<TypeId> args;
        for (int i = 0; i < arity; ++i) {
          args.push_back(static_cast<TypeId>(rng() % num_types));
        }
        EXPECT_EQ(index.Applicable(*schema, gf, args),
                  BruteForceApplicable(*schema, gf, args))
            << "seed " << seed << " gf " << gf;
      }
    }
  }
}

TEST(DispatchTableTest, ArityMismatchYieldsEmptySet) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  auto u = fx->schema.FindGenericFunction("u");
  ASSERT_TRUE(u.ok());
  const DispatchIndex& index = DispatchIndex::Of(fx->schema);
  EXPECT_TRUE(index.Applicable(fx->schema, *u, {}).empty());
  EXPECT_TRUE(index.Applicable(fx->schema, *u, {fx->a, fx->a}).empty());
  EXPECT_TRUE(DispatchOrder(fx->schema, *u, {fx->a, fx->a}).empty());
}

TEST(DispatchTableTest, DispatchOrderEmptyWhenNothingApplies) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  // income is defined on Employee only; a Person argument has no applicable
  // method — the order is empty and Dispatch reports NotFound.
  auto income = fx->schema.FindGenericFunction("income");
  ASSERT_TRUE(income.ok());
  EXPECT_TRUE(DispatchOrder(fx->schema, *income, {fx->person}).empty());
  EXPECT_EQ(Dispatch(fx->schema, *income, {fx->person}).status().code(),
            StatusCode::kNotFound);
}

// Two methods on unrelated formals, probed with an argument below both:
// neither formal is a subtype of the other, so the order is decided by the
// argument's class precedence list (Left precedes Right in CPL(Both)) — the
// index must agree with the direct sort, on the read that builds it and on
// later reads.
TEST(DispatchTableTest, AmbiguousMethodsFollowArgumentPrecedence) {
  auto schema = Schema::Create();
  ASSERT_TRUE(schema.ok()) << schema.status();
  TypeGraph& g = schema->types();
  auto left = g.DeclareType("Left", TypeKind::kUser);
  auto right = g.DeclareType("Right", TypeKind::kUser);
  auto both = g.DeclareType("Both", TypeKind::kUser);
  ASSERT_TRUE(left.ok() && right.ok() && both.ok());
  ASSERT_TRUE(g.AddSupertype(*both, *left).ok());
  ASSERT_TRUE(g.AddSupertype(*both, *right).ok());
  auto gf = schema->DeclareGenericFunction("amb", 1);
  ASSERT_TRUE(gf.ok());
  auto on_left = AddGeneral(*schema, *gf, "amb_left", {*left});
  auto on_right = AddGeneral(*schema, *gf, "amb_right", {*right});
  ASSERT_TRUE(on_left.ok() && on_right.ok());

  std::vector<MethodId> expected = {*on_left, *on_right};
  EXPECT_EQ(DispatchOrder(*schema, *gf, {*both}), expected);  // builds
  EXPECT_EQ(DispatchOrder(*schema, *gf, {*both}), expected);  // reads
  EXPECT_EQ(SortBySpecificity(*schema, *gf, {*both}), expected);
  auto best = Dispatch(*schema, *gf, {*both});
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, *on_left);
}

// A long specificity order (one method per level of a 12-deep chain) comes
// back complete from DispatchOrder, most specific first.
TEST(DispatchTableTest, OrderLongerThanCacheLineIsComplete) {
  auto schema = Schema::Create();
  ASSERT_TRUE(schema.ok()) << schema.status();
  TypeGraph& g = schema->types();
  constexpr int kChain = 12;
  std::vector<TypeId> chain;
  for (int i = 0; i < kChain; ++i) {
    auto t = g.DeclareType("C" + std::to_string(i), TypeKind::kUser);
    ASSERT_TRUE(t.ok());
    if (i > 0) {
      ASSERT_TRUE(g.AddSupertype(chain.back(), *t).ok());
    }
    chain.push_back(*t);
  }
  auto gf = schema->DeclareGenericFunction("deep", 1);
  ASSERT_TRUE(gf.ok());
  std::vector<MethodId> expected;  // most specific (C0) first
  for (int i = 0; i < kChain; ++i) {
    auto id = AddGeneral(*schema, *gf, "deep_" + std::to_string(i), {chain[i]});
    ASSERT_TRUE(id.ok());
    expected.push_back(*id);
  }
  EXPECT_EQ(DispatchOrder(*schema, *gf, {chain[0]}), expected);
  EXPECT_EQ(DispatchOrder(*schema, *gf, {chain[0]}), expected);
  auto best = Dispatch(*schema, *gf, {chain[0]});
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, expected.front());
}

// A schema mutation must retire the index: adding a more specific method
// after a dispatch has built it changes the winner.
TEST(DispatchCacheTest, SchemaMutationInvalidatesCachedCallSites) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  auto age = fx->schema.FindGenericFunction("age");
  ASSERT_TRUE(age.ok());
  auto before = Dispatch(fx->schema, *age, {fx->employee});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, fx->age);  // inherited from Person; index built

  Method m;
  m.label = Symbol::Intern("age_employee");
  m.gf = *age;
  m.kind = MethodKind::kGeneral;
  m.sig = Signature{{fx->employee}, fx->schema.method(fx->age).sig.result};
  m.param_names = {Symbol::Intern("self")};
  auto specialized = fx->schema.AddMethod(std::move(m));
  ASSERT_TRUE(specialized.ok()) << specialized.status();

  auto after = Dispatch(fx->schema, *age, {fx->employee});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *specialized);
  // The Person call is unaffected in outcome, only recomputed.
  auto person_call = Dispatch(fx->schema, *age, {fx->person});
  ASSERT_TRUE(person_call.ok());
  EXPECT_EQ(*person_call, fx->age);
}

// Hierarchy edits (not just method registration) must also invalidate: the
// type-graph version feeds Schema::version(), and even an indexed empty
// verdict must be retired by the edit.
TEST(DispatchCacheTest, HierarchyEditInvalidatesCachedCallSites) {
  auto schema = Schema::Create();
  ASSERT_TRUE(schema.ok()) << schema.status();
  TypeGraph& g = schema->types();
  auto top = g.DeclareType("Top", TypeKind::kUser);
  auto mid = g.DeclareType("Mid", TypeKind::kUser);
  auto side = g.DeclareType("Side", TypeKind::kUser);
  auto leaf = g.DeclareType("Leaf", TypeKind::kUser);
  ASSERT_TRUE(top.ok() && mid.ok() && side.ok() && leaf.ok());
  ASSERT_TRUE(g.AddSupertype(*mid, *top).ok());
  ASSERT_TRUE(g.AddSupertype(*leaf, *top).ok());
  auto gf = schema->DeclareGenericFunction("f", 1);
  ASSERT_TRUE(gf.ok());
  auto f_mid = AddGeneral(*schema, *gf, "f_mid", {*mid});
  auto f_side = AddGeneral(*schema, *gf, "f_side", {*side});
  ASSERT_TRUE(f_mid.ok() && f_side.ok());

  // Leaf is not under Mid yet: no applicable method, and that empty verdict
  // is now in the index's unary answers.
  EXPECT_EQ(Dispatch(*schema, *gf, {*leaf}).status().code(),
            StatusCode::kNotFound);
  // Graft Leaf under Mid; the indexed empty verdict must not survive.
  ASSERT_TRUE(g.AddSupertype(*leaf, *mid).ok());
  auto after = Dispatch(*schema, *gf, {*leaf});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, *f_mid);
}

// A chain schema with one gf carrying `num_methods` methods, one per chain
// type (most specific first). Probing with chain[0] makes every method
// applicable.
struct ChainGf {
  Schema schema;
  GfId gf = kInvalidGf;
  std::vector<TypeId> chain;
  std::vector<MethodId> methods;  // registration order == specificity order
};

Result<ChainGf> BuildChainGf(int num_methods) {
  ChainGf out;
  TYDER_ASSIGN_OR_RETURN(out.schema, Schema::Create());
  TypeGraph& g = out.schema.types();
  for (int i = 0; i < num_methods; ++i) {
    TYDER_ASSIGN_OR_RETURN(
        TypeId t, g.DeclareType("K" + std::to_string(i), TypeKind::kUser));
    if (i > 0) TYDER_RETURN_IF_ERROR(g.AddSupertype(out.chain.back(), t));
    out.chain.push_back(t);
  }
  TYDER_ASSIGN_OR_RETURN(out.gf, out.schema.DeclareGenericFunction("k", 1));
  for (int i = 0; i < num_methods; ++i) {
    TYDER_ASSIGN_OR_RETURN(
        MethodId id, AddGeneral(out.schema, out.gf, "k_" + std::to_string(i),
                                {out.chain[i]}));
    out.methods.push_back(id);
  }
  return out;
}

// More methods than one mask word holds (70 > 64): the bit for method 64+
// lives in the second word, where a word-count bug would truncate or read
// past the row.
TEST(DispatchTableBoundaryTest, MultiWordMasksMatchBruteForce) {
  constexpr int kMethods = 70;
  auto chain = BuildChainGf(kMethods);
  ASSERT_TRUE(chain.ok()) << chain.status();
  const DispatchIndex& index = DispatchIndex::Of(chain->schema);
  for (int i = 0; i < kMethods; ++i) {
    std::vector<TypeId> args = {chain->chain[static_cast<size_t>(i)]};
    std::vector<MethodId> brute =
        BruteForceApplicable(chain->schema, chain->gf, args);
    ASSERT_EQ(brute.size(), static_cast<size_t>(kMethods - i));
    EXPECT_EQ(index.Applicable(chain->schema, chain->gf, args), brute)
        << "probe at chain position " << i;
    EXPECT_EQ(DispatchOrder(chain->schema, chain->gf, args), brute)
        << "probe at chain position " << i;
    auto best = Dispatch(chain->schema, chain->gf, args);
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(*best, chain->methods[static_cast<size_t>(i)]);
  }
}

// Arity mismatches yield the empty set on both paths: a one-method gf
// (answered by IsSubtype alone) and a two-method gf (answered by masks).
TEST(DispatchTableBoundaryTest, ArityMismatchEmptyOnBothPaths) {
  for (int num_methods : {1, 2}) {
    auto chain = BuildChainGf(num_methods);
    ASSERT_TRUE(chain.ok()) << chain.status();
    const Schema& schema = chain->schema;
    std::vector<TypeId> wide = {chain->chain[0], chain->chain[0]};
    const DispatchIndex& index = DispatchIndex::Of(schema);
    EXPECT_TRUE(index.Applicable(schema, chain->gf, {}).empty());
    EXPECT_TRUE(index.Applicable(schema, chain->gf, wide).empty());
    EXPECT_TRUE(DispatchOrder(schema, chain->gf, wide).empty());
    EXPECT_EQ(Dispatch(schema, chain->gf, wide).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index.Applicable(schema, chain->gf, {chain->chain[0]}).size(),
              static_cast<size_t>(num_methods));
  }
}

// Random multiple-inheritance schemas (some types without a C3
// linearization) plus gfs at arity 1, 2 and 3 whose formals are drawn with
// replacement, so identical-formal twins occur, and a unary gf with more
// methods than one mask word holds.
Result<Schema> SchemaWithMultiMethods(uint32_t seed) {
  testing::RandomSchemaOptions options;
  options.seed = seed;
  options.num_types = 9;
  options.max_supers = 3;
  options.num_general_methods = 6;
  options.methods_per_gf = 3;
  TYDER_ASSIGN_OR_RETURN(Schema schema, testing::GenerateRandomSchema(options));
  std::mt19937 rng(seed);
  std::vector<TypeId> user;
  for (TypeId t = 0; t < schema.types().NumTypes(); ++t) {
    if (schema.types().type(t).kind() == TypeKind::kUser) user.push_back(t);
  }
  auto pick = [&] { return user[rng() % user.size()]; };
  for (int arity = 1; arity <= 3; ++arity) {
    std::string name = "probe" + std::to_string(arity);
    TYDER_ASSIGN_OR_RETURN(GfId gf,
                           schema.DeclareGenericFunction(name, arity));
    for (int j = 0; j < 6; ++j) {
      std::vector<TypeId> formals;
      for (int p = 0; p < arity; ++p) formals.push_back(pick());
      TYDER_RETURN_IF_ERROR(
          AddGeneral(schema, gf, name + "_" + std::to_string(j), formals)
              .status());
    }
  }
  TYDER_ASSIGN_OR_RETURN(GfId wide, schema.DeclareGenericFunction("wide", 1));
  for (int j = 0; j < 70; ++j) {
    TYDER_RETURN_IF_ERROR(
        AddGeneral(schema, wide, "wide_" + std::to_string(j), {pick()})
            .status());
  }
  return schema;
}

TEST(DispatchIndexTest, MatchesReferenceOnEveryTupleAtArityOneToThree) {
  for (uint32_t seed : {3u, 4u, 5u, 6u}) {
    auto schema = SchemaWithMultiMethods(seed);
    ASSERT_TRUE(schema.ok()) << schema.status();
    ExpectMatchesReference(*schema, "seed " + std::to_string(seed));
  }
}

// A rollback restores an older version number; a different mutation then
// reaches the rolled-back version number again with other content. The index
// built before the rollback must not answer for it.
TEST(DispatchIndexTest, RollbackThenMutationRepeatingTheVersionIsRebuilt) {
  auto schema = Schema::Create();
  ASSERT_TRUE(schema.ok()) << schema.status();
  TypeGraph& g = schema->types();
  auto top = g.DeclareType("Top", TypeKind::kUser);
  auto mid = g.DeclareType("Mid", TypeKind::kUser);
  auto leaf = g.DeclareType("Leaf", TypeKind::kUser);
  ASSERT_TRUE(top.ok() && mid.ok() && leaf.ok());
  ASSERT_TRUE(g.AddSupertype(*mid, *top).ok());
  ASSERT_TRUE(g.AddSupertype(*leaf, *mid).ok());
  auto gf = schema->DeclareGenericFunction("f", 1);
  ASSERT_TRUE(gf.ok());
  auto f_top = AddGeneral(*schema, *gf, "f_top", {*top});
  auto f_mid = AddGeneral(*schema, *gf, "f_mid", {*mid});
  ASSERT_TRUE(f_top.ok() && f_mid.ok());
  uint64_t version_with_a = 0;
  {
    SchemaTransaction txn(*schema);
    // Mutation A: a method on Leaf, which then wins for Leaf.
    auto a = AddGeneral(*schema, *gf, "f_leaf_a", {*leaf});
    ASSERT_TRUE(a.ok()) << a.status();
    version_with_a = schema->version();
    auto got = Dispatch(*schema, *gf, {*leaf});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *a);  // the index at this version has A in it
  }  // rolled back
  // Checked without a dispatch, so nothing rebuilds the index in between.
  ASSERT_EQ(SortBySpecificity(*schema, *gf, {*leaf}).front(), *f_mid);
  // Mutation B: a method on Top, under A's method id, bringing the version
  // number back to A's. f_mid still wins for Leaf.
  auto b = AddGeneral(*schema, *gf, "f_top_b", {*top});
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(schema->version(), version_with_a);
  auto got = Dispatch(*schema, *gf, {*leaf});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *f_mid);
  ExpectMatchesReference(*schema, "after rollback");
}

// Many threads dispatching over one frozen schema while other threads read
// the index it already published. Primarily a ThreadSanitizer target
// (run_all.sh tsan).
TEST(DispatchIndexConcurrencyTest, ConcurrentDispatchOverFrozenSchemaIsSafe) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  const Schema& schema = fx->schema;
  auto u = schema.FindGenericFunction("u");
  auto v = schema.FindGenericFunction("v");
  ASSERT_TRUE(u.ok() && v.ok());
  std::vector<TypeId> all = {fx->a, fx->b, fx->c, fx->d,
                             fx->e, fx->f, fx->g, fx->h};
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> pool;
    for (int w_ix = 0; w_ix < 4; ++w_ix) {
      pool.emplace_back([&, w_ix] {
        for (int round = 0; round < 50; ++round) {
          for (TypeId t : all) {
            // Same probes from every thread — results must be identical and
            // the reads race-free.
            auto direct = Dispatch(schema, *u, {t});
            std::vector<MethodId> order = DispatchOrder(schema, *u, {t});
            if (direct.ok() != !order.empty()) ++failures;
            if (direct.ok() && order.front() != *direct) ++failures;
            TypeId other = all[(w_ix + round) % all.size()];
            auto multi = Dispatch(schema, *v, {t, other});
            std::vector<MethodId> multi_order =
                DispatchOrder(schema, *v, {t, other});
            if (multi.ok() != !multi_order.empty()) ++failures;
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

// 4–8 threads make their first Dispatch at the same moment on a freshly
// copied (cold) frozen schema, so they race to build its index. Every answer
// must match the reference, computed beforehand.
TEST(DispatchIndexConcurrencyTest, FirstDispatchesRaceTheBuild) {
  auto original = SchemaWithMultiMethods(11);
  ASSERT_TRUE(original.ok()) << original.status();
  struct Probe {
    GfId gf;
    std::vector<TypeId> args;
    MethodId want;  // kInvalidMethod when nothing applies
  };
  std::vector<Probe> probes;
  std::mt19937 rng(11);
  const size_t n = original->types().NumTypes();
  for (GfId gf = 0; gf < original->NumGenericFunctions(); ++gf) {
    if (original->gf(gf).methods.size() < 2) continue;
    for (int k = 0; k < 24; ++k) {
      Probe p{gf, {}, kInvalidMethod};
      for (int i = 0; i < original->gf(gf).arity; ++i) {
        p.args.push_back(static_cast<TypeId>(rng() % n));
      }
      auto want = oracle::RefDispatch(*original, gf, p.args);
      if (want.ok()) p.want = *want;
      probes.push_back(std::move(p));
    }
  }
  const unsigned kThreads =
      std::max(4u, std::min(8u, std::thread::hardware_concurrency()));
  for (int round = 0; round < 8; ++round) {
    const Schema schema = *original;  // a copy starts without an index
    std::atomic<unsigned> ready{0};
    std::atomic<int> failures{0};
    {
      std::vector<std::jthread> pool;
      for (unsigned tid = 0; tid < kThreads; ++tid) {
        pool.emplace_back([&, tid] {
          ready.fetch_add(1);
          while (ready.load() < kThreads) std::this_thread::yield();
          for (size_t i = 0; i < probes.size(); ++i) {
            const Probe& p = probes[(i + tid * 7) % probes.size()];
            auto got = Dispatch(schema, p.gf, p.args);
            MethodId m = got.ok() ? *got : kInvalidMethod;
            if (m != p.want) ++failures;
          }
        });
      }
    }
    EXPECT_EQ(failures.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace tyder
