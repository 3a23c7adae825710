// Differential oracle (src/oracle) unit tests: the naive reference
// implementations agree with the optimized engine on the paper fixtures and
// on random schemas, including multi-method dispatch with varied specificity
// and class precedence lists with and without a C3 linearization.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "catalog/catalog.h"
#include "core/projection.h"
#include "methods/dispatch.h"
#include "objmodel/linearize.h"
#include "oracle/differential.h"
#include "oracle/reference.h"
#include "testing/fixtures.h"
#include "testing/random_schema.h"

namespace tyder {
namespace {

TEST(OracleReferenceTest, SubtypeAgreesOnExample1) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  const TypeGraph& g = fx->schema.types();
  // Spot checks of the BFS walk itself (A is the most-derived type: A ≼ B ≼ D).
  EXPECT_TRUE(oracle::RefIsSubtype(g, fx->a, fx->d));
  EXPECT_TRUE(oracle::RefIsSubtype(g, fx->d, fx->d));
  EXPECT_FALSE(oracle::RefIsSubtype(g, fx->d, fx->a));
  EXPECT_FALSE(oracle::RefIsSubtype(g, fx->b, fx->c));
  // And the exhaustive all-pairs sweep against the bitset closure.
  EXPECT_TRUE(oracle::CheckSubtypeOracle(fx->schema).ok());
}

TEST(OracleReferenceTest, CumulativeStateAgreesOnExample1) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  Status s = oracle::CheckCumulativeStateOracle(fx->schema);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(OracleReferenceTest, DispatchAgreesOnExample1WithZMethods) {
  auto fx = testing::BuildExample1(/*with_z_methods=*/true);
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  Status s = oracle::CheckSchemaAgainstOracle(fx->schema);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(OracleReferenceTest, IdenticalFormalsTieBreakByRegistrationOrder) {
  // u1(A) and u2(A) share the generic function u with identical formals (the
  // paper's Section 4 example); the reference's stable sort must keep them in
  // registration order, matching the engine's tie-break.
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  const Method& u1 = fx->schema.method(fx->u1);
  ASSERT_EQ(u1.gf, fx->schema.method(fx->u2).gf);
  std::vector<MethodId> order =
      oracle::RefDispatchOrder(fx->schema, u1.gf, {fx->a});
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], fx->u1);
  EXPECT_EQ(order[1], fx->u2);
  // The engine agrees, front to back.
  EXPECT_EQ(DispatchOrder(fx->schema, u1.gf, {fx->a}), order);
}

TEST(OracleReferenceTest, DispatchNotFoundWhenNoApplicable) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  const Method& income = fx->schema.method(fx->income);
  // income is defined on Employee; a Person argument has no applicable method.
  Result<MethodId> ref =
      oracle::RefDispatch(fx->schema, income.gf, {fx->person});
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kNotFound);
  Result<MethodId> engine = Dispatch(fx->schema, income.gf, {fx->person});
  EXPECT_FALSE(engine.ok());
}

TEST(OracleDifferentialTest, PersonEmployeeSchemaPasses) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  Status s = oracle::CheckSchemaAgainstOracle(fx->schema);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(OracleDifferentialTest, RandomSchemasAcrossMethodDensitiesPass) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    for (int mpg = 1; mpg <= 3; ++mpg) {
      testing::RandomSchemaOptions options;
      options.seed = seed;
      options.methods_per_gf = mpg;
      options.with_mutators = true;
      auto schema = testing::GenerateRandomSchema(options);
      ASSERT_TRUE(schema.ok())
          << "seed " << seed << " mpg " << mpg << ": "
          << schema.status().ToString();
      oracle::DifferentialOptions dopts;
      dopts.seed = seed * 31 + static_cast<uint32_t>(mpg);
      Status s = oracle::CheckSchemaAgainstOracle(*schema, dopts);
      EXPECT_TRUE(s.ok()) << "seed " << seed << " mpg " << mpg << ": "
                          << s.ToString();
    }
  }
}

TEST(OracleDifferentialTest, DerivedStateMatchesProjectedSet) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status().ToString();
  const TypeGraph& g = fx->schema.types();
  std::vector<std::string> attr_names;
  for (AttrId a : fx->Projection()) {
    attr_names.push_back(g.attribute(a).name.str());
  }
  Catalog catalog(std::move(fx->schema));
  auto view = catalog.DefineProjectionView(
      "PV", catalog.schema().types().TypeName(fx->a), attr_names);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Status s = oracle::CheckDerivedState(catalog.schema(), (*view)->derived,
                                       (*view)->attributes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  // The whole post-derivation schema (surrogates included) still passes.
  s = oracle::CheckSchemaAgainstOracle(catalog.schema());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Schemas shaped like repobench evolve's: 40 user types with up to 3
// supertypes each, so C3 rejects many of them.
Result<Schema> EvolveShapedSchema(uint32_t seed) {
  testing::RandomSchemaOptions gen;
  gen.seed = seed;
  gen.num_types = 40;
  gen.max_supers = 3;
  gen.attrs_per_type = 2;
  gen.num_general_methods = gen.num_types / 3;
  gen.max_stmts_per_body = 4;
  gen.with_mutators = true;
  gen.methods_per_gf = 2;
  return testing::GenerateRandomSchema(gen);
}

// The engine's memoized CPLs, one at a time and all at once, against the
// recursive reference for every type; counts types and BFS fallbacks.
void ExpectCplsMatchReference(const Schema& schema, const std::string& where,
                              int* types, int* fallbacks) {
  const TypeGraph& graph = schema.types();
  std::vector<std::vector<TypeId>> all = AllClassPrecedenceLists(graph);
  ASSERT_EQ(all.size(), graph.NumTypes());
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    std::vector<TypeId> ref = oracle::RefClassPrecedenceList(graph, t);
    EXPECT_EQ(ClassPrecedenceList(graph, t), ref)
        << where << ", type " << graph.TypeName(t);
    EXPECT_EQ(all[t], ref) << where << ", type " << graph.TypeName(t);
    ++*types;
    if (!HasC3Linearization(graph, t)) ++*fallbacks;
  }
}

TEST(CplReferenceTest, MemoizedC3MatchesReferenceOnEvolveSchemas) {
  int types = 0, fallbacks = 0;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    auto schema = EvolveShapedSchema(seed);
    ASSERT_TRUE(schema.ok()) << schema.status();
    ExpectCplsMatchReference(*schema, "seed " + std::to_string(seed), &types,
                             &fallbacks);
  }
  // Builtins included; the fallbacks exercise the BFS order.
  EXPECT_EQ(types, 1128);
  EXPECT_EQ(fallbacks, 365);
}

TEST(CplReferenceTest, MemoizedC3MatchesReferenceAfterAcceptedDerivations) {
  int types = 0, fallbacks = 0, accepted = 0;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    auto generated = EvolveShapedSchema(seed);
    ASSERT_TRUE(generated.ok()) << generated.status();
    Schema schema = std::move(generated).value();
    std::mt19937 rng(seed);
    for (int i = 0; i < 6; ++i) {
      Schema after = schema;
      ProjectionSpec spec;
      spec.view_name = "V" + std::to_string(i);
      if (!workload::PickRandomProjection(after, rng(), &spec.source,
                                          &spec.attributes)) {
        continue;
      }
      if (!DeriveProjection(after, spec).ok()) continue;
      ++accepted;
      schema = std::move(after);
      ExpectCplsMatchReference(
          schema, "seed " + std::to_string(seed) + ", view " + spec.view_name,
          &types, &fallbacks);
    }
  }
  EXPECT_GT(accepted, 24);
  EXPECT_GT(fallbacks, 0);
}

}  // namespace
}  // namespace tyder
