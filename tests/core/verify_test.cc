#include "core/verify.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/algebra.h"
#include "methods/applicability.h"
#include "mir/builder.h"
#include "mir/type_check.h"
#include "objmodel/linearize.h"
#include "obs/obs.h"
#include "testing/fixtures.h"
#include "workload/random_schema.h"

namespace tyder {
namespace {

// Registers an empty-bodied general method `label` on `gf_name`, declaring
// the generic function on first use.
Result<MethodId> AddGeneralMethod(Schema& schema, std::string_view label,
                                  std::string_view gf_name,
                                  std::vector<TypeId> params) {
  TYDER_ASSIGN_OR_RETURN(
      GfId gf, schema.FindOrDeclareGenericFunction(
                   gf_name, static_cast<int>(params.size())));
  Method m;
  m.label = Symbol::Intern(label);
  m.gf = gf;
  m.kind = MethodKind::kGeneral;
  for (size_t i = 0; i < params.size(); ++i) {
    m.param_names.push_back(Symbol::Intern("p" + std::to_string(i)));
  }
  m.sig.params = std::move(params);
  m.sig.result = schema.builtins().void_type;
  m.body = mir::Seq({});
  return schema.AddMethod(std::move(m));
}

uint64_t Counter(std::string_view name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    before_ = fx_.schema;
    ProjectionOptions options;
    options.verify = false;  // tests call the verifier explicitly
    auto result = DeriveProjectionByName(
        fx_.schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
        "EmployeeView", options);
    ASSERT_TRUE(result.ok()) << result.status();
    result_ = std::move(result).value();
  }

  testing::PersonEmployeeFixture fx_;
  Schema before_;
  DerivationResult result_;
};

TEST_F(VerifyTest, CleanDerivationPasses) {
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.ToString(), "OK");
}

TEST_F(VerifyTest, DetectsStolenAttribute) {
  ASSERT_TRUE(
      fx_.schema.types().MoveAttribute(fx_.name, result_.derived).ok());
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("cumulative state"), std::string::npos);
}

TEST_F(VerifyTest, DetectsDispatchHijack) {
  // Re-pointing income's formal at Person makes income applicable to calls
  // that previously had no method — dispatch changed.
  Signature hijacked = fx_.schema.method(fx_.income).sig;
  hijacked.params[0] = fx_.person;
  fx_.schema.SetMethodSignature(fx_.income, hijacked);
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("dispatch of income(Person) changed"),
            std::string::npos);
}

TEST_F(VerifyTest, DetectsOffDiagonalHijackAtArityThree) {
  // k(Person, Employee, Person) becomes k(Employee, Person, Person): every
  // diagonal call k(t, t, t) keeps its outcome, but k(Person, Employee,
  // Person) loses its method and k(Employee, Person, Person) gains one.
  std::vector<TypeId> formals = {fx_.person, fx_.employee, fx_.person};
  Result<MethodId> pre = AddGeneralMethod(before_, "k1", "k", formals);
  Result<MethodId> post = AddGeneralMethod(fx_.schema, "k1", "k", formals);
  ASSERT_TRUE(pre.ok() && post.ok());
  ASSERT_EQ(*pre, *post);
  Signature hijacked = fx_.schema.method(*post).sig;
  hijacked.params[0] = fx_.employee;
  hijacked.params[1] = fx_.person;
  fx_.schema.SetMethodSignature(*post, hijacked);
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  ASSERT_FALSE(report.ok());
  std::string text = report.ToString();
  EXPECT_NE(text.find("dispatch of k(Person, Employee, Person) changed"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dispatch of k(Employee, Person, Person) changed"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("dispatch of k(Person, Person, Person)"),
            std::string::npos);
}

TEST(VerifyCertificateTest, DetectsChangesOutsideAnyNewType) {
  // No type is new, so only the diff of supertype and attribute lists can
  // put R and Q under scrutiny: R's supertypes swap precedence (the subtype
  // relation stays), and Q gains an attribute.
  Result<Schema> created = Schema::Create();
  ASSERT_TRUE(created.ok()) << created.status();
  Schema before = std::move(created).value();
  TypeGraph& graph = before.types();
  TypeId p = *graph.DeclareType("P", TypeKind::kUser);
  TypeId q = *graph.DeclareType("Q", TypeKind::kUser);
  TypeId r = *graph.DeclareType("R", TypeKind::kUser);
  ASSERT_TRUE(graph.AddSupertype(r, p).ok());
  ASSERT_TRUE(graph.AddSupertype(r, q).ok());
  ASSERT_TRUE(AddGeneralMethod(before, "f1", "f", {p}).ok());
  ASSERT_TRUE(AddGeneralMethod(before, "f2", "f", {q}).ok());
  Schema after = before;
  ASSERT_TRUE(after.types().mutable_type(r).RemoveSupertype(p));
  after.types().mutable_type(r).AppendSupertype(p);
  ASSERT_TRUE(after.types()
                  .DeclareAttribute(q, "q0", after.builtins().int_type)
                  .ok());
  DerivationResult result;
  result.derived = r;
  EXPECT_EQ(VerifyDerivation(before, after, result).issues,
            (std::vector<std::string>{"cumulative state of 'Q' changed",
                                      "cumulative state of 'R' changed",
                                      "dispatch of f(R) changed"}));
}

TEST(VerifyCertificateTest, SweepsWhenTheSubtypeRelationChanges) {
  // Q becomes a subtype of P, so the one-method gf g, which the
  // certificate never probes while the relation holds, now applies to Q.
  Result<Schema> created = Schema::Create();
  ASSERT_TRUE(created.ok()) << created.status();
  Schema before = std::move(created).value();
  TypeGraph& graph = before.types();
  TypeId p = *graph.DeclareType("P", TypeKind::kUser);
  TypeId q = *graph.DeclareType("Q", TypeKind::kUser);
  ASSERT_TRUE(
      graph.DeclareAttribute(p, "p0", before.builtins().int_type).ok());
  ASSERT_TRUE(AddGeneralMethod(before, "g1", "g", {p}).ok());
  Schema after = before;
  ASSERT_TRUE(after.types().AddSupertype(q, p).ok());
  DerivationResult result;
  result.derived = q;
  EXPECT_EQ(VerifyDerivation(before, after, result).issues,
            (std::vector<std::string>{"cumulative state of 'Q' changed",
                                      "dispatch of g(Q) changed"}));
}

TEST(VerifyCertificateTest, DetectsPrecedenceSwapWithTheRelationKept) {
  // R ≼ P and R ≼ Q, P first, so f(R) picks f1(P). The edit puts a new S ≼ Q
  // ahead of P in R's supertypes and drops R's direct edge to Q. The subtype
  // relation among P, Q and R holds and no formal moves, but R's precedence
  // list becomes R, S, Q, P: Q now precedes P, and f(R) picks f2(Q).
  Result<Schema> created = Schema::Create();
  ASSERT_TRUE(created.ok()) << created.status();
  Schema before = std::move(created).value();
  TypeGraph& graph = before.types();
  TypeId p = *graph.DeclareType("P", TypeKind::kUser);
  TypeId q = *graph.DeclareType("Q", TypeKind::kUser);
  TypeId r = *graph.DeclareType("R", TypeKind::kUser);
  ASSERT_TRUE(graph.AddSupertype(r, p).ok());
  ASSERT_TRUE(graph.AddSupertype(r, q).ok());
  ASSERT_TRUE(AddGeneralMethod(before, "f1", "f", {p}).ok());
  ASSERT_TRUE(AddGeneralMethod(before, "f2", "f", {q}).ok());
  Schema after = before;
  TypeId s = *after.types().DeclareType("S", TypeKind::kUser);
  ASSERT_TRUE(after.types().AddSupertype(s, q).ok());
  ASSERT_TRUE(after.types().mutable_type(r).RemoveSupertype(q));
  after.types().mutable_type(r).PrependSupertype(s);
  DerivationResult result;
  result.derived = s;
  EXPECT_EQ(VerifyDerivation(before, after, result).issues,
            (std::vector<std::string>{"dispatch of f(R) changed"}));
}

TEST(VerifyCertificateTest,
     KeepsMultiMethodGfsWithoutRewrittenFormalsUnprobed) {
#if !TYDER_OBS_ENABLED
  GTEST_SKIP() << "counters are compiled out";
#else
  // label(Person) and label(Employee) read `name`, which the projection
  // leaves out, so neither applies to the view and neither formal moves. The
  // derivation inserts surrogates over Person and Employee, both under a
  // formal of label, yet their precedence among pre-existing types holds:
  // label is kept without re-dispatching a tuple.
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  Schema& schema = fx->schema;
  Result<GfId> get_name = schema.FindGenericFunction("get_name");
  ASSERT_TRUE(get_name.ok()) << get_name.status();
  std::vector<MethodId> labels;
  for (TypeId formal : {fx->person, fx->employee}) {
    Result<MethodId> m = AddGeneralMethod(
        schema, "label" + std::to_string(labels.size() + 1), "label",
        {formal});
    ASSERT_TRUE(m.ok()) << m.status();
    Signature sig = schema.method(*m).sig;
    sig.result = schema.builtins().string_type;
    schema.SetMethodSignature(*m, sig);
    schema.SetMethodBody(
        *m, mir::Seq({mir::Return(mir::Call(*get_name, {mir::Param(0)}))}));
    labels.push_back(*m);
  }
  ASSERT_TRUE(TypeCheckSchema(schema).ok());
  Schema before = schema;
  ProjectionOptions options;
  options.verify = false;
  Result<DerivationResult> result = DeriveProjectionByName(
      schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView", options);
  ASSERT_TRUE(result.ok()) << result.status();
  for (TypeId t : {fx->person, fx->employee}) {
    EXPECT_NE(before.types().type(t).supertypes(),
              schema.types().type(t).supertypes());
  }
  for (MethodId m : labels) {
    EXPECT_EQ(before.method(m).sig.params, schema.method(m).sig.params);
  }
  uint64_t probes = Counter("verify.dispatch_probes");
  uint64_t sweeps = Counter("verify.gf_sweeps");
  VerifyReport report = VerifyDerivation(before, schema, *result);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(Counter("verify.dispatch_probes"), probes);
  EXPECT_EQ(Counter("verify.gf_sweeps"), sweeps);
#endif
}

TEST_F(VerifyTest, DetectsBrokenTyping) {
  // Widening a reader's result type breaks accessor well-formedness and the
  // static typing of bodies that use it.
  MethodId reader = fx_.schema.ReaderOf(fx_.pay_rate);
  ASSERT_NE(reader, kInvalidMethod);
  Signature bad = fx_.schema.method(reader).sig;
  bad.result = fx_.schema.builtins().string_type;
  fx_.schema.SetMethodSignature(reader, bad);
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  EXPECT_FALSE(report.ok());
}

TEST_F(VerifyTest, DetectsMisreportedApplicability) {
  // Claim income (not applicable) as applicable: the derived-type behavior
  // check must flag it.
  DerivationResult lied = result_;
  lied.applicability.applicable.push_back(fx_.income);
  std::sort(lied.applicability.applicable.begin(),
            lied.applicability.applicable.end());
  VerifyReport report = VerifyDerivation(before_, fx_.schema, lied);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("inferred applicable"), std::string::npos);
}

TEST_F(VerifyTest, CheckDispatchPreservedAloneIsCallable) {
  std::vector<std::string> issues;
  CheckDispatchPreserved(before_, fx_.schema, &issues);
  EXPECT_TRUE(issues.empty());
}

// VerifyDerivation's checks with a full state comparison and the exhaustive
// sweep in place of the certificate; the wording is VerifyDerivation's.
std::vector<std::string> ReferenceIssues(const Schema& before,
                                         const Schema& after,
                                         const DerivationResult& result) {
  std::vector<std::string> issues;
  Status valid = after.Validate();
  if (!valid.ok()) {
    issues.push_back("schema invalid after derivation: " + valid.ToString());
  }
  Status typed = TypeCheckSchema(after);
  if (!typed.ok()) {
    issues.push_back("schema fails static type checking: " +
                     typed.ToString());
  }
  auto names = [](const Schema& schema, TypeId t) {
    std::set<Symbol> out;
    for (AttrId a : schema.types().CumulativeAttributes(t)) {
      out.insert(schema.types().attribute(a).name);
    }
    return out;
  };
  for (TypeId t = 0; t < before.types().NumTypes(); ++t) {
    if (names(before, t) != names(after, t)) {
      issues.push_back("cumulative state of '" + before.types().TypeName(t) +
                       "' changed");
    }
  }
  CheckDispatchPreserved(before, after, &issues);
  std::set<AttrId> expected(result.spec.attributes.begin(),
                            result.spec.attributes.end());
  std::vector<AttrId> actual_list =
      after.types().CumulativeAttributes(result.derived);
  std::set<AttrId> actual(actual_list.begin(), actual_list.end());
  if (!expected.empty() &&
      (expected != actual || actual_list.size() != actual.size())) {
    issues.push_back("derived type state differs from the projection list");
  }
  for (MethodId m : result.applicability.applicable) {
    if (!ApplicableToType(after, m, result.derived)) {
      issues.push_back("method '" + after.method(m).label.str() +
                       "' was inferred applicable but is not applicable to "
                       "the derived type after factoring");
    }
  }
  for (MethodId m : result.applicability.not_applicable) {
    if (ApplicableToType(after, m, result.derived)) {
      issues.push_back("method '" + after.method(m).label.str() +
                       "' was inferred not applicable but is applicable to "
                       "the derived type after factoring");
    }
  }
  return issues;
}

// Schemas shaped like repobench evolve's (2 methods per general gf, mutators,
// up to 3 supertypes), each with a run of candidate projections and
// generalizations derived unverified on a copy. The certificate's report
// must equal the reference's line for line; accepted candidates accumulate,
// as in evolve's screening.
void ExpectCertificateMatchesSweep(uint32_t first_seed, uint32_t last_seed) {
  int dispatch_refusals = 0;
  int redispatched_acceptances = 0;
  int accepted = 0;
  int types_without_c3 = 0;
  for (uint32_t seed = first_seed; seed <= last_seed; ++seed) {
    workload::RandomSchemaOptions gen;
    gen.seed = seed;
    gen.num_types = 40;
    gen.max_supers = 3;
    gen.attrs_per_type = 2;
    gen.num_general_methods = gen.num_types / 3;
    gen.max_stmts_per_body = 4;
    gen.with_mutators = true;
    gen.methods_per_gf = 2;
    Result<Schema> generated = workload::GenerateRandomSchema(gen);
    ASSERT_TRUE(generated.ok()) << generated.status();
    Schema schema = std::move(generated).value();
    std::mt19937 rng(seed);
    for (int i = 0; i < 8; ++i) {
      Schema after = schema;
      std::string view = "V" + std::to_string(i);
      ProjectionOptions options;
      options.verify = false;
      Result<DerivationResult> result = Status::Internal("no candidate");
      if (i % 4 == 3) {
        std::uniform_int_distribution<int> pick(0, gen.num_types - 1);
        int x = pick(rng), y = pick(rng);
        if (x == y) y = (y + 1) % gen.num_types;
        Result<TypeId> a = after.types().FindType("T" + std::to_string(x));
        Result<TypeId> b = after.types().FindType("T" + std::to_string(y));
        ASSERT_TRUE(a.ok() && b.ok());
        result = DeriveGeneralization(after, *a, *b, view, options);
      } else {
        ProjectionSpec spec;
        spec.view_name = view;
        if (!workload::PickRandomProjection(after, rng(), &spec.source,
                                            &spec.attributes)) {
          continue;
        }
        result = DeriveProjection(after, spec, options);
      }
      if (!result.ok()) continue;
      CplMemo memo(schema.types());
      for (TypeId t = 0; t < schema.types().NumTypes(); ++t) {
        if (!memo.HasC3(t)) ++types_without_c3;
      }
      uint64_t probes = Counter("verify.dispatch_probes");
      uint64_t sweeps = Counter("verify.gf_sweeps");
      VerifyReport report = VerifyDerivation(schema, after, *result);
      probes = Counter("verify.dispatch_probes") - probes;
      sweeps = Counter("verify.gf_sweeps") - sweeps;
      ASSERT_EQ(report.issues, ReferenceIssues(schema, after, *result))
          << "seed " << seed << ", candidate " << i;
      if (report.ok()) {
        ++accepted;
        if (probes > 0 && sweeps == 0) ++redispatched_acceptances;
        schema = std::move(after);
      } else if (report.ToString().find("dispatch of ") != std::string::npos) {
        ++dispatch_refusals;
      }
    }
  }
  EXPECT_GE(dispatch_refusals, 10);
  EXPECT_GT(accepted, 0);
  // Dispatch falls back to a precedence BFS for these; the certificate must
  // compare whichever list dispatch uses.
  EXPECT_GT(types_without_c3, 0);
#if TYDER_OBS_ENABLED
  EXPECT_GT(redispatched_acceptances, 0);
#endif
}

TEST(VerifyDifferentialTest, CertificateMatchesSweepOnEvolveSchemas) {
  ExpectCertificateMatchesSweep(1, 24);
}

TEST(VerifyDifferentialTest, CertificateMatchesSweepOnHeldOutSeeds) {
  ExpectCertificateMatchesSweep(9001, 9024);
}

}  // namespace
}  // namespace tyder
