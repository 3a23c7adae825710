#include "core/projection.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/serialize.h"
#include "core/verify.h"
#include "methods/applicability.h"
#include "objmodel/schema_printer.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

TEST(ProjectionTest, SimpleExampleEndToEnd) {
  // Section 3.1: Π_{SSN, date_of_birth, pay_rate} Employee.
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  auto result = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView");
  ASSERT_TRUE(result.ok()) << result.status();

  // income inapplicable; age and promote applicable.
  EXPECT_FALSE(result->applicability.IsApplicable(fx->income));
  EXPECT_TRUE(result->applicability.IsApplicable(fx->age));
  EXPECT_TRUE(result->applicability.IsApplicable(fx->promote));

  // Figure 2: Person is split into ~Person{SSN, date_of_birth} + Person{name};
  // EmployeeView holds pay_rate and inherits from ~Person.
  const TypeGraph& g = fx->schema.types();
  auto person_s = result->surrogates.Of(fx->person);
  ASSERT_NE(person_s, kInvalidType);
  EXPECT_EQ(PrintType(g, result->derived),
            "EmployeeView [surrogate of Employee] {pay_rate: Float} <- "
            "~Person(0)");
  EXPECT_EQ(PrintType(g, person_s),
            "~Person [surrogate of Person] {SSN: String, date_of_birth: Date}");
  EXPECT_EQ(PrintType(g, fx->person),
            "Person {name: String} <- ~Person(0)");
  EXPECT_EQ(PrintType(g, fx->employee),
            "Employee {hrs_worked: Float} <- EmployeeView(0), Person(1)");
}

TEST(ProjectionTest, DerivedTypeBehaviorMatchesApplicability) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  auto result = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView");
  ASSERT_TRUE(result.ok());
  for (MethodId m : result->applicability.applicable) {
    EXPECT_TRUE(ApplicableToType(fx->schema, m, result->derived))
        << fx->schema.method(m).label.view();
  }
  for (MethodId m : result->applicability.not_applicable) {
    EXPECT_FALSE(ApplicableToType(fx->schema, m, result->derived))
        << fx->schema.method(m).label.view();
  }
}

TEST(ProjectionTest, InternalVerifierAcceptsPaperExamples) {
  // options.verify = true (default) runs the full behavior-preservation
  // check inside DeriveProjection; a failure would surface as an error.
  auto fx = testing::BuildExample1(/*with_z_methods=*/true);
  ASSERT_TRUE(fx.ok());
  ProjectionSpec spec;
  spec.source = fx->a;
  spec.attributes = {fx->a2, fx->e2, fx->h2};
  spec.view_name = "ProjA";
  auto result = DeriveProjection(fx->schema, spec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->augment_z, (std::set<TypeId>{fx->d, fx->g}));
}

TEST(ProjectionTest, TraceCoversAllPhases) {
  auto fx = testing::BuildExample1(true);
  ASSERT_TRUE(fx.ok());
  ProjectionSpec spec;
  spec.source = fx->a;
  spec.attributes = {fx->a2, fx->e2, fx->h2};
  spec.view_name = "ProjA";
  ProjectionOptions options;
  options.record_trace = true;
  auto result = DeriveProjection(fx->schema, spec, options);
  ASSERT_TRUE(result.ok());
  std::string joined;
  for (const std::string& line : result->trace) joined += line + "\n";
  EXPECT_NE(joined.find("-> NotApplicable"), std::string::npos);  // phase 1
  EXPECT_NE(joined.find("FactorState("), std::string::npos);      // phase 2
  EXPECT_NE(joined.find("Augment("), std::string::npos);          // phase 3
  EXPECT_NE(joined.find("=>"), std::string::npos);                // phase 4
}

// Regression: the narration now flows through the obs tracer as instant
// events, but the rendered `trace` lines must stay byte-for-byte what the
// pre-obs string-vector implementation produced.
TEST(ProjectionTest, TraceLinesAreStableAcrossTheObsRewrite) {
  auto fx = testing::BuildExample1(true);
  ASSERT_TRUE(fx.ok());
  ProjectionSpec spec;
  spec.source = fx->a;
  spec.attributes = {fx->a2, fx->e2, fx->h2};
  spec.view_name = "ProjA";
  ProjectionOptions options;
  options.record_trace = true;
  auto result = DeriveProjection(fx->schema, spec, options);
  ASSERT_TRUE(result.ok());
  const std::vector<std::string>& trace = result->trace;
  auto index_of = [&trace](std::string_view line) {
    for (size_t i = 0; i < trace.size(); ++i) {
      if (trace[i] == line) return static_cast<ptrdiff_t>(i);
    }
    return static_cast<ptrdiff_t>(-1);
  };
  // One pinned line per paper phase, exact text.
  ptrdiff_t applicable =
      index_of("accessor get_h2 reads h2 (projected) -> Applicable");
  ptrdiff_t cycle = index_of("cycle: assume x1 applicable");
  ptrdiff_t evict = index_of("evict y1 (assumed x1 applicable)");
  ptrdiff_t factor = index_of("FactorState({e2,h2}, C, ProjA, 1)");
  ptrdiff_t surrogate = index_of("create ProjA [surrogate of A]");
  ptrdiff_t precedence = index_of("make ~C a supertype of ProjA with precedence 1");
  ptrdiff_t augment = index_of("create ~G [stateless surrogate of G]");
  ptrdiff_t rewrite = index_of("z1: z(C) -> G  =>  z(~C) -> ~G");
  EXPECT_GE(applicable, 0);
  EXPECT_GE(cycle, 0);
  EXPECT_GE(evict, 0);
  EXPECT_GE(factor, 0);
  EXPECT_GE(surrogate, 0);
  EXPECT_GE(precedence, 0);
  EXPECT_GE(augment, 0);
  EXPECT_GE(rewrite, 0);
  // And the phases appear in pipeline order.
  EXPECT_LT(applicable, cycle);
  EXPECT_LT(cycle, evict);
  EXPECT_LT(evict, surrogate);
  EXPECT_LT(surrogate, factor);
  EXPECT_LT(factor, precedence);
  EXPECT_LT(precedence, augment);
  EXPECT_LT(augment, rewrite);
}

TEST(ProjectionTest, ValidationErrors) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  // Unknown source type.
  EXPECT_FALSE(
      DeriveProjectionByName(fx->schema, "Nobody", {"SSN"}, "V").ok());
  // Unknown attribute.
  EXPECT_FALSE(
      DeriveProjectionByName(fx->schema, "Employee", {"salary"}, "V").ok());
  // Attribute not available at source (pay_rate is below Person).
  EXPECT_FALSE(
      DeriveProjectionByName(fx->schema, "Person", {"pay_rate"}, "V").ok());
  // Empty projection list.
  EXPECT_FALSE(DeriveProjectionByName(fx->schema, "Employee", {}, "V").ok());
  // Duplicate attribute.
  EXPECT_FALSE(
      DeriveProjectionByName(fx->schema, "Employee", {"SSN", "SSN"}, "V")
          .ok());
  // View name collision.
  EXPECT_FALSE(
      DeriveProjectionByName(fx->schema, "Employee", {"SSN"}, "Person").ok());
  // Builtin source.
  ProjectionSpec spec;
  spec.source = fx->schema.builtins().int_type;
  spec.attributes = {fx->ssn};
  spec.view_name = "V";
  EXPECT_FALSE(DeriveProjection(fx->schema, spec).ok());
}

TEST(ProjectionTest, FailedValidationLeavesSchemaUntouched) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  size_t types = fx->schema.types().NumTypes();
  ASSERT_FALSE(
      DeriveProjectionByName(fx->schema, "Person", {"pay_rate"}, "V").ok());
  EXPECT_EQ(fx->schema.types().NumTypes(), types);
}

TEST(ProjectionTest, ProjectionOverDerivedView) {
  // Views over views (Section 7): project the derived view again.
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  auto first = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView");
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = DeriveProjectionByName(fx->schema, "EmployeeView",
                                       {"SSN", "pay_rate"}, "PayView");
  ASSERT_TRUE(second.ok()) << second.status();
  std::set<std::string> attrs;
  for (AttrId a : fx->schema.types().CumulativeAttributes(second->derived)) {
    attrs.insert(fx->schema.types().attribute(a).name.str());
  }
  EXPECT_EQ(attrs, (std::set<std::string>{"SSN", "pay_rate"}));
  // age needs date_of_birth: not applicable to PayView; accessors for the
  // kept attributes are.
  EXPECT_FALSE(second->applicability.IsApplicable(fx->age));
}

TEST(ProjectionTest, ExplicitVerifyReportCleanForSimpleExample) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Schema before = fx->schema;
  ProjectionOptions options;
  options.verify = false;  // run the verifier manually instead
  auto result = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView", options);
  ASSERT_TRUE(result.ok());
  VerifyReport report = VerifyDerivation(before, fx->schema, *result);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Collapse keeps a spliced-out surrogate in the graph, detached (type ids
// stay stable). The derivation pipeline refuses it as a source up front,
// leaving the schema byte-identical, and a live source still derives
// afterwards.
TEST(ProjectionTest, DetachedSourceIsRefused) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  const TypeGraph& g = fx->schema.types();
  std::vector<std::string> attr_names;
  for (AttrId a : fx->Projection()) {
    attr_names.push_back(g.attribute(a).name.str());
  }
  Catalog catalog(std::move(fx->schema));
  auto view = catalog.DefineProjectionView(
      "PV", catalog.schema().types().TypeName(fx->a), attr_names);
  ASSERT_TRUE(view.ok()) << view.status();
  // Deriving PV leaves F's surrogate empty and unreferenced (collapse_test).
  TypeId stale = *catalog.schema().types().FindType("~F");
  ASSERT_TRUE(catalog.Collapse().ok());
  ASSERT_TRUE(catalog.schema().types().type(stale).detached());

  Schema& schema = catalog.schema();
  std::string pre = SerializeSchema(schema);
  ProjectionSpec detached;
  detached.source = stale;
  detached.attributes = {fx->a2};
  detached.view_name = "Zombie";
  Result<DerivationResult> refused = DeriveProjection(schema, detached);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(SerializeSchema(schema), pre);
  EXPECT_FALSE(schema.types().FindType("Zombie").ok());

  ProjectionSpec live;
  live.source = fx->a;
  live.attributes = {fx->a2, fx->e2};
  live.view_name = "LiveView";
  Result<DerivationResult> derived = DeriveProjection(schema, live);
  EXPECT_TRUE(derived.ok()) << derived.status();
}

}  // namespace
}  // namespace tyder
