#include "catalog/export_tdl.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "instances/interp.h"

#include "lang/analyzer.h"
#include "methods/accessor_gen.h"
#include "mir/printer.h"
#include "objmodel/schema_printer.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

TEST(ExportTdlTest, RoundTripPreservesHierarchyAndMethods) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  auto tdl = ExportTdl(fx->schema);
  ASSERT_TRUE(tdl.ok()) << tdl.status();
  auto reloaded = LoadTdl(*tdl);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status() << "\n--- exported ---\n"
                             << *tdl;
  EXPECT_EQ(PrintHierarchy(reloaded->schema().types()),
            PrintHierarchy(fx->schema.types()));
  EXPECT_EQ(PrintAllMethods(reloaded->schema()),
            PrintAllMethods(fx->schema));
}

TEST(ExportTdlTest, ExportIsAFixedPoint) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  auto tdl = ExportTdl(fx->schema);
  ASSERT_TRUE(tdl.ok());
  auto reloaded = LoadTdl(*tdl);
  ASSERT_TRUE(reloaded.ok());
  auto again = ExportTdl(reloaded->schema());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *tdl);
}

TEST(ExportTdlTest, CatalogExportReplaysViews) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  ASSERT_TRUE(catalog
                  .DefineProjectionView("EmployeeView", "Employee",
                                        {"SSN", "date_of_birth", "pay_rate"})
                  .ok());
  auto tdl = ExportTdl(catalog);
  ASSERT_TRUE(tdl.ok()) << tdl.status();
  EXPECT_NE(tdl->find("view EmployeeView = project Employee on (SSN, "
                      "date_of_birth, pay_rate);"),
            std::string::npos);
  auto reloaded = LoadTdl(*tdl);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status() << "\n--- exported ---\n"
                             << *tdl;
  // The replayed derivation produces the identical factored hierarchy.
  EXPECT_EQ(PrintHierarchy(reloaded->schema().types()),
            PrintHierarchy(catalog.schema().types()));
  EXPECT_EQ(PrintAllMethods(reloaded->schema()),
            PrintAllMethods(catalog.schema()));
}

TEST(ExportTdlTest, RenameViewExported) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  ASSERT_TRUE(catalog
                  .DefineRenameView("HrView", "Employee",
                                    {{"pay_rate", "hourly_wage"}})
                  .ok());
  auto tdl = ExportTdl(catalog);
  ASSERT_TRUE(tdl.ok()) << tdl.status();
  EXPECT_NE(tdl->find("view HrView = rename Employee (pay_rate as "
                      "hourly_wage);"),
            std::string::npos);
  auto reloaded = LoadTdl(*tdl);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_TRUE(reloaded->schema().FindGenericFunction("get_hourly_wage").ok());
}

TEST(ExportTdlTest, BareSchemaWithSurrogatesRejected) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  ASSERT_TRUE(DeriveProjectionByName(fx->schema, "Employee",
                                     {"SSN", "date_of_birth", "pay_rate"},
                                     "EmployeeView")
                  .ok());
  // Without the catalog's view record, the surrogates are inexpressible.
  auto tdl = ExportTdl(fx->schema);
  ASSERT_FALSE(tdl.ok());
  EXPECT_EQ(tdl.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExportTdlTest, BespokeAccessorsRejected) {
  // Example 1's accessors (get_h2 declared on B, not on h2's owner H) cannot
  // be expressed by the `accessors;` directive.
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok());
  auto tdl = ExportTdl(fx->schema);
  ASSERT_FALSE(tdl.ok());
  EXPECT_EQ(tdl.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExportTdlTest, PartialAccessorSetRejected) {
  auto s = Schema::Create();
  ASSERT_TRUE(s.ok());
  auto t = s->types().DeclareType("T", TypeKind::kUser);
  ASSERT_TRUE(t.ok());
  auto a = s->types().DeclareAttribute(*t, "x", s->builtins().int_type);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(GenerateReader(*s, *a).ok());  // reader only, no mutator
  auto tdl = ExportTdl(*s);
  ASSERT_FALSE(tdl.ok());
  EXPECT_EQ(tdl.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExportTdlTest, SchemaWithoutAccessorsOmitsDirective) {
  auto s = Schema::Create();
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s->types().DeclareType("T", TypeKind::kUser).ok());
  auto tdl = ExportTdl(*s);
  ASSERT_TRUE(tdl.ok()) << tdl.status();
  EXPECT_EQ(tdl->find("accessors;"), std::string::npos);
  EXPECT_NE(tdl->find("type T { }"), std::string::npos);
}

TEST(ExportTdlTest, ControlFlowAndLiteralsSurviveRoundTrip) {
  auto catalog = LoadTdl(R"(
    type T { x: Int; note: String; }
    accessors;
    method grade (t: T) -> Int {
      score: Int = 0;
      if (get_x(t) < 10) {
        score = get_x(t) * 2 + 1;
      } else {
        score = 0 - 1;
      }
      return score;
    }
    method tag (t: T) -> Bool {
      return get_note(t) == "a \"quoted\" note";
    }
  )");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  auto tdl = ExportTdl(catalog->schema());
  ASSERT_TRUE(tdl.ok()) << tdl.status();
  auto reloaded = LoadTdl(*tdl);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status() << "\n--- exported ---\n"
                             << *tdl;
  EXPECT_EQ(PrintAllMethods(reloaded->schema()),
            PrintAllMethods(catalog->schema()));
}

TEST(ExportTdlTest, FloatLiteralsSurviveRoundTripExactly) {
  auto catalog = LoadTdl(R"(
    type T { x: Int; }
    method pi (t: T) -> Float { return 3.14159265358979; }
    method tiny (t: T) -> Float { return 0.000000123456789012345; }
    method huge (t: T) -> Float { return 10000000000000000000000.0; }
  )");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  auto tdl = ExportTdl(catalog->schema());
  ASSERT_TRUE(tdl.ok()) << tdl.status();
  auto reloaded = LoadTdl(*tdl);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status() << "\n--- exported ---\n"
                             << *tdl;
  // Each method's result, as raw bits, on an object of T.
  auto run = [](const Schema& schema, const char* gf) -> uint64_t {
    ObjectStore store;
    auto obj = store.CreateObject(schema, *schema.types().FindType("T"));
    EXPECT_TRUE(obj.ok()) << obj.status();
    Interpreter interp(schema, &store);
    auto value = interp.CallByName(gf, {Value::Object(*obj)});
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::bit_cast<uint64_t>(value->AsFloat()) : 0;
  };
  for (const char* gf : {"pi", "tiny", "huge"}) {
    EXPECT_EQ(run(reloaded->schema(), gf), run(catalog->schema(), gf))
        << gf << "\n--- exported ---\n" << *tdl;
  }
}

}  // namespace
}  // namespace tyder
