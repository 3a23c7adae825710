// Dropping a view reverts its derivation: the catalog restores the view's
// checkpoint and re-applies the log entries after it (catalog/catalog.h).
// These pin the paper's Example 1 round trip through Catalog::DropView.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/serialize.h"
#include "core/verify.h"
#include "mir/printer.h"
#include "objmodel/schema_printer.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class RevertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildExample1(/*with_z_methods=*/true);
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    original_hierarchy_ = PrintHierarchy(fx_.schema.types());
    original_methods_ = PrintAllMethods(fx_.schema);
    snapshot_ = fx_.schema;
    catalog_ = std::make_unique<Catalog>(fx_.schema);
  }

  // The paper's projection of A onto a2, e2, h2.
  Status Derive(const std::string& view = "ProjA") {
    return catalog_
        ->DefineProjectionView(view, "A", {"a2", "e2", "h2"})
        .status();
  }

  const Schema& schema() const { return catalog_->schema(); }

  testing::Example1Fixture fx_;
  Schema snapshot_;
  std::unique_ptr<Catalog> catalog_;
  std::string original_hierarchy_;
  std::string original_methods_;
};

TEST_F(RevertTest, RoundTripRestoresHierarchyAndMethods) {
  ASSERT_TRUE(Derive().ok());
  ASSERT_NE(PrintHierarchy(schema().types()), original_hierarchy_);
  Status dropped = catalog_->DropView("ProjA");
  ASSERT_TRUE(dropped.ok()) << dropped;
  EXPECT_EQ(PrintHierarchy(schema().types()), original_hierarchy_);
  EXPECT_EQ(PrintAllMethods(schema()), original_methods_);
  EXPECT_EQ(SerializeSchema(schema()), SerializeSchema(snapshot_));
}

TEST_F(RevertTest, RevertedSchemaBehavesLikeTheOriginal) {
  ASSERT_TRUE(Derive().ok());
  ASSERT_TRUE(catalog_->DropView("ProjA").ok());
  std::vector<std::string> issues;
  CheckDispatchPreserved(snapshot_, schema(), &issues);
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST_F(RevertTest, SurrogatesGoneAndSourceStateRestored) {
  size_t types = schema().types().NumTypes();
  ASSERT_TRUE(Derive().ok());
  ASSERT_GT(schema().types().NumTypes(), types);
  ASSERT_TRUE(catalog_->DropView("ProjA").ok());
  EXPECT_EQ(schema().types().NumTypes(), types);
  EXPECT_FALSE(schema().types().FindType("ProjA").ok());
  // a2 home again, in declaration order.
  EXPECT_EQ(schema().types().attribute(fx_.a2).owner, fx_.a);
  EXPECT_EQ(schema().types().type(fx_.a).local_attributes(),
            (std::vector<AttrId>{fx_.a1, fx_.a2}));
}

TEST_F(RevertTest, DoubleRevertRefused) {
  ASSERT_TRUE(Derive().ok());
  ASSERT_TRUE(catalog_->DropView("ProjA").ok());
  EXPECT_EQ(catalog_->DropView("ProjA").code(), StatusCode::kNotFound);
}

TEST_F(RevertTest, RefusedWhenLaterDerivationObservesSurrogates) {
  ASSERT_TRUE(Derive().ok());
  // Project the derived view again: the second derivation builds on the
  // first one's types, so it cannot re-apply without them.
  ASSERT_TRUE(catalog_->DefineProjectionView("ProjA2", "ProjA", {"a2"}).ok());
  Status refused = catalog_->DropView("ProjA");
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("view 'ProjA2'"), std::string::npos)
      << refused;
  // Dropping in reverse order works.
  EXPECT_TRUE(catalog_->DropView("ProjA2").ok());
  EXPECT_TRUE(catalog_->DropView("ProjA").ok());
  EXPECT_EQ(PrintHierarchy(schema().types()), original_hierarchy_);
}

TEST_F(RevertTest, ReDerivationAfterRevertMatchesPaperAgain) {
  ASSERT_TRUE(Derive().ok());
  std::string derived = SerializeSchema(schema());
  ASSERT_TRUE(catalog_->DropView("ProjA").ok());
  // The dropped name is free again, and the derivation lands on exactly the
  // schema it built the first time.
  ASSERT_TRUE(Derive().ok());
  EXPECT_EQ(SerializeSchema(schema()), derived);
}

TEST(CatalogDropViewTest, DropProjectionViewRestoresSchema) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  std::string original = PrintHierarchy(fx->schema.types());
  Catalog catalog(std::move(fx->schema));
  ASSERT_TRUE(catalog
                  .DefineProjectionView("V", "Employee",
                                        {"SSN", "date_of_birth", "pay_rate"})
                  .ok());
  ASSERT_TRUE(catalog.DropView("V").ok());
  EXPECT_EQ(PrintHierarchy(catalog.schema().types()), original);
  EXPECT_FALSE(catalog.FindView("V").ok());
}

TEST(CatalogDropViewTest, DropSelectionView) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  size_t types = catalog.schema().types().NumTypes();
  ASSERT_TRUE(catalog.DefineSelectionView("Sel", "Employee").ok());
  ASSERT_TRUE(catalog.DropView("Sel").ok());
  EXPECT_FALSE(catalog.schema().types().FindType("Sel").ok());
  EXPECT_EQ(catalog.schema().types().NumTypes(), types);
}

TEST(CatalogDropViewTest, UnknownViewReported) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  EXPECT_EQ(catalog.DropView("Ghost").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tyder
