// Section 7's open problem: surrogate growth when views are defined over
// views, and the effect of empty-surrogate collapse.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

// Builds a linear chain of projection views over Employee, each dropping
// nothing (full attribute list), which maximizes factoring work.
Result<Catalog> BuildChain(int depth) {
  TYDER_ASSIGN_OR_RETURN(testing::PersonEmployeeFixture fx,
                         testing::BuildPersonEmployee());
  Catalog catalog(std::move(fx.schema));
  std::string source = "Employee";
  std::vector<std::string> attrs = {"SSN", "date_of_birth", "pay_rate"};
  for (int i = 0; i < depth; ++i) {
    std::string name = "V" + std::to_string(i);
    TYDER_RETURN_IF_ERROR(
        catalog.DefineProjectionView(name, source, attrs).status());
    source = name;
  }
  return catalog;
}

TEST(ViewsOverViews, SurrogateCountGrowsLinearly) {
  auto c2 = BuildChain(2);
  ASSERT_TRUE(c2.ok()) << c2.status();
  auto c4 = BuildChain(4);
  ASSERT_TRUE(c4.ok()) << c4.status();
  EXPECT_GT(c4->LiveSurrogateCount(), c2->LiveSurrogateCount());
}

TEST(ViewsOverViews, EveryLevelKeepsProjectedState) {
  auto chain = BuildChain(4);
  ASSERT_TRUE(chain.ok()) << chain.status();
  for (const ViewDef& def : chain->views()) {
    std::set<std::string> attrs;
    for (AttrId a :
         chain->schema().types().CumulativeAttributes(def.derived)) {
      attrs.insert(chain->schema().types().attribute(a).name.str());
    }
    EXPECT_EQ(attrs,
              (std::set<std::string>{"SSN", "date_of_birth", "pay_rate"}))
        << def.name;
  }
}

TEST(ViewsOverViews, CollapseReducesEmptySurrogates) {
  auto chain = BuildChain(4);
  ASSERT_TRUE(chain.ok()) << chain.status();
  size_t before = chain->LiveSurrogateCount();
  size_t types_before = chain->schema().types().NumTypes();
  auto report = chain->Collapse();
  ASSERT_TRUE(report.ok()) << report.status();
  size_t after = chain->LiveSurrogateCount();
  EXPECT_EQ(before - after, report->collapsed.size());
  // The collapsed types are gone from the type table.
  EXPECT_EQ(types_before - chain->schema().types().NumTypes(),
            report->collapsed.size());
  EXPECT_TRUE(chain->schema().Validate().ok());
  // View types and state are intact after collapsing.
  for (const ViewDef& def : chain->views()) {
    EXPECT_EQ(chain->schema().types().TypeName(def.derived), def.name);
    EXPECT_EQ(chain->schema().types().CumulativeAttributes(def.derived).size(),
              3u);
  }
}

TEST(ViewsOverViews, NarrowingChainDropsBehavior) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  ASSERT_TRUE(catalog
                  .DefineProjectionView("V0", "Employee",
                                        {"SSN", "date_of_birth", "pay_rate"})
                  .ok());
  ASSERT_TRUE(
      catalog.DefineProjectionView("V1", "V0", {"SSN", "pay_rate"}).ok());
  ASSERT_TRUE(catalog.DefineProjectionView("V2", "V1", {"SSN"}).ok());
  const Schema& s = catalog.schema();
  auto v2 = s.types().FindType("V2");
  ASSERT_TRUE(v2.ok());
  // Only the SSN accessors remain applicable at the bottom of the chain.
  int applicable = 0;
  for (MethodId m = 0; m < s.NumMethods(); ++m) {
    for (TypeId formal : s.method(m).sig.params) {
      if (s.types().IsSubtype(*v2, formal)) {
        ++applicable;
        break;
      }
    }
  }
  EXPECT_EQ(applicable, 2);  // get_SSN and set_SSN (rewritten)
}

}  // namespace
}  // namespace tyder
