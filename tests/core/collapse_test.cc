#include "core/collapse.h"

#include <gtest/gtest.h>

#include "core/projection.h"
#include "core/verify.h"
#include "methods/precedence.h"
#include "mir/type_check.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class CollapseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildExample1();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    ProjectionSpec spec;
    spec.source = fx_.a;
    spec.attributes = {fx_.a2, fx_.e2, fx_.h2};
    spec.view_name = "ProjA";
    auto result = DeriveProjection(fx_.schema, spec);
    ASSERT_TRUE(result.ok()) << result.status();
    result_ = std::move(result).value();
  }

  TypeId Surr(TypeId source) { return result_.surrogates.Of(source); }

  testing::Example1Fixture fx_;
  DerivationResult result_;
};

TEST_F(CollapseTest, OnlyUnreferencedEmptySurrogatesAreCollapsible) {
  std::set<TypeId> keep = {result_.derived};
  // ~F: empty state, never mentioned by a signature — collapsible.
  EXPECT_TRUE(IsCollapsible(fx_.schema, Surr(fx_.f), keep));
  // ~C: empty state but v1/w2 signatures mention it — not collapsible.
  EXPECT_FALSE(IsCollapsible(fx_.schema, Surr(fx_.c), keep));
  // ~H carries h2 — not collapsible.
  EXPECT_FALSE(IsCollapsible(fx_.schema, Surr(fx_.h), keep));
  // ~B: u3/get_h2 signatures mention it — not collapsible.
  EXPECT_FALSE(IsCollapsible(fx_.schema, Surr(fx_.b), keep));
  // The derived view is protected even though projection kept it referenced.
  EXPECT_FALSE(IsCollapsible(fx_.schema, result_.derived, keep));
  // Original user types are never collapsible.
  EXPECT_FALSE(IsCollapsible(fx_.schema, fx_.f, keep));
}

// Direct supertype names of `name`, in precedence order.
std::vector<std::string> SuperNames(const Schema& s, const std::string& name) {
  std::vector<std::string> out;
  for (TypeId t : s.types().type(*s.types().FindType(name)).supertypes()) {
    out.push_back(s.types().TypeName(t));
  }
  return out;
}

TEST_F(CollapseTest, CollapseSplicesEdgesAtSamePosition) {
  std::set<TypeId> keep = {result_.derived};
  size_t types_before = fx_.schema.types().NumTypes();
  auto report = CollapseEmptySurrogates(fx_.schema, keep);
  ASSERT_TRUE(report.ok()) << report.status();
  // Exactly ~F collapses in this schema, and it is gone.
  EXPECT_EQ(report->collapsed, (std::vector<std::string>{"~F"}));
  EXPECT_EQ(fx_.schema.types().NumTypes(), types_before - 1);
  EXPECT_EQ(fx_.schema.types().FindType("~F").status().code(),
            StatusCode::kNotFound);
  // F, which had [~F, H], now has ~F's supers spliced in: [~H, H].
  EXPECT_EQ(SuperNames(fx_.schema, "F"),
            (std::vector<std::string>{"~H", "H"}));
  // ~C, which had [~F, ~E], now has [~H, ~E].
  EXPECT_EQ(SuperNames(fx_.schema, "~C"),
            (std::vector<std::string>{"~H", "~E"}));
}

TEST_F(CollapseTest, SurvivorsKeepTheirRelativeOrder) {
  Schema before = fx_.schema;
  std::set<TypeId> keep = {result_.derived};
  auto report = CollapseEmptySurrogates(fx_.schema, keep);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->new_ids.size(), before.types().NumTypes());
  std::vector<std::string> survivors;
  for (TypeId t = 0; t < before.types().NumTypes(); ++t) {
    std::string name = before.types().TypeName(t);
    if (report->new_ids[t] == kInvalidType) continue;
    EXPECT_EQ(fx_.schema.types().TypeName(report->new_ids[t]), name);
    survivors.push_back(name);
  }
  std::vector<std::string> after;
  for (TypeId t = 0; t < fx_.schema.types().NumTypes(); ++t) {
    after.push_back(fx_.schema.types().TypeName(t));
  }
  EXPECT_EQ(after, survivors);
}

TEST_F(CollapseTest, CollapsePreservesStateAndTyping) {
  Schema before = fx_.schema;
  std::set<TypeId> keep = {result_.derived};
  ASSERT_TRUE(CollapseEmptySurrogates(fx_.schema, keep).ok());
  // Cumulative state of every surviving type is unchanged, by name.
  // (Compared as sets: splicing can permute the closure traversal order.)
  for (TypeId t = 0; t < before.types().NumTypes(); ++t) {
    std::string name = before.types().TypeName(t);
    Result<TypeId> now = fx_.schema.types().FindType(name);
    if (!now.ok()) continue;
    std::vector<AttrId> pre_list = before.types().CumulativeAttributes(t);
    std::vector<AttrId> post_list =
        fx_.schema.types().CumulativeAttributes(*now);
    EXPECT_EQ(std::set<AttrId>(pre_list.begin(), pre_list.end()),
              std::set<AttrId>(post_list.begin(), post_list.end()))
        << name;
    EXPECT_EQ(pre_list.size(), post_list.size());
  }
  EXPECT_TRUE(TypeCheckSchema(fx_.schema).ok());
  EXPECT_TRUE(fx_.schema.Validate().ok());
}

// Dispatch target's label, "-" when no method applies.
std::string DispatchProbe(const Schema& s, GfId g, TypeId t) {
  auto m = MostSpecificApplicable(s, g, {t});
  return m.ok() ? s.method(*m).label.str() : "-";
}

TEST_F(CollapseTest, CollapsePreservesDispatchOverLiveTypes) {
  Schema before = fx_.schema;
  std::set<TypeId> keep = {result_.derived};
  ASSERT_TRUE(CollapseEmptySurrogates(fx_.schema, keep).ok());
  // Dispatch over every surviving type, matched by name, is unchanged.
  for (GfId g = 0; g < before.NumGenericFunctions(); ++g) {
    if (before.gf(g).arity != 1) continue;
    for (TypeId t = 0; t < before.types().NumTypes(); ++t) {
      std::string name = before.types().TypeName(t);
      Result<TypeId> now = fx_.schema.types().FindType(name);
      if (!now.ok()) continue;
      EXPECT_EQ(DispatchProbe(before, g, t), DispatchProbe(fx_.schema, g, *now))
          << before.gf(g).name.view() << "(" << name << ")";
    }
  }
}

}  // namespace
}  // namespace tyder
