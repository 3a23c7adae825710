#include "methods/precedence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mir/builder.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class PrecedenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildExample1();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
  }
  std::vector<std::string> CplNames(TypeId t) {
    std::vector<std::string> names;
    for (TypeId s : ClassPrecedenceList(fx_.schema.types(), t)) {
      names.push_back(fx_.schema.types().TypeName(s));
    }
    return names;
  }
  // Registers an empty-bodied general method on `gf_name`, declaring the
  // generic function on first use.
  Result<MethodId> AddMethod(std::string_view label, std::string_view gf_name,
                             std::vector<TypeId> params) {
    TYDER_ASSIGN_OR_RETURN(
        GfId gf, fx_.schema.FindOrDeclareGenericFunction(
                     gf_name, static_cast<int>(params.size())));
    Method m;
    m.label = Symbol::Intern(label);
    m.gf = gf;
    m.kind = MethodKind::kGeneral;
    for (size_t i = 0; i < params.size(); ++i) {
      m.param_names.push_back(Symbol::Intern("p" + std::to_string(i)));
    }
    m.sig.params = std::move(params);
    m.sig.result = fx_.schema.builtins().void_type;
    m.body = mir::Seq({});
    return fx_.schema.AddMethod(std::move(m));
  }
  std::vector<MethodId> Sorted(std::string_view gf_name,
                               const std::vector<TypeId>& args) {
    auto gf = fx_.schema.FindGenericFunction(gf_name);
    EXPECT_TRUE(gf.ok()) << gf.status();
    return gf.ok() ? SortBySpecificity(fx_.schema, *gf, args)
                   : std::vector<MethodId>{};
  }
  testing::Example1Fixture fx_;
};

TEST_F(PrecedenceTest, CplStartsWithSelf) {
  EXPECT_EQ(CplNames(fx_.h), (std::vector<std::string>{"H"}));
  EXPECT_EQ(CplNames(fx_.f), (std::vector<std::string>{"F", "H"}));
}

TEST_F(PrecedenceTest, CplRespectsLocalPrecedenceOrder) {
  // E: G before H (local precedence).
  EXPECT_EQ(CplNames(fx_.e), (std::vector<std::string>{"E", "G", "H"}));
  // C: F before E (local precedence), then E's tail.
  EXPECT_EQ(CplNames(fx_.c),
            (std::vector<std::string>{"C", "F", "E", "G", "H"}));
}

TEST_F(PrecedenceTest, CplOfAIsC3Linearization) {
  EXPECT_EQ(CplNames(fx_.a), (std::vector<std::string>{"A", "C", "F", "B",
                                                       "D", "E", "G", "H"}));
}

TEST_F(PrecedenceTest, CplContainsEachSupertypeOnce) {
  std::vector<TypeId> cpl = ClassPrecedenceList(fx_.schema.types(), fx_.a);
  std::vector<TypeId> sorted = cpl;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  // Exactly the supertype closure.
  EXPECT_EQ(cpl.size(), fx_.schema.types().SupertypeClosure(fx_.a).size());
}

TEST_F(PrecedenceTest, MoreSpecificPrefersTighterFormal) {
  // For the call u(A): u1(A) is more specific than u3(B).
  std::vector<MethodId> order = Sorted("u", {fx_.a});
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), fx_.u1);
  EXPECT_EQ(order.back(), fx_.u3);
  // The tighter formal wins even when it was registered last.
  auto loose = AddMethod("loose", "spec", {fx_.b});
  auto tight = AddMethod("tight", "spec", {fx_.a});
  ASSERT_TRUE(loose.ok() && tight.ok());
  EXPECT_EQ(Sorted("spec", {fx_.a}), (std::vector<MethodId>{*tight, *loose}));
}

TEST_F(PrecedenceTest, MoreSpecificIsIrreflexiveOnTies) {
  // Identical formals (A): neither twin is more specific, so both keep their
  // registration order — u1 before u2, and second before first here.
  auto second = AddMethod("second", "twin", {fx_.a});
  auto first = AddMethod("first", "twin", {fx_.a});
  ASSERT_TRUE(second.ok() && first.ok());
  EXPECT_EQ(Sorted("twin", {fx_.a}),
            (std::vector<MethodId>{*second, *first}));
  EXPECT_EQ(Sorted("u", {fx_.a}),
            (std::vector<MethodId>{fx_.u1, fx_.u2, fx_.u3}));
}

TEST_F(PrecedenceTest, LeftmostArgumentDominates) {
  // v1(A, C) vs v2(B, C) on call v(A, A): first formals A vs B — A wins.
  EXPECT_EQ(Sorted("v", {fx_.a, fx_.a}),
            (std::vector<MethodId>{fx_.v1, fx_.v2}));
  // The first differing position decides, whatever the later ones say:
  // (A, H) beats (B, A) on call (A, A), though A is tighter than H.
  auto right_tight = AddMethod("right_tight", "lm", {fx_.b, fx_.a});
  auto left_tight = AddMethod("left_tight", "lm", {fx_.a, fx_.h});
  ASSERT_TRUE(right_tight.ok() && left_tight.ok());
  EXPECT_EQ(Sorted("lm", {fx_.a, fx_.a}),
            (std::vector<MethodId>{*left_tight, *right_tight}));
}

TEST_F(PrecedenceTest, SortBySpecificityOrdersAllApplicable) {
  auto u = fx_.schema.FindGenericFunction("u");
  ASSERT_TRUE(u.ok());
  std::vector<MethodId> order = SortBySpecificity(fx_.schema, *u, {fx_.a});
  ASSERT_EQ(order.size(), 3u);
  // u1 and u2 (formal A) precede u3 (formal B); u1 before u2 by stability.
  EXPECT_EQ(order[0], fx_.u1);
  EXPECT_EQ(order[1], fx_.u2);
  EXPECT_EQ(order[2], fx_.u3);
}

TEST_F(PrecedenceTest, MostSpecificApplicableSelectsWinner) {
  auto u = fx_.schema.FindGenericFunction("u");
  ASSERT_TRUE(u.ok());
  auto winner = MostSpecificApplicable(fx_.schema, *u, {fx_.a});
  ASSERT_TRUE(winner.ok());
  EXPECT_EQ(*winner, fx_.u1);
  // u(B): only u3.
  auto only = MostSpecificApplicable(fx_.schema, *u, {fx_.b});
  ASSERT_TRUE(only.ok());
  EXPECT_EQ(*only, fx_.u3);
}

TEST_F(PrecedenceTest, MostSpecificApplicableFailsWhenNoneApply) {
  auto u = fx_.schema.FindGenericFunction("u");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(MostSpecificApplicable(fx_.schema, *u, {fx_.c}).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace tyder
