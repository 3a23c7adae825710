#include "objmodel/type_graph.h"

#include <gtest/gtest.h>

#include "objmodel/builtin_types.h"

namespace tyder {
namespace {

class TypeGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto b = InstallBuiltins(graph_);
    ASSERT_TRUE(b.ok()) << b.status();
    builtins_ = *b;
  }

  TypeId Declare(std::string_view name) {
    auto r = graph_.DeclareType(name, TypeKind::kUser);
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  }

  TypeGraph graph_;
  BuiltinTypes builtins_;
};

TEST_F(TypeGraphTest, BuiltinsInstalled) {
  EXPECT_TRUE(graph_.FindType("Object").ok());
  EXPECT_TRUE(graph_.FindType("Int").ok());
  EXPECT_TRUE(graph_.IsSubtype(builtins_.int_type, builtins_.object));
  EXPECT_FALSE(graph_.IsSubtype(builtins_.object, builtins_.int_type));
  EXPECT_TRUE(IsValueType(builtins_, builtins_.string_type));
  EXPECT_FALSE(IsValueType(builtins_, builtins_.object));
}

TEST_F(TypeGraphTest, BuiltinsRequireEmptyGraph) {
  TypeGraph g;
  ASSERT_TRUE(InstallBuiltins(g).ok());
  EXPECT_FALSE(InstallBuiltins(g).ok());
}

TEST_F(TypeGraphTest, DuplicateTypeNameRejected) {
  Declare("Person");
  auto dup = graph_.DeclareType("Person", TypeKind::kUser);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(TypeGraphTest, EmptyTypeNameRejected) {
  EXPECT_FALSE(graph_.DeclareType("", TypeKind::kUser).ok());
}

TEST_F(TypeGraphTest, SubtypeIsReflexiveAndTransitive) {
  TypeId person = Declare("Person");
  TypeId employee = Declare("Employee");
  TypeId manager = Declare("Manager");
  ASSERT_TRUE(graph_.AddSupertype(employee, person).ok());
  ASSERT_TRUE(graph_.AddSupertype(manager, employee).ok());
  EXPECT_TRUE(graph_.IsSubtype(person, person));
  EXPECT_TRUE(graph_.IsSubtype(manager, person));
  EXPECT_FALSE(graph_.IsSubtype(person, manager));
  EXPECT_TRUE(graph_.IsProperSubtype(manager, person));
  EXPECT_FALSE(graph_.IsProperSubtype(person, person));
}

TEST_F(TypeGraphTest, CycleRejected) {
  TypeId a = Declare("A");
  TypeId b = Declare("B");
  ASSERT_TRUE(graph_.AddSupertype(a, b).ok());
  Status cyc = graph_.AddSupertype(b, a);
  EXPECT_EQ(cyc.code(), StatusCode::kFailedPrecondition);
  Status self = graph_.AddSupertype(a, a);
  EXPECT_EQ(self.code(), StatusCode::kInvalidArgument);
}

TEST_F(TypeGraphTest, DuplicateEdgeRejected) {
  TypeId a = Declare("A");
  TypeId b = Declare("B");
  ASSERT_TRUE(graph_.AddSupertype(a, b).ok());
  EXPECT_EQ(graph_.AddSupertype(a, b).code(), StatusCode::kAlreadyExists);
}

TEST_F(TypeGraphTest, SupertypePrecedenceOrderIsDeclarationOrder) {
  TypeId a = Declare("A");
  TypeId b = Declare("B");
  TypeId c = Declare("C");
  ASSERT_TRUE(graph_.AddSupertype(a, c).ok());
  ASSERT_TRUE(graph_.AddSupertype(a, b).ok());
  EXPECT_EQ(graph_.type(a).supertypes(), (std::vector<TypeId>{c, b}));
}

TEST_F(TypeGraphTest, GloballyUniqueAttributeNames) {
  TypeId a = Declare("A");
  TypeId b = Declare("B");
  ASSERT_TRUE(graph_.DeclareAttribute(a, "x", builtins_.int_type).ok());
  auto dup = graph_.DeclareAttribute(b, "x", builtins_.int_type);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(TypeGraphTest, CumulativeAttributesInheritOnceThroughDiamond) {
  // D <- B <- A, D <- C <- A (diamond): A sees D's attribute exactly once.
  TypeId d = Declare("D");
  TypeId b = Declare("B");
  TypeId c = Declare("C");
  TypeId a = Declare("A");
  ASSERT_TRUE(graph_.AddSupertype(b, d).ok());
  ASSERT_TRUE(graph_.AddSupertype(c, d).ok());
  ASSERT_TRUE(graph_.AddSupertype(a, b).ok());
  ASSERT_TRUE(graph_.AddSupertype(a, c).ok());
  auto dx = graph_.DeclareAttribute(d, "dx", builtins_.int_type);
  ASSERT_TRUE(dx.ok());
  std::vector<AttrId> cumulative = graph_.CumulativeAttributes(a);
  EXPECT_EQ(cumulative, (std::vector<AttrId>{*dx}));
}

TEST_F(TypeGraphTest, CumulativeAttributesIncludeLocalAndInherited) {
  TypeId person = Declare("Person");
  TypeId employee = Declare("Employee");
  ASSERT_TRUE(graph_.AddSupertype(employee, person).ok());
  auto ssn = graph_.DeclareAttribute(person, "SSN", builtins_.string_type);
  auto pay = graph_.DeclareAttribute(employee, "pay", builtins_.float_type);
  ASSERT_TRUE(ssn.ok());
  ASSERT_TRUE(pay.ok());
  std::vector<AttrId> cumulative = graph_.CumulativeAttributes(employee);
  EXPECT_EQ(cumulative.size(), 2u);
  EXPECT_TRUE(graph_.AttributeAvailableAt(employee, *ssn));
  EXPECT_TRUE(graph_.AttributeAvailableAt(employee, *pay));
  EXPECT_FALSE(graph_.AttributeAvailableAt(person, *pay));
}

TEST_F(TypeGraphTest, MoveAttributeRehomes) {
  TypeId a = Declare("A");
  TypeId b = Declare("B");
  auto x = graph_.DeclareAttribute(a, "x", builtins_.int_type);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(graph_.MoveAttribute(*x, b).ok());
  EXPECT_EQ(graph_.attribute(*x).owner, b);
  EXPECT_TRUE(graph_.type(a).local_attributes().empty());
  EXPECT_EQ(graph_.type(b).local_attributes().size(), 1u);
  EXPECT_TRUE(graph_.Validate().ok());
}

TEST_F(TypeGraphTest, SurrogateRemembersSource) {
  TypeId a = Declare("A");
  auto s = graph_.DeclareSurrogate("~A", a);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(graph_.type(*s).surrogate_source(), a);
  EXPECT_TRUE(graph_.type(*s).is_surrogate());
}

TEST_F(TypeGraphTest, SubtypeClosureFindsAllSubtypes) {
  TypeId person = Declare("Person");
  TypeId employee = Declare("Employee");
  TypeId manager = Declare("Manager");
  ASSERT_TRUE(graph_.AddSupertype(employee, person).ok());
  ASSERT_TRUE(graph_.AddSupertype(manager, employee).ok());
  std::vector<TypeId> subs = graph_.SubtypeClosure(person);
  EXPECT_EQ(subs.size(), 3u);
}

TEST_F(TypeGraphTest, SupertypeClosureStartsAtSelf) {
  TypeId person = Declare("Person");
  TypeId employee = Declare("Employee");
  ASSERT_TRUE(graph_.AddSupertype(employee, person).ok());
  std::vector<TypeId> closure = graph_.SupertypeClosure(employee);
  ASSERT_EQ(closure.size(), 2u);
  EXPECT_EQ(closure[0], employee);
  EXPECT_EQ(closure[1], person);
}

TEST_F(TypeGraphTest, ValidatePassesOnWellFormedGraph) {
  Declare("A");
  EXPECT_TRUE(graph_.Validate().ok());
}

TEST_F(TypeGraphTest, ValidateNamesMalformedEdges) {
  TypeId a = Declare("A");
  TypeId b = Declare("B");
  TypeId c = Declare("C");
  ASSERT_TRUE(graph_.AddSupertype(c, a).ok());
  ASSERT_TRUE(graph_.AddSupertype(a, b).ok());
  ASSERT_TRUE(graph_.Validate().ok());
  auto expect = [&](const std::string& message) {
    Status status = graph_.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_EQ(status.message(), message);
  };

  // A cycle through edges AddSupertype would refuse, with C above it.
  graph_.mutable_type(b).AppendSupertype(a);
  expect("cycle through 'A' and 'B'");
  ASSERT_TRUE(graph_.mutable_type(b).RemoveSupertype(a));
  graph_.mutable_type(b).AppendSupertype(b);
  expect("cycle through 'B' and 'B'");
  ASSERT_TRUE(graph_.mutable_type(b).RemoveSupertype(b));

  graph_.mutable_type(c).AppendSupertype(
      static_cast<TypeId>(graph_.NumTypes()));
  expect("supertype id out of range for 'C'");
  graph_.mutable_type(c).RemoveSupertype(
      static_cast<TypeId>(graph_.NumTypes()));

  graph_.mutable_type(a).AppendSupertype(b);
  expect("duplicate direct supertype on 'A'");
  ASSERT_TRUE(graph_.mutable_type(a).RemoveSupertype(b));
  EXPECT_TRUE(graph_.Validate().ok());
}

TEST_F(TypeGraphTest, FindTypeReportsNotFound) {
  EXPECT_EQ(graph_.FindType("Nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(graph_.FindAttribute("nope").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace tyder
