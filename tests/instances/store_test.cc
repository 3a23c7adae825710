#include "instances/store.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
  }
  testing::PersonEmployeeFixture fx_;
  ObjectStore store_;
};

TEST_F(StoreTest, CreateObjectInitializesAllCumulativeSlots) {
  auto obj = store_.CreateObject(fx_.schema, fx_.employee);
  ASSERT_TRUE(obj.ok()) << obj.status();
  const Object& o = store_.object(*obj);
  EXPECT_EQ(o.type, fx_.employee);
  EXPECT_EQ(o.slots.size(), 5u);  // SSN, name, dob, pay_rate, hrs_worked
  auto ssn = store_.GetSlot(*obj, fx_.ssn);
  ASSERT_TRUE(ssn.ok());
  EXPECT_TRUE(ssn->is_string());
  auto pay = store_.GetSlot(*obj, fx_.pay_rate);
  ASSERT_TRUE(pay.ok());
  EXPECT_TRUE(pay->is_float());
}

TEST_F(StoreTest, SupertypeInstanceLacksSubtypeSlots) {
  auto obj = store_.CreateObject(fx_.schema, fx_.person);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(store_.GetSlot(*obj, fx_.ssn).ok());
  EXPECT_EQ(store_.GetSlot(*obj, fx_.pay_rate).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StoreTest, SetSlotRoundTrips) {
  auto obj = store_.CreateObject(fx_.schema, fx_.employee);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(store_.SetSlot(*obj, fx_.pay_rate, Value::Float(42.5)).ok());
  auto v = store_.GetSlot(*obj, fx_.pay_rate);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Float(42.5));
}

TEST_F(StoreTest, ExtentFollowsSubtypeSemantics) {
  auto p = store_.CreateObject(fx_.schema, fx_.person);
  auto e1 = store_.CreateObject(fx_.schema, fx_.employee);
  auto e2 = store_.CreateObject(fx_.schema, fx_.employee);
  ASSERT_TRUE(p.ok() && e1.ok() && e2.ok());
  EXPECT_EQ(store_.DirectExtent(fx_.person).size(), 1u);
  EXPECT_EQ(store_.DirectExtent(fx_.employee).size(), 2u);
  // An employee is a person (inclusion polymorphism).
  EXPECT_EQ(store_.Extent(fx_.schema, fx_.person).size(), 3u);
  EXPECT_EQ(store_.Extent(fx_.schema, fx_.employee).size(), 2u);
}

TEST_F(StoreTest, ExtentIsInIdOrderAndReadsTheTypeColumn) {
  auto e1 = store_.CreateObject(fx_.schema, fx_.employee);
  auto p = store_.CreateObject(fx_.schema, fx_.person);
  auto e2 = store_.CreateObject(fx_.schema, fx_.employee);
  ASSERT_TRUE(e1.ok() && p.ok() && e2.ok());
  EXPECT_EQ(store_.creation_types(),
            (std::vector<TypeId>{fx_.employee, fx_.person, fx_.employee}));
  EXPECT_EQ(store_.creation_type(*p), fx_.person);
  EXPECT_EQ(store_.creation_type(99), kInvalidType);
  EXPECT_EQ(store_.Extent(fx_.schema, fx_.person),
            (std::vector<ObjectId>{*e1, *p, *e2}));
  std::vector<uint8_t> row = MembershipRow(fx_.schema, fx_.employee);
  ASSERT_EQ(row.size(), fx_.schema.types().NumTypes());
  EXPECT_TRUE(row[fx_.employee]);
  EXPECT_FALSE(row[fx_.person]);
}

// A drop restores the view's checkpoint, so NumTypes falls below the
// creation type of an object made with the view's type. Such an object
// belongs to no extent, and deciding so must not index the subtype closure
// with its creation type.
TEST_F(StoreTest, ObjectOfADroppedViewBelongsToNoExtent) {
  Catalog catalog(std::move(fx_.schema));
  ASSERT_TRUE(catalog.DefineProjectionView("V", "Person", {"SSN"}).ok());
  auto view = catalog.schema().types().FindType("V");
  ASSERT_TRUE(view.ok());
  auto person = store_.CreateObject(catalog.schema(), fx_.person);
  auto stale = store_.CreateObject(catalog.schema(), *view);
  ASSERT_TRUE(person.ok() && stale.ok());
  ASSERT_TRUE(catalog.DropView("V").ok());
  ASSERT_GE(*view, catalog.schema().types().NumTypes());

  EXPECT_EQ(store_.Extent(catalog.schema(), fx_.person),
            std::vector<ObjectId>{*person});
  EXPECT_EQ(MembershipRow(catalog.schema(), fx_.person).size(),
            catalog.schema().types().NumTypes());
}

TEST_F(StoreTest, OutOfRangeAccessRejected) {
  EXPECT_FALSE(store_.GetSlot(99, fx_.ssn).ok());
  EXPECT_FALSE(store_.SetSlot(99, fx_.ssn, Value::Int(1)).ok());
  EXPECT_FALSE(store_.CreateObject(fx_.schema, 12345).ok());
}

TEST_F(StoreTest, DefaultValuesMatchValueTypes) {
  const Schema& s = fx_.schema;
  EXPECT_EQ(DefaultValueFor(s, s.builtins().int_type), Value::Int(0));
  EXPECT_EQ(DefaultValueFor(s, s.builtins().date_type), Value::Int(0));
  EXPECT_EQ(DefaultValueFor(s, s.builtins().float_type), Value::Float(0.0));
  EXPECT_EQ(DefaultValueFor(s, s.builtins().bool_type), Value::Bool(false));
  EXPECT_EQ(DefaultValueFor(s, s.builtins().string_type), Value::String(""));
  EXPECT_EQ(DefaultValueFor(s, fx_.person), Value::Void());
}

TEST_F(StoreTest, ValueToStringAndEquality) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::String("x").ToString(), "\"x\"");
  EXPECT_EQ(Value::Void().ToString(), "void");
  EXPECT_EQ(Value::Object(3).ToString(), "#3");
  const Value one = Value::Int(1);
  const Value one_float = Value::Float(1.0);
  EXPECT_EQ(one, Value::Int(1));
  EXPECT_FALSE(one == one_float);
}

}  // namespace
}  // namespace tyder
