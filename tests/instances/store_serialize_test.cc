#include "instances/store_serialize.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "catalog/serialize.h"
#include "core/projection.h"
#include "instances/interp.h"
#include "instances/view_materialize.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class StoreSerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    auto obj = store_.CreateObject(fx_.schema, fx_.employee);
    ASSERT_TRUE(obj.ok());
    emp_ = *obj;
    ASSERT_TRUE(store_.SetSlot(emp_, fx_.ssn, Value::String("a \"b\"\nc")).ok());
    ASSERT_TRUE(store_.SetSlot(emp_, fx_.date_of_birth, Value::Int(1975)).ok());
    ASSERT_TRUE(store_.SetSlot(emp_, fx_.pay_rate, Value::Float(0.1)).ok());
    ASSERT_TRUE(store_.SetSlot(emp_, fx_.hrs_worked, Value::Float(37.5)).ok());
  }

  testing::PersonEmployeeFixture fx_;
  ObjectStore store_;
  ObjectId emp_ = kInvalidObject;
};

TEST_F(StoreSerializeTest, RoundTripPreservesSlotsExactly) {
  std::string text = SerializeStore(fx_.schema, store_);
  auto restored = DeserializeStore(fx_.schema, text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->NumObjects(), store_.NumObjects());
  for (AttrId a : {fx_.ssn, fx_.date_of_birth, fx_.pay_rate, fx_.hrs_worked}) {
    EXPECT_EQ(*restored->GetSlot(emp_, a), *store_.GetSlot(emp_, a));
  }
  // Floats round-trip bit-exactly (hexfloat encoding).
  EXPECT_EQ(restored->GetSlot(emp_, fx_.pay_rate)->AsFloat(), 0.1);
  // Stable re-serialization.
  EXPECT_EQ(SerializeStore(fx_.schema, *restored), text);
}

TEST_F(StoreSerializeTest, RestoredObjectsRunMethods) {
  auto restored = DeserializeStore(fx_.schema,
                                   SerializeStore(fx_.schema, store_));
  ASSERT_TRUE(restored.ok());
  Interpreter interp(fx_.schema, &*restored);
  auto income = interp.CallByName("income", {Value::Object(emp_)});
  ASSERT_TRUE(income.ok()) << income.status();
  EXPECT_EQ(income->AsFloat(), 0.1 * 37.5);
}

TEST_F(StoreSerializeTest, DelegatingViewsKeepBaseLinks) {
  auto derivation = DeriveProjectionByName(
      fx_.schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView");
  ASSERT_TRUE(derivation.ok());
  auto views = MaterializeProjectionPreserving(fx_.schema, store_,
                                               derivation->derived);
  ASSERT_TRUE(views.ok());
  std::string text = SerializeStore(fx_.schema, store_);
  EXPECT_NE(text.find("base=" + std::to_string(emp_)), std::string::npos);
  auto restored = DeserializeStore(fx_.schema, text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // The restored view still delegates: update the base, read via the view.
  ASSERT_TRUE(
      restored->SetSlot(emp_, fx_.pay_rate, Value::Float(111)).ok());
  EXPECT_EQ(*restored->GetSlot(views->front(), fx_.pay_rate),
            Value::Float(111));
}

TEST_F(StoreSerializeTest, WorksAgainstReloadedSchema) {
  // Schema and store each round-tripped through their own serializer: the
  // restored pair is fully operational.
  auto schema = DeserializeSchema(SerializeSchema(fx_.schema));
  ASSERT_TRUE(schema.ok()) << schema.status();
  auto restored =
      DeserializeStore(*schema, SerializeStore(fx_.schema, store_));
  ASSERT_TRUE(restored.ok()) << restored.status();
  Interpreter interp(*schema, &*restored);
  auto income = interp.CallByName("income", {Value::Object(emp_)});
  ASSERT_TRUE(income.ok()) << income.status();
  EXPECT_EQ(income->AsFloat(), 0.1 * 37.5);
}

TEST_F(StoreSerializeTest, MalformedInputsRejected) {
  EXPECT_FALSE(DeserializeStore(fx_.schema, "nope").ok());
  EXPECT_FALSE(
      DeserializeStore(fx_.schema, "tyder-store v1\nobj Ghost\n").ok());
  EXPECT_FALSE(
      DeserializeStore(fx_.schema,
                       "tyder-store v1\nobj Employee\nslot 5 SSN s:\"x\"\n")
          .ok());
  EXPECT_FALSE(
      DeserializeStore(fx_.schema,
                       "tyder-store v1\nobj Employee\nslot 0 ghost i:1\n")
          .ok());
  EXPECT_FALSE(
      DeserializeStore(fx_.schema,
                       "tyder-store v1\nobj Employee\nslot 0 SSN x:1\n")
          .ok());
  EXPECT_FALSE(
      DeserializeStore(fx_.schema, "tyder-store v1\nbogus\n").ok());
}

// Numbers in store records are parsed whole with std::from_chars: text that
// is not a number, or a number that does not fit its field, is a ParseError
// naming it — never an uncaught exception that aborts the process.
TEST_F(StoreSerializeTest, MalformedNumbersRejected) {
  const std::pair<const char*, const char*> kRecords[] = {
      {"obj Employee\nslot 0 SSN i:99999999999999999999\n",
       "99999999999999999999"},
      {"obj Employee\nslot 0 SSN i:twelve\n", "twelve"},
      {"obj Employee\nslot 0 SSN o:4294967296\n", "4294967296"},
      {"obj Employee\nslot 0 SSN o:-1\n", "-1"},
      {"obj Employee base=99999999999999999999\n", "99999999999999999999"},
      {"obj Employee base=x\n", "x"},
      {"obj Employee\nslot 0 pay_rate f:garbage\n", "garbage"},
      {"obj Employee\nslot 0 pay_rate f:0x1p+1x\n", "0x1p+1x"},
      {"obj Employee\nslot 0 pay_rate f:\n", ""},
      {"obj Employee\nslot 0 SSN b:yes\n", "yes"},
      {"obj Employee\nslot 0 SSN b:\n", ""},
  };
  for (const auto& [record, number] : kRecords) {
    auto restored = DeserializeStore(
        fx_.schema, std::string("tyder-store v1\n") + record);
    ASSERT_FALSE(restored.ok()) << record;
    EXPECT_EQ(restored.status().code(), StatusCode::kParseError) << record;
    EXPECT_NE(
        restored.status().message().find(std::string("'") + number + "'"),
        std::string::npos)
        << restored.status();
  }
}

TEST_F(StoreSerializeTest, EmptyStoreRoundTrips) {
  ObjectStore empty;
  auto restored =
      DeserializeStore(fx_.schema, SerializeStore(fx_.schema, empty));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->NumObjects(), 0u);
}

}  // namespace
}  // namespace tyder
