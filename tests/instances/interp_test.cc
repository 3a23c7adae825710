#include "instances/interp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/projection.h"
#include "lang/analyzer.h"
#include "mir/builder.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class InterpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    auto obj = store_.CreateObject(fx_.schema, fx_.employee);
    ASSERT_TRUE(obj.ok());
    emp_ = *obj;
    ASSERT_TRUE(store_.SetSlot(emp_, fx_.date_of_birth, Value::Int(1990)).ok());
    ASSERT_TRUE(store_.SetSlot(emp_, fx_.pay_rate, Value::Float(50.0)).ok());
    ASSERT_TRUE(store_.SetSlot(emp_, fx_.hrs_worked, Value::Float(40.0)).ok());
  }

  testing::PersonEmployeeFixture fx_;
  ObjectStore store_;
  ObjectId emp_ = kInvalidObject;
};

TEST_F(InterpTest, ReaderReturnsSlot) {
  Interpreter interp(fx_.schema, &store_);
  auto v = interp.CallByName("get_pay_rate", {Value::Object(emp_)});
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, Value::Float(50.0));
}

TEST_F(InterpTest, MutatorWritesSlot) {
  Interpreter interp(fx_.schema, &store_);
  auto r = interp.CallByName("set_pay_rate",
                             {Value::Object(emp_), Value::Float(60.0)});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->is_void());
  EXPECT_EQ(*store_.GetSlot(emp_, fx_.pay_rate), Value::Float(60.0));
}

TEST_F(InterpTest, GeneralMethodComputes) {
  Interpreter interp(fx_.schema, &store_);
  auto age = interp.CallByName("age", {Value::Object(emp_)});
  ASSERT_TRUE(age.ok()) << age.status();
  EXPECT_EQ(*age, Value::Int(2026 - 1990));
  auto income = interp.CallByName("income", {Value::Object(emp_)});
  ASSERT_TRUE(income.ok());
  EXPECT_EQ(*income, Value::Float(2000.0));
  auto promote = interp.CallByName("promote", {Value::Object(emp_)});
  ASSERT_TRUE(promote.ok());
  EXPECT_EQ(*promote, Value::Bool(true));  // age 36 < 65 and pay 50 < 100
}

TEST_F(InterpTest, PromoteFalseWhenPayTooHigh) {
  ASSERT_TRUE(store_.SetSlot(emp_, fx_.pay_rate, Value::Float(150.0)).ok());
  Interpreter interp(fx_.schema, &store_);
  auto promote = interp.CallByName("promote", {Value::Object(emp_)});
  ASSERT_TRUE(promote.ok());
  EXPECT_EQ(*promote, Value::Bool(false));
}

TEST_F(InterpTest, DispatchOnRuntimeType) {
  // A Person object cannot run income (no applicable method).
  auto person = store_.CreateObject(fx_.schema, fx_.person);
  ASSERT_TRUE(person.ok());
  Interpreter interp(fx_.schema, &store_);
  EXPECT_FALSE(interp.CallByName("income", {Value::Object(*person)}).ok());
  // But age works (method on Person).
  ASSERT_TRUE(
      store_.SetSlot(*person, fx_.date_of_birth, Value::Int(2000)).ok());
  auto age = interp.CallByName("age", {Value::Object(*person)});
  ASSERT_TRUE(age.ok());
  EXPECT_EQ(*age, Value::Int(26));
}

TEST_F(InterpTest, BehaviorIdenticalAfterDerivation) {
  // The core behavioral claim, observed end to end: run the methods, derive
  // the view type, run them again on the same object — identical results.
  Interpreter interp(fx_.schema, &store_);
  Value age_before = *interp.CallByName("age", {Value::Object(emp_)});
  Value income_before = *interp.CallByName("income", {Value::Object(emp_)});
  Value promote_before = *interp.CallByName("promote", {Value::Object(emp_)});

  auto result = DeriveProjectionByName(
      fx_.schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView");
  ASSERT_TRUE(result.ok()) << result.status();

  Interpreter after(fx_.schema, &store_);
  EXPECT_EQ(*after.CallByName("age", {Value::Object(emp_)}), age_before);
  EXPECT_EQ(*after.CallByName("income", {Value::Object(emp_)}), income_before);
  EXPECT_EQ(*after.CallByName("promote", {Value::Object(emp_)}),
            promote_before);
}

TEST_F(InterpTest, VoidArgumentCannotDispatch) {
  Interpreter interp(fx_.schema, &store_);
  EXPECT_FALSE(interp.CallByName("age", {Value::Void()}).ok());
}

TEST_F(InterpTest, RuntimeTypeOfPrimitives) {
  Interpreter interp(fx_.schema, &store_);
  EXPECT_EQ(interp.RuntimeTypeOf(Value::Int(1)),
            fx_.schema.builtins().int_type);
  EXPECT_EQ(interp.RuntimeTypeOf(Value::Float(1.0)),
            fx_.schema.builtins().float_type);
  EXPECT_EQ(interp.RuntimeTypeOf(Value::Bool(true)),
            fx_.schema.builtins().bool_type);
  EXPECT_EQ(interp.RuntimeTypeOf(Value::String("s")),
            fx_.schema.builtins().string_type);
  EXPECT_EQ(interp.RuntimeTypeOf(Value::Object(emp_)), fx_.employee);
  EXPECT_EQ(interp.RuntimeTypeOf(Value::Void()), kInvalidType);
}

TEST_F(InterpTest, InfiniteRecursionHitsDepthLimit) {
  // Example 1's x1/y1 are mutually recursive; invoking them must terminate
  // with a depth error rather than hang.
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok());
  ObjectStore store;
  auto a = store.CreateObject(fx->schema, fx->a);
  auto b = store.CreateObject(fx->schema, fx->b);
  ASSERT_TRUE(a.ok() && b.ok());
  Interpreter interp(fx->schema, &store);
  auto r = interp.CallByName("x", {Value::Object(*a), Value::Object(*b)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(InterpTest, DivisionByZeroReported) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok());
  // Direct arithmetic through a probe method is covered by type_check tests;
  // here exercise the interpreter's guard via a small synthetic body.
  Schema& s = fx->schema;
  auto gf = s.DeclareGenericFunction("div_probe", 1);
  ASSERT_TRUE(gf.ok());
  Method m;
  m.label = Symbol::Intern("div_probe1");
  m.gf = *gf;
  m.kind = MethodKind::kGeneral;
  m.sig = Signature{{fx->a}, s.builtins().int_type};
  m.body = mir::Seq({mir::Return(
      mir::BinOp(BinOpKind::kDiv, mir::IntLit(1), mir::IntLit(0)))});
  auto id = s.AddMethod(std::move(m));
  ASSERT_TRUE(id.ok());
  ObjectStore store;
  auto a = store.CreateObject(s, fx->a);
  ASSERT_TRUE(a.ok());
  Interpreter interp(s, &store);
  auto r = interp.Invoke(*id, {Value::Object(*a)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Int arithmetic is checked: a result outside int64 is an InvalidArgument,
// like division by zero, rather than a wrapped value or a SIGFPE.
TEST_F(InterpTest, IntegerOverflowReported) {
  auto catalog = LoadTdl(
      "type T { n: Int; }\n"
      "accessors;\n"
      "method neg (x: T) -> Int { return get_n(x) / (0 - 1); }\n"
      "method twice (x: T) -> Int { return get_n(x) * 2; }\n"
      "method succ (x: T) -> Int { return get_n(x) + 1; }\n"
      "method minus (x: T) -> Int { return 0 - get_n(x) - 2; }\n");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  const Schema& s = catalog->schema();
  ObjectStore store;
  auto obj = store.CreateObject(s, *s.types().FindType("T"));
  ASSERT_TRUE(obj.ok());
  AttrId n = *s.types().FindAttribute("n");
  Interpreter interp(s, &store);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

  struct Case {
    int64_t n;
    const char* gf;
  };
  for (const Case& c : {Case{kMin, "neg"}, Case{kMax, "twice"},
                        Case{kMax, "succ"}, Case{kMax, "minus"}}) {
    ASSERT_TRUE(store.SetSlot(*obj, n, Value::Int(c.n)).ok());
    auto r = interp.CallByName(c.gf, {Value::Object(*obj)});
    ASSERT_FALSE(r.ok()) << c.gf << " returned " << r->ToString();
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.gf;
    EXPECT_NE(r.status().message().find("integer overflow"),
              std::string::npos)
        << r.status();
  }

  // In range, the same methods compute.
  ASSERT_TRUE(store.SetSlot(*obj, n, Value::Int(-7)).ok());
  EXPECT_EQ(*interp.CallByName("neg", {Value::Object(*obj)}), Value::Int(7));
  EXPECT_EQ(*interp.CallByName("twice", {Value::Object(*obj)}),
            Value::Int(-14));
  EXPECT_EQ(*interp.CallByName("succ", {Value::Object(*obj)}), Value::Int(-6));
  EXPECT_EQ(*interp.CallByName("minus", {Value::Object(*obj)}),
            Value::Int(5));
}

TEST_F(InterpTest, LocalsLiveInTheirOwnFrame) {
  // `twice` and `outer` both declare `v`; the callee's local must neither
  // see nor clobber the caller's.
  auto catalog = LoadTdl(
      "type T { n: Int; }\n"
      "accessors;\n"
      "method twice (x: T) -> Int { v: Int = get_n(x); v = v + v; "
      "return v; }\n"
      "method outer (x: T) -> Int { v: Int = 1; w: Int = twice(x); "
      "return v * 1000 + w; }\n");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  const Schema& s = catalog->schema();
  ObjectStore store;
  auto obj = store.CreateObject(s, *s.types().FindType("T"));
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(
      store.SetSlot(*obj, *s.types().FindAttribute("n"), Value::Int(21)).ok());
  Interpreter interp(s, &store);
  EXPECT_EQ(*interp.CallByName("outer", {Value::Object(*obj)}),
            Value::Int(1042));
}

TEST_F(InterpTest, ReadBeforeDeclarationIsInternal) {
  Schema& s = fx_.schema;
  auto gf = s.DeclareGenericFunction("read_probe", 1);
  ASSERT_TRUE(gf.ok());
  Method m;
  m.label = Symbol::Intern("read_probe1");
  m.gf = *gf;
  m.kind = MethodKind::kGeneral;
  m.sig = Signature{{fx_.person}, s.builtins().int_type};
  m.body = mir::Seq({mir::Return(mir::Var("ghost"))});
  auto id = s.AddMethod(std::move(m));
  ASSERT_TRUE(id.ok()) << id.status();
  Interpreter interp(s, &store_);
  auto r = interp.Invoke(*id, {Value::Object(emp_)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("read before declaration"),
            std::string::npos)
      << r.status();
}

}  // namespace
}  // namespace tyder
