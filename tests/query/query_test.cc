#include "query/query.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/projection.h"
#include "instances/interp.h"
#include "instances/view_materialize.h"
#include "lang/analyzer.h"
#include "mir/builder.h"
#include "obs/obs.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    struct Row {
      const char* ssn;
      int dob;
      double pay;
      double hrs;
    };
    for (const Row& row : std::initializer_list<Row>{
             {"A1", 1990, 40.0, 35.0},
             {"B2", 1960, 90.0, 40.0},
             {"C3", 1985, 120.0, 20.0}}) {
      auto obj = store_.CreateObject(fx_.schema, fx_.employee);
      ASSERT_TRUE(obj.ok());
      ASSERT_TRUE(
          store_.SetSlot(*obj, fx_.ssn, Value::String(row.ssn)).ok());
      ASSERT_TRUE(
          store_.SetSlot(*obj, fx_.date_of_birth, Value::Int(row.dob)).ok());
      ASSERT_TRUE(
          store_.SetSlot(*obj, fx_.pay_rate, Value::Float(row.pay)).ok());
      ASSERT_TRUE(
          store_.SetSlot(*obj, fx_.hrs_worked, Value::Float(row.hrs)).ok());
      employees_.push_back(*obj);
    }
  }

  testing::PersonEmployeeFixture fx_;
  ObjectStore store_;
  std::vector<ObjectId> employees_;
};

TEST_F(QueryTest, UnfilteredScanReturnsExtent) {
  Query query(fx_.schema, "Employee");
  auto result = query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objects.size(), 3u);
  EXPECT_TRUE(result->columns.empty());
}

TEST_F(QueryTest, TdlPredicateFilters) {
  Query query(fx_.schema, "Employee");
  query.WhereTdl("get_pay_rate(self) < 100.0");
  auto result = query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objects.size(), 2u);  // 40 and 90
}

TEST_F(QueryTest, PredicatesConjoin) {
  Query query(fx_.schema, "Employee");
  query.WhereTdl("get_pay_rate(self) < 100.0")
      .WhereTdl("age(self) < 40");  // only the 1990 hire
  auto result = query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->objects.size(), 1u);
  EXPECT_EQ(*store_.GetSlot(result->objects[0], fx_.ssn),
            Value::String("A1"));
}

TEST_F(QueryTest, ColumnsProjectMethodResults) {
  Query query(fx_.schema, "Employee");
  query.WhereTdl("get_hrs_worked(self) <= 35.0")
      .Column("get_SSN")
      .Column("income");
  auto result = query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);  // 35h and 20h employees
  EXPECT_EQ(result->columns, (std::vector<std::string>{"get_SSN", "income"}));
  EXPECT_EQ(result->rows[0][0], Value::String("A1"));
  EXPECT_EQ(result->rows[0][1], Value::Float(1400.0));
  EXPECT_EQ(result->rows[1][0], Value::String("C3"));
  EXPECT_EQ(result->rows[1][1], Value::Float(2400.0));
}

TEST_F(QueryTest, MirPredicateWorksDirectly) {
  auto promote = fx_.schema.FindGenericFunction("promote");
  ASSERT_TRUE(promote.ok());
  Query query(fx_.schema, "Employee");
  query.Where(mir::Call(*promote, {mir::Param(0)}));
  auto result = query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  // promote = age < 65 and pay < 100: A1 (36y, 40) yes; B2 (66y) no;
  // C3 (pay 120) no.
  ASSERT_EQ(result->objects.size(), 1u);
  EXPECT_EQ(*store_.GetSlot(result->objects[0], fx_.ssn),
            Value::String("A1"));
}

TEST_F(QueryTest, QueryOverDerivedViewUsesSurvivingBehaviorOnly) {
  auto derivation = DeriveProjectionByName(
      fx_.schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
      "EmployeeView");
  ASSERT_TRUE(derivation.ok()) << derivation.status();
  auto views =
      MaterializeProjectionPreserving(fx_.schema, store_, derivation->derived);
  ASSERT_TRUE(views.ok());

  // age survived the projection: usable in predicates over the view extent.
  // The extent of EmployeeView covers its subtypes too — the base Employee
  // objects as well as the delegating view instances — so A1 matches twice.
  Query ok_query(fx_.schema, "EmployeeView");
  ok_query.WhereTdl("age(self) < 40").Column("get_SSN");
  auto result = ok_query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], Value::String("A1"));
  EXPECT_EQ(result->rows[1][0], Value::String("A1"));

  // income did not survive. The column is *dynamically plausible* (Employee
  // instances in the extent can still answer it), so construction passes,
  // but evaluating it on a pure view instance fails — surfaced by Execute.
  Query bad_query(fx_.schema, "EmployeeView");
  bad_query.Column("income");
  auto rejected = bad_query.Execute(store_);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("income"), std::string::npos);
}

// An object made with a view's type outlives the view's drop, and its
// creation type is then past the schema's NumTypes. A scan skips it without
// indexing the subtype closure with that type, and a call on it is refused
// before it could index the dispatch index.
TEST_F(QueryTest, ObjectOfADroppedViewIsSkippedByScansAndRefusedByCalls) {
  Catalog catalog(std::move(fx_.schema));
  ASSERT_TRUE(
      catalog.DefineProjectionView("V", "Employee", {"SSN", "pay_rate"}).ok());
  auto view = catalog.schema().types().FindType("V");
  ASSERT_TRUE(view.ok());
  auto stale = store_.CreateObject(catalog.schema(), *view);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(catalog.DropView("V").ok());
  ASSERT_GE(*view, catalog.schema().types().NumTypes());

  Query query(catalog.schema(), "Person");
  query.WhereTdl("age(self) < 200").Column("get_SSN");
  auto result = query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objects, employees_);

  Interpreter interp(catalog.schema(), &store_);
  auto call = interp.CallByName("get_SSN", {Value::Object(*stale)});
  ASSERT_FALSE(call.ok());
  EXPECT_EQ(call.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(call.status().message().find("no longer has"), std::string::npos)
      << call.status();
}

// Plans memoize per concrete type, so a scan over both Person and Employee
// objects must still dispatch each call on each object's own type.
TEST_F(QueryTest, MixedExtentDispatchesPerConcreteType) {
  auto person = store_.CreateObject(fx_.schema, fx_.person);
  ASSERT_TRUE(person.ok());
  ASSERT_TRUE(store_.SetSlot(*person, fx_.ssn, Value::String("P0")).ok());
  ASSERT_TRUE(
      store_.SetSlot(*person, fx_.date_of_birth, Value::Int(2000)).ok());
  Query query(fx_.schema, "Person");
  query.WhereTdl("age(self) < 50").Column("get_SSN").Column("age");
  auto result = query.Execute(store_);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->objects,
            (std::vector<ObjectId>{employees_[0], employees_[2], *person}));
  EXPECT_EQ(result->rows[2][0], Value::String("P0"));
  EXPECT_EQ(result->rows[2][1], Value::Int(26));

  // income applies to Employee only: the scan fails at the Person, the
  // first member whose plan cannot resolve it, with Dispatch's message.
  Query income(fx_.schema, "Person");
  income.Column("income");
  auto rejected = income.Execute(store_);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotFound);
  EXPECT_NE(rejected.status().message().find("income(Person)"),
            std::string::npos)
      << rejected.status();
}

// A cyclic call graph (Example 1's x1/y1 in miniature): a scan resolves
// each call site once and still stops at the interpreter's depth limit.
TEST(QueryCycleTest, CyclicCallsResolveOnceAndHitTheDepthLimit) {
  auto catalog = LoadTdl(
      "type T { n: Int; }\n"
      "accessors;\n"
      "method ping (x: T) -> Bool { return pong(x); }\n"
      "method pong (x: T) -> Bool { return ping(x); }\n");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  const Schema& schema = catalog->schema();
  ObjectStore store;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.CreateObject(schema, *schema.types().FindType("T")).ok());
  }
  Query query(schema, "T");
  query.WhereTdl("ping(self)");
  obs::MetricsRegistry::Global().Reset();
  auto result = query.Execute(store);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status();
#if TYDER_OBS_ENABLED
  // ping in the predicate, pong in ping's body, ping in pong's body.
  EXPECT_EQ(obs::MetricsRegistry::Global().CounterValue("dispatch.calls"), 3u);
#endif
}

TEST_F(QueryTest, IllTypedPredicateRejected) {
  Query query(fx_.schema, "Employee");
  query.WhereTdl("get_pay_rate(self)");  // Float, not Bool
  EXPECT_FALSE(query.Execute(store_).ok());
}

TEST_F(QueryTest, MalformedPredicateRejected) {
  Query query(fx_.schema, "Employee");
  query.WhereTdl("get_pay_rate(self) <");
  auto result = query.Execute(store_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST_F(QueryTest, UnknownTypeAndColumnRejected) {
  Query unknown_type(fx_.schema, "Ghost");
  EXPECT_EQ(unknown_type.Execute(store_).status().code(),
            StatusCode::kNotFound);

  Query unknown_column(fx_.schema, "Employee");
  unknown_column.Column("ghost_fn");
  EXPECT_FALSE(unknown_column.Execute(store_).ok());

  Query binary_column(fx_.schema, "Employee");
  binary_column.Column("set_SSN");  // arity 2
  EXPECT_FALSE(binary_column.Execute(store_).ok());
}

TEST_F(QueryTest, SingleErrorKeepsItsCodeAcrossChaining) {
  Query query(fx_.schema, "Ghost");
  query.WhereTdl("true").Column("age");  // chained after the type error
  EXPECT_EQ(query.Execute(store_).status().code(), StatusCode::kNotFound);
}

TEST_F(QueryTest, AllConstructionErrorsAreReportedTogether) {
  Query query(fx_.schema, "Employee");
  query.WhereTdl("get_pay_rate(self) <")  // parse error
      .Column("ghost_fn")                 // unknown column
      .Column("get_SSN");                 // fine; must not mask the errors
  auto result = query.Execute(store_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("2 errors"), std::string::npos) << message;
  EXPECT_NE(message.find("query predicate"), std::string::npos) << message;
  EXPECT_NE(message.find("ghost_fn"), std::string::npos) << message;
}

}  // namespace
}  // namespace tyder
