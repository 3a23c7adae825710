#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include <chrono>

#include "catalog/diff.h"
#include "catalog/serialize.h"
#include "oracle/differential.h"
#include "storage/catalog_snapshot.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    catalog_ = std::make_unique<Catalog>(std::move(fx->schema));
  }
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CatalogTest, DefineProjectionViewRecordsProvenance) {
  auto view = catalog_->DefineProjectionView(
      "EmployeeView", "Employee", {"SSN", "date_of_birth", "pay_rate"});
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ((*view)->name, "EmployeeView");
  EXPECT_EQ((*view)->op, ViewOpKind::kProjection);
  EXPECT_EQ((*view)->attributes.size(), 3u);
  auto found = catalog_->FindView("EmployeeView");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->derived, (*view)->derived);
}

TEST_F(CatalogTest, DuplicateViewNameRejected) {
  ASSERT_TRUE(
      catalog_->DefineProjectionView("V", "Employee", {"SSN"}).ok());
  EXPECT_EQ(catalog_->DefineProjectionView("V", "Employee", {"name"})
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_->DefineSelectionView("V", "Employee").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, SelectionViewRecorded) {
  auto view = catalog_->DefineSelectionView("Staff", "Employee");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ((*view)->op, ViewOpKind::kSelection);
  EXPECT_TRUE(catalog_->schema().types().FindType("Staff").ok());
}

TEST_F(CatalogTest, GeneralizationViewRecorded) {
  auto view =
      catalog_->DefineGeneralizationView("Common", "Employee", "Person");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ((*view)->op, ViewOpKind::kGeneralization);
  EXPECT_NE((*view)->source2, kInvalidType);
}

TEST_F(CatalogTest, ViewsOverViews) {
  ASSERT_TRUE(catalog_
                  ->DefineProjectionView(
                      "V1", "Employee", {"SSN", "date_of_birth", "pay_rate"})
                  .ok());
  auto v2 = catalog_->DefineProjectionView("V2", "V1", {"SSN", "pay_rate"});
  ASSERT_TRUE(v2.ok()) << v2.status();
  auto v3 = catalog_->DefineProjectionView("V3", "V2", {"SSN"});
  ASSERT_TRUE(v3.ok()) << v3.status();
  EXPECT_EQ(catalog_->views().size(), 3u);
  std::set<std::string> attrs;
  for (AttrId a :
       catalog_->schema().types().CumulativeAttributes((*v3)->derived)) {
    attrs.insert(catalog_->schema().types().attribute(a).name.str());
  }
  EXPECT_EQ(attrs, (std::set<std::string>{"SSN"}));
}

TEST_F(CatalogTest, CollapseKeepsViewTypes) {
  ASSERT_TRUE(catalog_
                  ->DefineProjectionView(
                      "V1", "Employee", {"SSN", "date_of_birth", "pay_rate"})
                  .ok());
  ASSERT_TRUE(
      catalog_->DefineProjectionView("V2", "V1", {"SSN", "pay_rate"}).ok());
  size_t before = catalog_->LiveSurrogateCount();
  auto report = catalog_->Collapse();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LE(catalog_->LiveSurrogateCount(), before);
  // View types survive.
  for (const ViewDef& def : catalog_->views()) {
    EXPECT_FALSE(catalog_->schema().types().type(def.derived).detached())
        << def.name;
  }
}

TEST_F(CatalogTest, UnknownSourceTypeReported) {
  EXPECT_FALSE(catalog_->DefineProjectionView("V", "Ghost", {"SSN"}).ok());
  EXPECT_FALSE(catalog_->DefineSelectionView("V", "Ghost").ok());
}

// Every refused DropView must leave both the schema and the view registry
// exactly as they were (the all-or-nothing guarantee in catalog.h).

// Captures catalog state and asserts nothing changed since construction.
class CatalogStateCheck {
 public:
  explicit CatalogStateCheck(const Catalog& catalog)
      : catalog_(catalog),
        schema_(catalog.schema()),
        serialized_(SerializeSchema(catalog.schema())),
        views_(catalog.views().size()) {
    for (const ViewDef& def : catalog.views()) names_.push_back(def.name);
  }

  void ExpectUnchanged() const {
    EXPECT_EQ(SerializeSchema(catalog_.schema()), serialized_);
    EXPECT_TRUE(DiffSchemas(schema_, catalog_.schema()).empty())
        << DiffToString(DiffSchemas(schema_, catalog_.schema()));
    ASSERT_EQ(catalog_.views().size(), views_);
    for (size_t i = 0; i < views_; ++i) {
      EXPECT_EQ(catalog_.views()[i].name, names_[i]);
    }
  }

 private:
  const Catalog& catalog_;
  Schema schema_;  // pre-call copy for structural diffing
  std::string serialized_;
  size_t views_;
  std::vector<std::string> names_;
};

TEST_F(CatalogTest, DropUnknownViewLeavesEverythingUntouched) {
  ASSERT_TRUE(
      catalog_
          ->DefineProjectionView("V1", "Employee",
                                 {"SSN", "date_of_birth", "pay_rate"})
          .ok());
  CatalogStateCheck check(*catalog_);
  EXPECT_EQ(catalog_->DropView("Ghost").code(), StatusCode::kNotFound);
  check.ExpectUnchanged();
}

TEST_F(CatalogTest, DropObservedViewRefusedAndUntouched) {
  ASSERT_TRUE(catalog_
                  ->DefineProjectionView(
                      "V1", "Employee", {"SSN", "date_of_birth", "pay_rate"})
                  .ok());
  ASSERT_TRUE(
      catalog_->DefineProjectionView("V2", "V1", {"SSN", "pay_rate"}).ok());
  CatalogStateCheck check(*catalog_);
  // V2 projects V1, so re-applying it without V1 fails: the drop is refused
  // and names V2.
  Status status = catalog_->DropView("V1");
  ASSERT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_NE(status.message().find("view 'V2'"), std::string::npos) << status;
  check.ExpectUnchanged();
  // Dropping in dependency order still works.
  EXPECT_TRUE(catalog_->DropView("V2").ok());
  EXPECT_TRUE(catalog_->DropView("V1").ok());
  EXPECT_TRUE(catalog_->views().empty());
}

TEST_F(CatalogTest, DropRenameViewRestoresTheSchema) {
  std::string before = SerializeSchema(catalog_->schema());
  auto view = catalog_->DefineRenameView(
      "Renamed", "Employee", {{"pay_rate", "hourly_rate"}});
  ASSERT_TRUE(view.ok()) << view.status();
  // The alias accessors go with the view's checkpoint.
  ASSERT_TRUE(catalog_->DropView("Renamed").ok());
  EXPECT_EQ(SerializeSchema(catalog_->schema()), before);
  EXPECT_FALSE(catalog_->schema().FindGenericFunction("get_hourly_rate").ok());
  EXPECT_TRUE(catalog_->views().empty());
  Status oracle = oracle::CheckSchemaAgainstOracle(catalog_->schema());
  EXPECT_TRUE(oracle.ok()) << oracle;
}

TEST_F(CatalogTest, DropObservedSelectionViewRefusedAndUntouched) {
  ASSERT_TRUE(catalog_->DefineSelectionView("Staff", "Employee").ok());
  // A second selection view under the first makes "Staff" observed.
  ASSERT_TRUE(catalog_->DefineSelectionView("NightStaff", "Staff").ok());
  CatalogStateCheck check(*catalog_);
  Status status = catalog_->DropView("Staff");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  check.ExpectUnchanged();
  EXPECT_TRUE(catalog_->DropView("NightStaff").ok());
  EXPECT_TRUE(catalog_->DropView("Staff").ok());
}

// Dropping a view that a later one does not depend on re-folds the later
// one on the dropped view's checkpoint.
TEST_F(CatalogTest, DropOlderViewRefoldsTheLaterOne) {
  std::string base = SerializeSchema(catalog_->schema());
  ASSERT_TRUE(catalog_->DefineProjectionView("A", "Employee", {"SSN"}).ok());
  ASSERT_TRUE(catalog_->DefineSelectionView("B", "Person").ok());
  ASSERT_TRUE(catalog_->DropView("A").ok());
  ASSERT_EQ(catalog_->views().size(), 1u);
  EXPECT_EQ(catalog_->views()[0].name, "B");
  ASSERT_EQ(catalog_->log().size(), 1u);
  EXPECT_EQ(catalog_->log()[0].op, "select B Person");
  EXPECT_EQ(SerializeSchema(catalog_->base()), base);
  Status oracle = oracle::CheckSchemaAgainstOracle(catalog_->schema());
  EXPECT_TRUE(oracle.ok()) << oracle;
}

// An edit made directly on schema() after a view is invisible to the log,
// so no drop at or before it may re-fold it away.
TEST_F(CatalogTest, DropRefusedAfterAnEditOutsideTheLog) {
  ASSERT_TRUE(catalog_->DefineProjectionView("A", "Employee", {"SSN"}).ok());
  Schema& schema = catalog_->schema();
  ASSERT_TRUE(schema.types().DeclareType("Stray", TypeKind::kUser).ok());
  CatalogStateCheck check(*catalog_);
  Status status = catalog_->DropView("A");
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_NE(status.message().find("outside the catalog"), std::string::npos)
      << status;
  check.ExpectUnchanged();
}

// Base edits made through the catalog after a view are logged and re-folded.
TEST_F(CatalogTest, BaseEditsAfterAViewSurviveItsDrop) {
  ASSERT_TRUE(catalog_->DefineProjectionView("A", "Employee", {"SSN"}).ok());
  ASSERT_TRUE(catalog_->DeclareType("Contractor", {"Person"}).ok());
  ASSERT_TRUE(catalog_->DeclareAttribute("Contractor", "rate", "Float").ok());
  ASSERT_TRUE(catalog_->AddSupertype("Contractor", "Employee").ok());
  ASSERT_EQ(catalog_->log().size(), 4u);
  EXPECT_EQ(catalog_->log()[1].op, "type Contractor Person");
  EXPECT_EQ(catalog_->log()[2].op, "attr Contractor rate Float");
  EXPECT_EQ(catalog_->log()[3].op, "edge Contractor Employee");
  ASSERT_TRUE(catalog_->DropView("A").ok());
  // With no view left the edits belong to the base.
  EXPECT_TRUE(catalog_->log().empty());
  const TypeGraph& types = catalog_->schema().types();
  auto contractor = types.FindType("Contractor");
  ASSERT_TRUE(contractor.ok());
  EXPECT_TRUE(types.IsSubtype(*contractor, *types.FindType("Employee")));
  EXPECT_EQ(types.CumulativeAttributes(*contractor).size(), 6u);
}

// --- payroll drop pins ------------------------------------------------------
//
// After every accepted drop the catalog serializes exactly as before the
// dropped view was defined and passes the differential oracle.

class PayrollDropTest : public CatalogTest {
 protected:
  void ExpectBackTo(const std::string& serialized) {
    EXPECT_EQ(SerializeSchema(catalog_->schema()), serialized);
    Status oracle = oracle::CheckSchemaAgainstOracle(catalog_->schema());
    EXPECT_TRUE(oracle.ok()) << oracle;
  }
  Status Project(const std::string& view, const std::string& source,
                 const std::vector<std::string>& attrs) {
    return catalog_->DefineProjectionView(view, source, attrs).status();
  }
};

TEST_F(PayrollDropTest, IdenticalProjectionsDropInEitherOrder) {
  for (bool newest_first : {true, false}) {
    SetUp();
    std::string s0 = SerializeSchema(catalog_->schema());
    ASSERT_TRUE(Project("A", "Employee", {"SSN", "name"}).ok());
    std::string s1 = SerializeSchema(catalog_->schema());
    ASSERT_TRUE(Project("B", "Employee", {"SSN", "name"}).ok());
    if (newest_first) {
      ASSERT_TRUE(catalog_->DropView("B").ok());
      ExpectBackTo(s1);
      ASSERT_TRUE(catalog_->DropView("A").ok());
    } else {
      Status dropped = catalog_->DropView("A");
      ASSERT_TRUE(dropped.ok()) << dropped;
      ASSERT_EQ(catalog_->views().size(), 1u);
      EXPECT_EQ(catalog_->views()[0].name, "B");
      Status oracle = oracle::CheckSchemaAgainstOracle(catalog_->schema());
      EXPECT_TRUE(oracle.ok()) << oracle;
      ASSERT_TRUE(catalog_->DropView("B").ok());
    }
    ExpectBackTo(s0);
    EXPECT_TRUE(catalog_->views().empty());
  }
}

TEST_F(PayrollDropTest, ViewOverViewDropsNewestFirst) {
  std::string s0 = SerializeSchema(catalog_->schema());
  ASSERT_TRUE(Project("V1", "Person", {"SSN", "name"}).ok());
  std::string s1 = SerializeSchema(catalog_->schema());
  ASSERT_TRUE(Project("V2", "V1", {"SSN"}).ok());
  Status dropped = catalog_->DropView("V2");
  ASSERT_TRUE(dropped.ok()) << dropped;
  ExpectBackTo(s1);
  ASSERT_TRUE(catalog_->DropView("V1").ok());
  ExpectBackTo(s0);
}

TEST_F(PayrollDropTest, DroppingTheViewUnderAnotherIsRefusedNamingIt) {
  ASSERT_TRUE(Project("V1", "Person", {"SSN", "name"}).ok());
  ASSERT_TRUE(Project("V2", "V1", {"SSN"}).ok());
  std::string before = storage::SerializeCatalog(*catalog_);
  Status refused = catalog_->DropView("V1");
  ASSERT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
  EXPECT_NE(refused.message().find("view 'V2'"), std::string::npos) << refused;
  EXPECT_EQ(refused.message().find('~'), std::string::npos) << refused;
  EXPECT_EQ(storage::SerializeCatalog(*catalog_), before);
}

TEST_F(PayrollDropTest, DroppedNameIsDefinedAgain) {
  std::string s0 = SerializeSchema(catalog_->schema());
  ASSERT_TRUE(Project("A", "Employee", {"SSN", "name"}).ok());
  std::string s1 = SerializeSchema(catalog_->schema());
  ASSERT_TRUE(catalog_->DropView("A").ok());
  ExpectBackTo(s0);
  ASSERT_TRUE(Project("A", "Employee", {"SSN", "name"}).ok());
  EXPECT_EQ(SerializeSchema(catalog_->schema()), s1);
}

// A long-lived catalog stays stationary under define/drop churn: every
// cycle ends where the first one did, and a define costs what it did then.
TEST_F(PayrollDropTest, FiveHundredDefineDropCyclesStayStationary) {
  using Clock = std::chrono::steady_clock;
  size_t types = 0, serialized = 0;
  std::vector<std::string> views_after_define;
  double first_define_us = 0, last_define_us = 0;
  for (int cycle = 1; cycle <= 500; ++cycle) {
    Clock::time_point start = Clock::now();
    ASSERT_TRUE(Project("EmployeeView", "Employee",
                        {"SSN", "date_of_birth", "pay_rate"})
                    .ok());
    double define_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    std::vector<std::string> names;
    for (const ViewDef& def : catalog_->views()) names.push_back(def.name);
    ASSERT_TRUE(catalog_->DropView("EmployeeView").ok());
    if (cycle == 1) {
      types = catalog_->schema().types().NumTypes();
      serialized = storage::SerializeCatalog(*catalog_).size();
      views_after_define = names;
      first_define_us = define_us;
    }
    ASSERT_EQ(catalog_->schema().types().NumTypes(), types)
        << "cycle " << cycle;
    ASSERT_EQ(names, views_after_define) << "cycle " << cycle;
    last_define_us = define_us;
  }
  EXPECT_EQ(storage::SerializeCatalog(*catalog_).size(), serialized);
  EXPECT_TRUE(catalog_->views().empty());
  std::printf("define: cycle 1 %.0f us, cycle 500 %.0f us\n", first_define_us,
              last_define_us);
}

TEST_F(CatalogTest, CreateMakesEmptyCatalog) {
  auto fresh = Catalog::Create();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->views().empty());
  EXPECT_TRUE(fresh->schema().types().FindType("Object").ok());
}

}  // namespace
}  // namespace tyder
