// Differential test of Query::Execute over an extent-shaped hierarchy:
// multiple inheritance, `value` overridden on some types with known factors,
// a projection view over the root with delegating instances, and a selection
// view defined and dropped between scans. Every scan must return exactly the
// objects (in id order) and rows of a reference built from GetSlot,
// oracle::RefIsSubtype and oracle::RefDispatch.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "instances/view_materialize.h"
#include "lang/analyzer.h"
#include "obs/obs.h"
#include "oracle/reference.h"
#include "query/query.h"

namespace tyder {
namespace {

// C3 and C5 are diamonds over Item; C5 inherits value_C3 ahead of C4's
// path; C7 overrides value itself over C6 (value_C2) and C4 (value).
constexpr const char* kTdl = R"(
type Item { id: Int; price: Float; qty: Int; }
type C1 : Item { c1: Int; }
type C2 : Item { c2: Int; }
type C3 : C1, C2 { c3: Int; }
type C4 : C1 { c4: Int; }
type C5 : C3, C4 { c5: Int; }
type C6 : C2 { c6: Int; }
type C7 : C6, C4 { c7: Int; }
accessors;
method value (x: Item) -> Float { return get_price(x) * 1.0; }
method value_C2 for value (x: C2) -> Float { return get_price(x) * 1.5; }
method value_C3 for value (x: C3) -> Float { return get_price(x) * 2.25; }
method value_C7 for value (x: C7) -> Float { return get_price(x) * 0.5; }
view ItemView = project Item on (id, price, qty);
)";

const std::map<std::string, double> kFactor = {
    {"value", 1.0}, {"value_C2", 1.5}, {"value_C3", 2.25}, {"value_C7", 0.5}};

const char* const kUserTypes[] = {"Item", "C1", "C2", "C3",
                                  "C4",   "C5", "C6", "C7"};

struct World {
  Catalog catalog{Schema()};
  ObjectStore store;
  AttrId id_attr = kInvalidAttr, price = kInvalidAttr, qty = kInvalidAttr;
};

// `objects` objects of random user types with random price and qty, then
// one delegating ItemView instance per object.
void Build(int objects, World* w) {
  auto catalog = LoadTdl(kTdl);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  w->catalog = std::move(*catalog);
  const Schema& schema = w->catalog.schema();
  w->id_attr = *schema.types().FindAttribute("id");
  w->price = *schema.types().FindAttribute("price");
  w->qty = *schema.types().FindAttribute("qty");
  std::mt19937 rng(7);
  for (int n = 0; n < objects; ++n) {
    TypeId type = *schema.types().FindType(kUserTypes[rng() % 8]);
    auto id = w->store.CreateObject(schema, type);
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(w->store.SetSlot(*id, w->id_attr, Value::Int(n)).ok());
    ASSERT_TRUE(w->store
                    .SetSlot(*id, w->price,
                             Value::Float((rng() % 10'000) / 100.0))
                    .ok());
    ASSERT_TRUE(
        w->store.SetSlot(*id, w->qty, Value::Int(rng() % 100)).ok());
  }
  auto views = MaterializeProjectionPreserving(
      schema, w->store, *schema.types().FindType("ItemView"));
  ASSERT_TRUE(views.ok()) << views.status();
  ASSERT_EQ(views->size(), static_cast<size_t>(objects));
}

struct Scan {
  std::string from;
  double x = 0;
  int64_t y = 0;
  bool on_view() const { return from == "ItemView"; }
  // TDL has no '>': `x < value(self)`.
  std::string Predicate() const {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  on_view() ? "get_price(self) < %.1f and get_qty(self) < %lld"
                            : "%.1f < value(self) and get_qty(self) < %lld",
                  x, static_cast<long long>(y));
    return buf;
  }
  const char* Column() const { return on_view() ? "get_id" : "value"; }
};

// The reference answer: membership by RefIsSubtype over the creation types
// the schema still has, value's factor by RefDispatch, slots by GetSlot.
QueryResult Reference(const World& w, const Scan& scan) {
  const Schema& schema = w.catalog.schema();
  const TypeGraph& types = schema.types();
  const TypeId from = *types.FindType(scan.from);
  const GfId value_gf = *schema.FindGenericFunction("value");
  QueryResult want;
  want.columns = {scan.Column()};
  for (ObjectId id = 0; id < w.store.NumObjects(); ++id) {
    const TypeId type = w.store.object(id).type;
    if (type >= types.NumTypes() || !oracle::RefIsSubtype(types, type, from)) {
      continue;
    }
    const double price = w.store.GetSlot(id, w.price)->AsFloat();
    const int64_t qty = w.store.GetSlot(id, w.qty)->AsInt();
    Value column;
    if (scan.on_view()) {
      if (!(price < scan.x && qty < scan.y)) continue;
      column = *w.store.GetSlot(id, w.id_attr);
    } else {
      auto method = oracle::RefDispatch(schema, value_gf, {type});
      EXPECT_TRUE(method.ok()) << method.status();
      const double value =
          price * kFactor.at(schema.method(*method).label.str());
      if (!(scan.x < value && qty < scan.y)) continue;
      column = Value::Float(value);
    }
    want.objects.push_back(id);
    want.rows.push_back({column});
  }
  return want;
}

std::vector<Scan> EveryType(std::mt19937& rng) {
  std::vector<Scan> scans;
  for (const char* from : kUserTypes) {
    scans.push_back({from, 20.0 + rng() % 60, 20 + int64_t(rng() % 60)});
  }
  scans.push_back({"ItemView", 10.0 + rng() % 60, 20 + int64_t(rng() % 60)});
  return scans;
}

TEST(ScanDifferentialTest, EveryTypeMatchesTheReference) {
  World w;
  ASSERT_NO_FATAL_FAILURE(Build(600, &w));
  std::mt19937 rng(11);
  int selections = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Scan& scan : EveryType(rng)) {
      // A selection view defined and dropped between scans moves the schema
      // version: a fresh closure and dispatch index for the next scan.
      std::string sel = "Sel" + std::to_string(selections++);
      ASSERT_TRUE(w.catalog.DefineSelectionView(sel, scan.from).ok());
      ASSERT_TRUE(w.catalog.DropView(sel).ok());

      Query query(w.catalog.schema(), scan.from);
      query.WhereTdl(scan.Predicate()).Column(scan.Column());
      auto got = query.Execute(w.store);
      ASSERT_TRUE(got.ok()) << scan.from << ": " << got.status();
      QueryResult want = Reference(w, scan);
      EXPECT_FALSE(want.objects.empty()) << scan.from;
      EXPECT_EQ(got->columns, want.columns) << scan.from;
      EXPECT_EQ(got->objects, want.objects) << scan.from;
      EXPECT_EQ(got->rows, want.rows) << scan.from;
    }
  }
}

// The mechanism: a scan resolves each call once per concrete type it meets,
// so its dispatch count does not grow with the store, and it visits exactly
// the extent's members.
TEST(ScanDifferentialTest, DispatchesPerScanDoNotGrowWithTheStore) {
#if !TYDER_OBS_ENABLED
  GTEST_SKIP() << "counters are compiled out";
#else
  auto per_scan = [](int objects) {
    World w;
    Build(objects, &w);
    std::vector<uint64_t> dispatches;
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    for (const char* from :
         {"Item", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "ItemView"}) {
      // Every member passes, so every call site is reached for every type.
      Query query(w.catalog.schema(), from);
      query.WhereTdl("0.0 <= get_price(self) and get_qty(self) < 100")
          .Column(std::string(from) == "ItemView" ? "get_id" : "value");
      metrics.Reset();
      auto got = query.Execute(w.store);
      EXPECT_TRUE(got.ok()) << got.status();
      const size_t members =
          w.store.Extent(w.catalog.schema(),
                         *w.catalog.schema().types().FindType(from))
              .size();
      EXPECT_EQ(metrics.CounterValue("query.objects_scanned"), members)
          << from;
      EXPECT_EQ(got->objects.size(), members) << from;
      EXPECT_EQ(metrics.CounterValue("dispatch.calls"),
                metrics.CounterValue("query.plan_calls_resolved"))
          << from;
      dispatches.push_back(metrics.CounterValue("dispatch.calls"));
    }
    return dispatches;
  };
  const std::vector<uint64_t> small = per_scan(1'000);
  const std::vector<uint64_t> large = per_scan(4'000);
  EXPECT_EQ(small, large);
  // Item's extent meets all eight user types: get_price, get_qty and value
  // once each per type, plus value's own get_price once per type.
  EXPECT_EQ(small.front(), 8u * 4u);
#endif
}

}  // namespace
}  // namespace tyder
