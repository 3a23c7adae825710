// End-to-end checks that the instrumented library paths produce
// deterministic counters and well-nested spans on the paper's fixed schemas.

#include <gtest/gtest.h>

#include "core/projection.h"
#include "instances/store.h"
#include "methods/dispatch.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "query/query.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

using obs::MetricsRegistry;
using obs::TraceEvent;

#if TYDER_OBS_ENABLED

TEST(InstrumentationTest, SubtypeCacheHitMissIsDeterministic) {
  // Build a private graph so no other code has warmed its ancestor closure;
  // every mutation invalidates the closure, so it is provably cold after the
  // last edge insertion.
  TypeGraph graph;
  auto base = graph.DeclareType("ObsBase", TypeKind::kUser);
  ASSERT_TRUE(base.ok());
  auto mid = graph.DeclareType("ObsMid", TypeKind::kUser);
  ASSERT_TRUE(mid.ok());
  auto leaf = graph.DeclareType("ObsLeaf", TypeKind::kUser);
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(graph.AddSupertype(*mid, *base).ok());
  ASSERT_TRUE(graph.AddSupertype(*leaf, *mid).ok());
  // Run the measured queries once outside the measured window: the first
  // allocates the closure and each builds the row it reads, so the repeats
  // below are pure warm-path reads.
  (void)graph.IsSubtype(*leaf, *base);
  (void)graph.IsSubtype(*leaf, *mid);
  (void)graph.IsSubtype(*base, *leaf);

  MetricsRegistry::Global().Reset();
  // Every query against the unchanged graph hits the warm closure.
  EXPECT_TRUE(graph.IsSubtype(*leaf, *base));
  EXPECT_TRUE(graph.IsSubtype(*leaf, *mid));
  EXPECT_FALSE(graph.IsSubtype(*base, *leaf));
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("subtype.queries"), 3u);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("subtype.cache_hit"), 3u);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("subtype.cache_miss"), 0u);

  // Reflexive queries short-circuit before the cache.
  EXPECT_TRUE(graph.IsSubtype(*leaf, *leaf));
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("subtype.queries"), 4u);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("subtype.cache_hit"), 3u);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("subtype.cache_miss"), 0u);

  // Mutating the graph invalidates the whole closure; the next query
  // rebuilds it (a miss that replaces a previous build counts as an
  // invalidation).
  auto extra = graph.DeclareType("ObsExtra", TypeKind::kUser);
  ASSERT_TRUE(extra.ok());
  EXPECT_TRUE(graph.IsSubtype(*leaf, *base));  // rebuild -> miss
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("subtype.cache_miss"), 1u);
  EXPECT_EQ(
      MetricsRegistry::Global().CounterValue("subtype.cache_invalidations"),
      1u);
}

TEST(InstrumentationTest, DispatchCountersOnExample1AreDeterministic) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  auto u = fx->schema.FindGenericFunction("u");
  ASSERT_TRUE(u.ok());

  // The first dispatch builds the schema's dispatch index; then identical
  // dispatch sweeps must produce identical counter deltas: a warm dispatch
  // reads the index, so it builds nothing and misses no closure row.
  MetricsRegistry::Global().Reset();
  ASSERT_TRUE(Dispatch(fx->schema, *u, {fx->a}).ok());
  ASSERT_TRUE(Dispatch(fx->schema, *u, {fx->b}).ok());
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("dispatch.table_builds"),
            1u);

  auto sweep_delta = [&](const char* name) {
    MetricsRegistry::Global().Reset();
    EXPECT_TRUE(Dispatch(fx->schema, *u, {fx->a}).ok());
    EXPECT_TRUE(Dispatch(fx->schema, *u, {fx->b}).ok());
    return MetricsRegistry::Global().CounterValue(name);
  };
  EXPECT_EQ(sweep_delta("dispatch.calls"), 2u);
  EXPECT_EQ(sweep_delta("dispatch.table_builds"), 0u);
  EXPECT_EQ(sweep_delta("subtype.cache_miss"), 0u);
}

TEST(InstrumentationTest, QueryCountersCountScannedFilteredEmitted) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  ObjectStore store;
  for (double pay : {40.0, 90.0, 120.0}) {
    auto obj = store.CreateObject(fx->schema, fx->employee);
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE(store.SetSlot(*obj, fx->pay_rate, Value::Float(pay)).ok());
    ASSERT_TRUE(store.SetSlot(*obj, fx->date_of_birth, Value::Int(1980)).ok());
    ASSERT_TRUE(store.SetSlot(*obj, fx->hrs_worked, Value::Float(40.0)).ok());
    ASSERT_TRUE(store.SetSlot(*obj, fx->ssn, Value::String("s")).ok());
  }

  MetricsRegistry::Global().Reset();
  Query query(fx->schema, "Employee");
  query.WhereTdl("get_pay_rate(self) < 100.0").Column("get_SSN");
  auto result = query.Execute(store);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objects.size(), 2u);
  MetricsRegistry& m = MetricsRegistry::Global();
  EXPECT_EQ(m.CounterValue("query.executions"), 1u);
  EXPECT_EQ(m.CounterValue("query.objects_scanned"), 3u);
  EXPECT_EQ(m.CounterValue("query.objects_filtered_out"), 1u);
  EXPECT_EQ(m.CounterValue("query.rows_emitted"), 2u);
  // One concrete type met: one plan, which resolved get_pay_rate and, once a
  // row was kept, get_SSN. Those two resolutions are the scan's only
  // dispatches.
  EXPECT_EQ(m.CounterValue("query.plans_built"), 1u);
  EXPECT_EQ(m.CounterValue("query.plan_calls_resolved"), 2u);
  EXPECT_EQ(m.CounterValue("dispatch.calls"), 2u);

  // A Person (born in year 0, so age filters it out) joins the extent: a
  // second plan. Each plan resolves age and age's get_date_of_birth; only
  // the Employee plan reaches the column.
  auto person = store.CreateObject(fx->schema, fx->person);
  ASSERT_TRUE(person.ok());
  MetricsRegistry::Global().Reset();
  Query ages(fx->schema, "Person");
  ages.WhereTdl("age(self) < 100").Column("get_SSN");
  ASSERT_TRUE(ages.Execute(store).ok());
  EXPECT_EQ(m.CounterValue("query.objects_scanned"), 4u);
  EXPECT_EQ(m.CounterValue("query.plans_built"), 2u);
  EXPECT_EQ(m.CounterValue("query.plan_calls_resolved"), 5u);
  EXPECT_EQ(m.CounterValue("dispatch.calls"), 5u);
}

TEST(InstrumentationTest, DerivationBumpsPipelineCounters) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  MetricsRegistry::Global().Reset();
  ProjectionSpec spec;
  spec.source = fx->a;
  spec.attributes = {fx->a2, fx->e2, fx->h2};
  spec.view_name = "ProjA";
  ASSERT_TRUE(DeriveProjection(fx->schema, spec).ok());
  MetricsRegistry& m = MetricsRegistry::Global();
  EXPECT_EQ(m.CounterValue("projection.derivations"), 1u);
  EXPECT_EQ(m.CounterValue("applicability.runs"), 1u);
  EXPECT_GT(m.CounterValue("applicability.method_checks"), 0u);
  EXPECT_GT(m.CounterValue("dataflow.analyses"), 0u);
  EXPECT_GT(m.CounterValue("dataflow.fixpoint_iterations"), 0u);
  // The behavior-preservation verifier's certificate re-dispatches
  // multi-method generic functions on argument tuples under a touched type
  // (by sorting applicable methods directly, without building a dispatch
  // index for a schema in mid-derivation): Example 1's twins u1/u2 over the
  // re-homed source A.
  EXPECT_GT(m.CounterValue("verify.dispatch_probes"), 0u);
}

#endif  // TYDER_OBS_ENABLED

TEST(InstrumentationTest, DerivationSpansMatchThePaperPhases) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  ProjectionSpec spec;
  spec.source = fx->a;
  spec.attributes = {fx->a2, fx->e2, fx->h2};
  spec.view_name = "ProjA";
  ProjectionOptions options;
  options.record_trace = true;
  auto result = DeriveProjection(fx->schema, spec, options);
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<std::string> phase_spans;
  for (const TraceEvent& e : result->events) {
    if (e.kind == TraceEvent::Kind::kBegin && e.depth == 1) {
      phase_spans.push_back(e.name);
    }
  }
  EXPECT_EQ(phase_spans,
            (std::vector<std::string>{"IsApplicable", "FactorState", "Augment",
                                      "FactorMethods", "Verify"}));
  ASSERT_FALSE(result->events.empty());
  EXPECT_EQ(result->events.front().name, "DeriveProjection");
  EXPECT_EQ(result->events.front().depth, 0);

  // Every span closes, and narration lines sit strictly inside the pipeline
  // span (depth >= 1).
  int open = 0;
  for (const TraceEvent& e : result->events) {
    if (e.kind == TraceEvent::Kind::kBegin) ++open;
    if (e.kind == TraceEvent::Kind::kEnd) --open;
    if (e.kind == TraceEvent::Kind::kInstant) {
      EXPECT_GE(e.depth, 1);
    }
    EXPECT_GE(open, 0);
  }
  EXPECT_EQ(open, 0);

  // The legacy rendering equals the instant events, in order.
  EXPECT_EQ(result->trace, obs::RenderNarration(result->events));
  EXPECT_FALSE(result->trace.empty());
}

TEST(InstrumentationTest, AmbientTracerSeesTheDerivation) {
  auto fx = testing::BuildExample1();
  ASSERT_TRUE(fx.ok()) << fx.status();
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(&tracer);
    ProjectionSpec spec;
    spec.source = fx->a;
    spec.attributes = {fx->a2, fx->e2, fx->h2};
    spec.view_name = "ProjA";
    // Even without record_trace the events flow to the installed tracer.
    ASSERT_TRUE(DeriveProjection(fx->schema, spec).ok());
  }
  bool saw_pipeline = false;
  bool saw_narration = false;
  for (const TraceEvent& e : tracer.events()) {
    if (e.kind == TraceEvent::Kind::kBegin && e.name == "DeriveProjection") {
      saw_pipeline = true;
    }
    if (e.kind == TraceEvent::Kind::kInstant) saw_narration = true;
  }
  EXPECT_TRUE(saw_pipeline);
  EXPECT_TRUE(saw_narration);
}

}  // namespace
}  // namespace tyder
