// Proof of the all-or-nothing guarantee (core/transaction.h): for every
// registered fault point, injecting a failure mid-operation must leave the
// schema serializing byte-identically to its pre-call snapshot (checked with
// catalog/serialize and catalog/diff), and a subsequent un-faulted run of the
// same operation must succeed — a failed derivation may not poison the
// schema, nor any cache derived from it. Also covers the SchemaTransaction
// primitive itself, the fail-point registry semantics, and the rollback
// metrics.

#include "core/transaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/diff.h"
#include "catalog/serialize.h"
#include "common/failpoint.h"
#include "core/collapse.h"
#include "core/projection.h"
#include "methods/dispatch.h"
#include "obs/metrics.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

// ---------------------------------------------------------------------------
// SchemaTransaction primitive.

TEST(SchemaTransactionTest, DestructorRollsBackByteIdentical) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  std::string pre = SerializeSchema(fx->schema);
  {
    SchemaTransaction txn(fx->schema);
    // The inner derivation commits its own (nested) transaction; the
    // uncommitted outer one must still restore the pre-call state over it.
    auto derived = DeriveProjectionByName(
        fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
    ASSERT_TRUE(derived.ok()) << derived.status();
    ASSERT_NE(SerializeSchema(fx->schema), pre);
  }
  EXPECT_EQ(SerializeSchema(fx->schema), pre);
  EXPECT_FALSE(fx->schema.types().FindType("V").ok());
}

TEST(SchemaTransactionTest, CommitKeepsMutations) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  {
    SchemaTransaction txn(fx->schema);
    ASSERT_TRUE(DeriveProjectionByName(fx->schema, "Employee",
                                       {"SSN", "date_of_birth", "pay_rate"},
                                       "V")
                    .ok());
    EXPECT_TRUE(txn.Commit().ok());
    EXPECT_TRUE(txn.committed());
  }
  EXPECT_TRUE(fx->schema.types().FindType("V").ok());
}

TEST(SchemaTransactionTest, SnapshotIsStablePreCallState) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  std::string pre = SerializeSchema(fx->schema);
  SchemaTransaction txn(fx->schema);
  ASSERT_TRUE(DeriveProjectionByName(fx->schema, "Employee",
                                     {"SSN", "date_of_birth", "pay_rate"}, "V")
                  .ok());
  // The snapshot does not follow the mutation — the verifier relies on this.
  EXPECT_EQ(SerializeSchema(txn.snapshot()), pre);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(SchemaTransactionTest, RollbackIsCountedInMetrics) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  obs::MetricsRegistry::Global().Reset();
  failpoint::Activate("verify.before", 1);
  auto result = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
  failpoint::DeactivateAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(obs::MetricsRegistry::Global().CounterValue("projection.rollbacks"),
            1u);
}

// ---------------------------------------------------------------------------
// Fail-point registry semantics.

Status HitVerifyBeforePoint() {
  TYDER_FAULT_POINT("verify.before");
  return Status::OK();
}

TEST(FailPointTest, InactivePointIsANoop) {
  failpoint::DeactivateAll();
  EXPECT_TRUE(HitVerifyBeforePoint().ok());
}

TEST(FailPointTest, CountedActivationFiresExactlyNTimes) {
  failpoint::DeactivateAll();
  failpoint::Activate("verify.before", 2);
  EXPECT_FALSE(HitVerifyBeforePoint().ok());
  EXPECT_FALSE(HitVerifyBeforePoint().ok());
  EXPECT_TRUE(HitVerifyBeforePoint().ok());  // shots exhausted
}

// Threads hitting an armed point race for its shots: each arming with one
// shot must fire exactly once, never leave the point armed for good.
TEST(FailPointTest, CountedActivationFiresExactlyNTimesUnderContention) {
  failpoint::DeactivateAll();
  failpoint::FailPoint* point = failpoint::GetPoint("verify.before");
  const uint64_t fires = failpoint::FireCount("verify.before");
  std::atomic<bool> stop{false};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)HitVerifyBeforePoint();
      }
    });
  }
  constexpr int kRounds = 20000;
  for (int round = 0; round < kRounds; ++round) {
    failpoint::Activate("verify.before", 1);
    while (point->remaining.load(std::memory_order_relaxed) > 0) {
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& hitter : hitters) hitter.join();
  EXPECT_EQ(point->remaining.load(), 0);
  EXPECT_EQ(failpoint::FireCount("verify.before") - fires,
            static_cast<uint64_t>(kRounds));
  failpoint::DeactivateAll();
}

TEST(FailPointTest, AlwaysActivationFiresUntilDeactivated) {
  failpoint::Activate("verify.before");
  uint64_t fires = failpoint::FireCount("verify.before");
  for (int i = 0; i < 5; ++i) {
    Status status = HitVerifyBeforePoint();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("verify.before"), std::string::npos);
  }
  EXPECT_EQ(failpoint::FireCount("verify.before"), fires + 5);
  failpoint::Deactivate("verify.before");
  EXPECT_TRUE(HitVerifyBeforePoint().ok());
}

TEST(FailPointTest, RegistryIsSortedUniqueAndNonEmpty) {
  const auto& names = failpoint::AllFaultPointNames();
  ASSERT_FALSE(names.empty());
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]) << "registry not sorted/unique";
  }
  for (const std::string& name : names) {
    EXPECT_NE(failpoint::GetPoint(name), nullptr);
  }
}

// ---------------------------------------------------------------------------
// The tentpole: every registered fault point, when fired, rolls back cleanly.

// Runs `op` with `point` armed and proves the failure left `schema` exactly
// as it was; then proves `retry` (the same operation, un-faulted) succeeds.
void CheckFaultedOpRollsBack(const std::string& point, Schema& schema,
                             const std::function<Status()>& op,
                             const std::function<Status()>& retry) {
  SCOPED_TRACE("fault point: " + point);
  Schema before = schema;
  std::string pre = SerializeSchema(schema);
  uint64_t fires = failpoint::FireCount(point);

  failpoint::Activate(point);
  Status status = op();
  failpoint::DeactivateAll();

  ASSERT_GT(failpoint::FireCount(point), fires)
      << "fault point was never reached by its mapped operation";
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("fault injected"), std::string::npos)
      << status;

  // All-or-nothing: byte-identical serialization and an empty structural
  // diff against the pre-call snapshot.
  EXPECT_EQ(SerializeSchema(schema), pre);
  EXPECT_TRUE(DiffSchemas(before, schema).empty())
      << DiffToString(DiffSchemas(before, schema));

  // The schema is not poisoned: the same operation succeeds afterwards.
  Status again = retry();
  EXPECT_TRUE(again.ok()) << again;
}

TEST(AllOrNothingTest, EveryRegisteredFaultPointRollsBackCleanly) {
  std::set<std::string> covered;
  auto covers = [&covered](const std::string& point) {
    covered.insert(point);
    return point;
  };

  // Pipeline points fire inside DeriveProjection. Example 1 with the Z
  // methods drives every phase: Z = {D, G} is non-empty, so the augment
  // points are reached; the Employee example below covers the catalog side.
  const char* kPipelinePoints[] = {
      "is_applicable.before", "is_applicable.mid", "factor_state.before",
      "factor_state.mid",     "augment.before",    "augment.mid",
      "augment.after_compute", "factor_methods.before", "factor_methods.mid",
      "verify.before",        "verify.force_failure",
  };
  for (const char* point : kPipelinePoints) {
    auto fx = testing::BuildExample1(/*with_z_methods=*/true);
    ASSERT_TRUE(fx.ok()) << fx.status();
    ProjectionSpec spec;
    spec.source = fx->a;
    spec.attributes = {fx->a2, fx->e2, fx->h2};
    spec.view_name = "ProjA";
    auto derive = [&] {
      return DeriveProjection(fx->schema, spec).status();
    };
    CheckFaultedOpRollsBack(covers(point), fx->schema, derive, derive);
  }

  // Collapse points: deriving ProjA on Example 1 leaves ~F as an empty,
  // unreferenced surrogate, so CollapseEmptySurrogates has a real splice to
  // roll back (collapse_test.cc pins exactly this collapse).
  for (const char* point : {"collapse.before", "collapse.mid"}) {
    auto fx = testing::BuildExample1();
    ASSERT_TRUE(fx.ok()) << fx.status();
    ProjectionSpec spec;
    spec.source = fx->a;
    spec.attributes = {fx->a2, fx->e2, fx->h2};
    spec.view_name = "ProjA";
    auto derived = DeriveProjection(fx->schema, spec);
    ASSERT_TRUE(derived.ok()) << derived.status();
    std::set<TypeId> keep = {derived->derived};
    auto collapse = [&] {
      return CollapseEmptySurrogates(fx->schema, keep).status();
    };
    CheckFaultedOpRollsBack(covers(point), fx->schema, collapse, collapse);
  }

  // Catalog points: the registry update and the schema mutation must land
  // (or vanish) together.
  {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    Catalog catalog(std::move(fx->schema));
    auto define = [&] {
      return catalog
          .DefineProjectionView("V", "Employee",
                                {"SSN", "date_of_birth", "pay_rate"})
          .status();
    };
    CheckFaultedOpRollsBack(covers("catalog.define.after_derive"),
                            catalog.schema(), define, define);
    EXPECT_EQ(catalog.views().size(), 1u);  // only the retry landed

    auto drop = [&] { return catalog.DropView("V"); };
    CheckFaultedOpRollsBack(covers("catalog.drop.mid"), catalog.schema(), drop,
                            drop);
    EXPECT_TRUE(catalog.views().empty());  // only the retry landed
  }

  // The loop above must cover the whole registry — adding a fault point to
  // failpoint.cc without mapping it here fails loudly. The storage.* points
  // guard on-disk state, not schema rollback; their pre-or-post recovery
  // contract is proved by tests/storage/crash_matrix_test.cc. The chaos.*
  // points are behavior perturbations, not failures — nothing returns
  // non-OK, so there is no rollback to prove; the differential fuzzer's
  // known-bad test (tests/fuzz/known_bad_test.cc) is their coverage. The
  // net.* points fire on the transport, above the schema transaction; their
  // ack/nack/indeterminate contract is proved by
  // tests/net/net_fault_matrix_test.cc and the chaos harness.
  for (const std::string& name : failpoint::AllFaultPointNames()) {
    if (name.rfind("storage.", 0) == 0) continue;
    if (name.rfind("chaos.", 0) == 0) continue;
    if (name.rfind("net.", 0) == 0) continue;
    EXPECT_TRUE(covered.count(name) > 0)
        << "fault point '" << name
        << "' is registered but has no rollback coverage in this test";
  }
}

// Regression: a phase-5 verifier rejection is a *semantic* failure (the
// report path, not a Status propagated from below) and must restore the
// schema exactly like any other pipeline failure (ProjectionOptions::verify
// failure contract in core/projection.h).
TEST(AllOrNothingTest, VerifyRejectionRestoresSchema) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  std::string pre = SerializeSchema(fx->schema);

  failpoint::Activate("verify.force_failure", 1);
  auto result = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
  failpoint::DeactivateAll();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("broke an invariant"),
            std::string::npos)
      << result.status();
  EXPECT_EQ(SerializeSchema(fx->schema), pre);
  EXPECT_FALSE(fx->schema.types().FindType("V").ok());

  // The rejected derivation left nothing behind: it still works un-faulted.
  auto again = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
  EXPECT_TRUE(again.ok()) << again.status();
}

// `tyderc --no-verify` path: rollback does not depend on the verifier — a
// mid-pipeline failure with verification off restores the schema too.
TEST(AllOrNothingTest, RollbackDoesNotDependOnVerifier) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  std::string pre = SerializeSchema(fx->schema);

  ProjectionOptions options;
  options.verify = false;
  failpoint::Activate("factor_methods.mid", 1);
  auto result = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V",
      options);
  failpoint::DeactivateAll();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(SerializeSchema(fx->schema), pre);
  auto again = DeriveProjectionByName(
      fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V",
      options);
  EXPECT_TRUE(again.ok()) << again.status();
}

// Rollback and the derived caches: warm every one (subtype closure, dispatch
// index), force a mid-derivation fault so the transaction
// rolls the schema back, and check the caches answer for the *restored*
// schema — the derived type's ids must not leak out of any of them.
TEST(AllOrNothingTest, RolledBackDerivationLeavesCachesConsistent) {
  for (const char* point : {"is_applicable.before", "is_applicable.mid",
                            "factor_state.mid", "factor_methods.mid"}) {
    auto fx = testing::BuildExample1();
    ASSERT_TRUE(fx.ok()) << fx.status();
    Schema& schema = fx->schema;
    auto u = schema.FindGenericFunction("u");
    ASSERT_TRUE(u.ok());

    // Warm the closure and the dispatch index.
    EXPECT_TRUE(schema.types().IsSubtype(fx->a, fx->c));
    auto before = Dispatch(schema, *u, {fx->a});
    ASSERT_TRUE(before.ok());
    size_t types_before = schema.types().NumTypes();

    ProjectionSpec spec;
    spec.source = fx->a;
    spec.attributes = {fx->a2, fx->e2, fx->h2};
    spec.view_name = "DoomedView";
    failpoint::Activate(point, 1);
    Result<DerivationResult> derived = DeriveProjection(schema, spec);
    failpoint::DeactivateAll();
    ASSERT_FALSE(derived.ok()) << "fault point " << point << " did not fire";

    // Rolled back: no surrogate types survive, and every cached structure
    // answers for the restored hierarchy.
    EXPECT_EQ(schema.types().NumTypes(), types_before) << point;
    EXPECT_FALSE(schema.types().FindType("DoomedView").ok()) << point;
    EXPECT_TRUE(schema.types().IsSubtype(fx->a, fx->c)) << point;
    EXPECT_FALSE(schema.types().IsSubtype(fx->c, fx->a)) << point;
    auto after = Dispatch(schema, *u, {fx->a});
    ASSERT_TRUE(after.ok()) << point;
    EXPECT_EQ(*after, *before) << point;
    // And a subsequent, un-faulted derivation succeeds from the restored
    // state.
    spec.view_name = "RetryView";
    auto retry = DeriveProjection(schema, spec);
    EXPECT_TRUE(retry.ok()) << point << ": " << retry.status();
  }
}

}  // namespace
}  // namespace tyder
