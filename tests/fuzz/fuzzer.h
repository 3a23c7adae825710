// Operation-sequence fuzzer for the optimized engine (ISSUE 5 tentpole).
//
// A *trace* is a seeded random schema recipe plus a list of operations —
// DeriveProjection / DefineGeneralizationView / Collapse / DropView (revert)
// / differential query / schema mutations / snapshot Save & Load /
// fault-injected crash-recover and env-I/O-fault round trips, optionally
// followed by a power loss. RunTrace drives the trace against a real
// Catalog and, in lockstep, a deliberately-naive in-memory model that
// tracks nothing but type names, direct-supertype names, local attribute
// names, and each view's projected attribute set. After every step it
// asserts:
//
//   engine == oracle   exhaustive IsSubtype and cumulative-state sweeps
//                      against oracle/reference.h (plus the full dispatch
//                      differential on query steps), and
//   model  == catalog  the catalog's view registry and every tracked type's
//                      cumulative attribute-name set match the model's
//                      from-first-principles recomputation, and
//   all-or-nothing     any refused operation leaves the catalog serializing
//                      byte-identically to its pre-call snapshot.
//
// A trace may also record the CRC32C of the catalog it must end on (the
// `crc` line), which makes a replay deterministic down to the byte: the
// scenario traces in the corpus carry one.
//
// Operations carry raw integer payloads that are interpreted modulo the
// *current* candidate lists at execution time, so a trace stays meaningful
// (and deterministic) when the shrinker deletes earlier operations.
// ShrinkTrace is a ddmin-style minimizer: it repeatedly deletes chunks of
// operations while the trace keeps failing. RunCampaign generates and runs
// traces from consecutive seeds until a time/sequence budget runs out,
// recording fuzz.sequences / fuzz.ops metrics in the obs registry.

#ifndef TYDER_TESTS_FUZZ_FUZZER_H_
#define TYDER_TESTS_FUZZ_FUZZER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "testing/random_schema.h"

namespace tyder::fuzz {

enum class OpKind {
  kDerive,    // define a projection view over a tracked type
  kCollapse,  // Catalog::Collapse (empty-surrogate reduction)
  kDrop,      // DropView — revert (projection) path
  kQuery,     // full dispatch differential sweep (engine == oracle)
  kNewType,   // declare a type subtyping 1–2 tracked types
  kNewAttr,   // declare an attribute on a base type
  kNewEdge,   // AddSupertype between tracked types (cycle prediction too)
  kSave,      // snapshot the catalog + model to the trace-local buffer
  kLoad,      // restore catalog + model from the buffer (no-op before save)
  kCrash,     // failpoint-interrupted mutation on an ephemeral DurableCatalog
              // in a temp dir, optionally followed by a simulated power loss;
              // recovery must land byte-identical to pre or post, with an
              // acknowledged op surviving the power loss
  kEnvFault,  // FaultyEnv-injected I/O error (EIO / ENOSPC / short write /
              // fsync failure) on an ephemeral DurableCatalog, optionally
              // followed by a simulated power loss; the instance must be
              // consistent or provably read-only (degraded), and recovery
              // must land byte-identical to pre or post
  kConCommit, // K threads commit concurrently through the group-committed
              // WAL on an ephemeral DurableCatalog (optionally with an
              // injected I/O fault mid-batch and a power loss); an
              // acknowledged commit is always durable, an unacknowledged
              // one is never visible, and recovery lands on a subset of
              // the attempted batch that contains every acknowledged op
  kGeneralize,  // define a generalization view over two tracked types: the
                // projection of the first onto the attributes both carry
};

struct FuzzOp {
  OpKind kind = OpKind::kQuery;
  // Raw payloads, resolved modulo candidate-list sizes at execution time.
  uint32_t a = 0, b = 0, c = 0;
};

// The random-schema recipe embedded in every trace, so a corpus file replays
// without out-of-band configuration.
struct SchemaParams {
  uint32_t seed = 1;
  int types = 7;
  int supers = 2;
  int attrs = 2;
  int gfs = 4;
  int methods_per_gf = 2;
  int stmts = 3;
  bool mutators = true;

  testing::RandomSchemaOptions ToOptions() const;
};

struct FuzzTrace {
  SchemaParams schema;
  std::vector<FuzzOp> ops;
  // CRC32C of the serialized catalog after the last op. When set, RunTrace
  // fails unless the replay ends on exactly that catalog.
  std::optional<uint32_t> crc;
};

// Text form (tyder-fuzz-trace v1): one line per op, '#' comments, `end`
// terminator, plus an optional `crc <u32>` line between the header and the
// schema line. FormatTrace ∘ ParseTrace is the identity on valid traces.
std::string FormatTrace(const FuzzTrace& trace);
Result<FuzzTrace> ParseTrace(std::string_view text);

struct FuzzProfile {
  SchemaParams schema;  // per-trace seed is drawn on top of this recipe
  int min_ops = 5;
  int max_ops = 12;
  // Crash ops hit the filesystem (Seed + WAL fsyncs); profiles that need
  // maximum sequence throughput (the known-bad hunt) turn them off.
  bool with_crash_ops = true;
};

// Deterministic: same (seed, profile) → same trace.
FuzzTrace GenerateTrace(uint64_t seed, const FuzzProfile& profile = {});

struct RunResult {
  Status status;            // OK, or the first divergence/violation
  size_t failing_step = 0;  // op index the failure surfaced at (== ops run)
  size_t ops_executed = 0;
  uint32_t final_crc = 0;   // the catalog's CRC32C after a clean last op
};

RunResult RunTrace(const FuzzTrace& trace);

// ddmin-style minimizer: repeatedly deletes op chunks while RunTrace keeps
// failing; at most `max_runs` re-executions. A shorter trace ends on another
// catalog, so the shrunk trace carries no `crc` line. Returns `trace`
// unchanged if it does not fail without its `crc` line.
FuzzTrace ShrinkTrace(const FuzzTrace& trace, int max_runs = 400);

struct CampaignOptions {
  uint64_t base_seed = 1;
  double budget_seconds = 30.0;
  uint64_t max_sequences = 0;  // 0: the time budget alone governs
  FuzzProfile profile;
  bool shrink_on_failure = true;
};

struct CampaignResult {
  uint64_t sequences = 0;
  uint64_t ops = 0;
  double elapsed_seconds = 0.0;
  bool failed = false;
  uint64_t failing_seed = 0;
  FuzzTrace failing_trace;  // meaningful when failed
  FuzzTrace shrunk_trace;   // == failing_trace unless shrink_on_failure
  Status failure;
};

// Runs GenerateTrace(base_seed + i) → RunTrace until the budget is spent or
// a trace fails (which stops the campaign and, by default, shrinks it).
CampaignResult RunCampaign(const CampaignOptions& options);

}  // namespace tyder::fuzz

#endif  // TYDER_TESTS_FUZZ_FUZZER_H_
