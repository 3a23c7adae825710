// Fuzz-harness mechanics: trace text round trip, deterministic generation
// and replay, and a short clean campaign (the full-budget run lives behind
// `scripts/run_all.sh fuzz`).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "obs/metrics.h"

namespace tyder::fuzz {
namespace {

TEST(FuzzTraceTest, FormatParseRoundTrip) {
  std::vector<FuzzTrace> traces;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    traces.push_back(GenerateTrace(seed));
  }
  // A scenario-style trace: a crc line and a generalize op.
  FuzzTrace scenario = GenerateTrace(21);
  scenario.crc = 4294967295u;
  scenario.ops.push_back({OpKind::kGeneralize, 1, 2, 3});
  traces.push_back(scenario);
  for (const FuzzTrace& trace : traces) {
    std::string text = FormatTrace(trace);
    Result<FuzzTrace> parsed = ParseTrace(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(FormatTrace(*parsed), text);
  }
  std::string text = FormatTrace(scenario);
  EXPECT_NE(text.find("\ncrc 4294967295\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ngeneralize 1 2 3\n"), std::string::npos) << text;
  Result<FuzzTrace> parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->crc, scenario.crc);
  EXPECT_EQ(parsed->ops.back().kind, OpKind::kGeneralize);
}

TEST(FuzzTraceTest, ParseSkipsCommentsAndBlankLines) {
  const char* text =
      "# a corpus file may carry provenance comments\n"
      "tyder-fuzz-trace v1\n"
      "\n"
      "schema seed=42 types=5 gfs=2\n"
      "# ops follow\n"
      "derive 1 2 3\n"
      "query 4\n"
      "end\n";
  Result<FuzzTrace> parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema.seed, 42u);
  EXPECT_EQ(parsed->schema.types, 5);
  EXPECT_EQ(parsed->schema.gfs, 2);
  // Unmentioned fields keep their defaults.
  EXPECT_EQ(parsed->schema.methods_per_gf, SchemaParams{}.methods_per_gf);
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].kind, OpKind::kDerive);
  EXPECT_EQ(parsed->ops[0].a, 1u);
  // Missing payloads parse as zero.
  EXPECT_EQ(parsed->ops[1].kind, OpKind::kQuery);
  EXPECT_EQ(parsed->ops[1].b, 0u);
}

TEST(FuzzTraceTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTrace("not a trace\n").ok());
  EXPECT_FALSE(ParseTrace("tyder-fuzz-trace v1\nschema seed=1\n").ok());
  EXPECT_FALSE(
      ParseTrace("tyder-fuzz-trace v1\nschema seed=1\nfrobnicate 1\nend\n")
          .ok());
  EXPECT_FALSE(
      ParseTrace("tyder-fuzz-trace v1\nschema bogus=1\nend\n").ok());
  EXPECT_FALSE(
      ParseTrace("tyder-fuzz-trace v1\ncrc abc\nschema seed=1\nend\n").ok());
  EXPECT_FALSE(
      ParseTrace("tyder-fuzz-trace v1\ncrc 4294967296\nschema seed=1\nend\n")
          .ok());
}

TEST(FuzzTraceTest, GenerationIsDeterministic) {
  FuzzTrace a = GenerateTrace(7);
  FuzzTrace b = GenerateTrace(7);
  EXPECT_EQ(FormatTrace(a), FormatTrace(b));
  FuzzTrace c = GenerateTrace(8);
  EXPECT_NE(FormatTrace(a), FormatTrace(c));
}

TEST(FuzzRunTest, ReplayIsDeterministic) {
  FuzzTrace trace = GenerateTrace(3);
  RunResult first = RunTrace(trace);
  RunResult second = RunTrace(trace);
  EXPECT_EQ(first.status.ok(), second.status.ok());
  EXPECT_EQ(first.ops_executed, second.ops_executed);
  EXPECT_EQ(first.failing_step, second.failing_step);
}

TEST(FuzzCampaignTest, ShortCampaignRunsClean) {
  CampaignOptions options;
  options.base_seed = 1;
  options.max_sequences = 300;
  options.budget_seconds = 120.0;  // sequence cap governs in practice
  uint64_t before =
      obs::MetricsRegistry::Global().CounterValue("fuzz.sequences");
  CampaignResult result = RunCampaign(options);
  EXPECT_FALSE(result.failed)
      << "seed " << result.failing_seed << ": " << result.failure.ToString()
      << "\n--- shrunk ---\n"
      << FormatTrace(result.shrunk_trace);
  EXPECT_EQ(result.sequences, 300u);
  EXPECT_GT(result.ops, 0u);
  // Throughput metrics landed in the obs registry.
  uint64_t after =
      obs::MetricsRegistry::Global().CounterValue("fuzz.sequences");
  EXPECT_EQ(after - before, 300u);
  EXPECT_GE(obs::MetricsRegistry::Global().CounterValue("fuzz.ops"),
            result.ops);
}

TEST(FuzzShrinkTest, PassingTraceIsReturnedUnchanged) {
  FuzzTrace trace = GenerateTrace(5);
  ASSERT_TRUE(RunTrace(trace).status.ok());
  FuzzTrace shrunk = ShrinkTrace(trace, /*max_runs=*/10);
  EXPECT_EQ(FormatTrace(shrunk), FormatTrace(trace));
}

}  // namespace
}  // namespace tyder::fuzz
