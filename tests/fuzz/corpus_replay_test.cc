// Replays the checked-in regression corpus (tests/fuzz/corpus/*.trace)
// through the fuzzer. Every corpus trace must parse and run clean; the
// corpus must stay big enough to be worth having. The four scenario traces
// (seq-0NN-scenario-*.trace) are whole scenario packs lowered onto fuzz
// ops; each ends on the catalog its `crc` line records.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"

#ifndef TYDER_FUZZ_CORPUS_DIR
#error "TYDER_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace tyder::fuzz {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TYDER_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string Slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(FuzzCorpusTest, CorpusIsLargeEnough) {
  EXPECT_GE(CorpusFiles().size(), 25u);
}

TEST(FuzzCorpusTest, CorpusCoversCrashRecoveryAndShrunkTraces) {
  bool has_crash_op = false;
  bool has_envfault_op = false;
  bool has_generalize_op = false;
  bool has_shrunk = false;
  for (const auto& path : CorpusFiles()) {
    std::string text = Slurp(path);
    Result<FuzzTrace> trace = ParseTrace(text);
    ASSERT_TRUE(trace.ok()) << path << ": " << trace.status().ToString();
    for (const FuzzOp& op : trace->ops) {
      if (op.kind == OpKind::kCrash) has_crash_op = true;
      if (op.kind == OpKind::kEnvFault) has_envfault_op = true;
      if (op.kind == OpKind::kGeneralize) has_generalize_op = true;
    }
    if (text.find("shrink") != std::string::npos) has_shrunk = true;
  }
  EXPECT_TRUE(has_crash_op)
      << "corpus needs at least one crash-recovery trace";
  EXPECT_TRUE(has_envfault_op) << "corpus needs at least one envfault op";
  EXPECT_TRUE(has_generalize_op) << "corpus needs at least one generalize op";
  EXPECT_TRUE(has_shrunk)
      << "corpus needs at least one shrink-produced trace";
}

// Each scenario pack is checked in whole, with its crc line: a lost op or a
// lost crc line would quietly weaken the gate.
TEST(FuzzCorpusTest, ScenarioTracesAreWholeAndCarryACrc) {
  struct Expected {
    const char* file;
    size_t ops, generalize, crash, envfault;
  };
  const Expected kScenarios[] = {
      {"seq-027-scenario-evolution-storm.trace", 400, 17, 0, 0},
      {"seq-028-scenario-durability-churn.trace", 300, 0, 38, 26},
      {"seq-029-scenario-dispatch-skew.trace", 800, 0, 0, 0},
      {"seq-030-scenario-mixed-populations.trace", 480, 38, 0, 0},
  };
  for (const Expected& want : kScenarios) {
    SCOPED_TRACE(want.file);
    Result<FuzzTrace> trace = ParseTrace(
        Slurp(std::filesystem::path(TYDER_FUZZ_CORPUS_DIR) / want.file));
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_TRUE(trace->crc.has_value());
    EXPECT_EQ(trace->ops.size(), want.ops);
    auto count = [&](OpKind kind) {
      return static_cast<size_t>(
          std::count_if(trace->ops.begin(), trace->ops.end(),
                        [&](const FuzzOp& op) { return op.kind == kind; }));
    };
    EXPECT_EQ(count(OpKind::kGeneralize), want.generalize);
    EXPECT_EQ(count(OpKind::kCrash), want.crash);
    EXPECT_EQ(count(OpKind::kEnvFault), want.envfault);
  }
}

TEST(FuzzCorpusTest, ScenarioTraceEndingOffItsCrcFails) {
  Result<FuzzTrace> trace =
      ParseTrace(Slurp(std::filesystem::path(TYDER_FUZZ_CORPUS_DIR) /
                       "seq-030-scenario-mixed-populations.trace"));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_TRUE(trace->crc.has_value());
  uint32_t recorded = *trace->crc;
  trace->crc = recorded + 1;
  RunResult run = RunTrace(*trace);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.ops_executed, trace->ops.size());
  EXPECT_EQ(run.final_crc, recorded);
  const std::string& message = run.status.message();
  EXPECT_NE(message.find(std::to_string(recorded)), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(recorded + 1)), std::string::npos)
      << message;
}

TEST(FuzzCorpusTest, EveryTraceReplaysClean) {
  auto files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    Result<FuzzTrace> trace = ParseTrace(Slurp(path));
    ASSERT_TRUE(trace.ok()) << path << ": " << trace.status().ToString();
    RunResult run = RunTrace(*trace);
    EXPECT_TRUE(run.status.ok())
        << path << " failed at op " << run.failing_step << ": "
        << run.status.ToString();
  }
}

}  // namespace
}  // namespace tyder::fuzz
