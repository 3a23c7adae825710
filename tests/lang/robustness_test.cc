// Robustness of the TDL front end: arbitrary inputs must produce a Status,
// never a crash, hang, or acceptance of garbage.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>

#include "lang/analyzer.h"
#include "lang/parser.h"

namespace tyder {
namespace {

TEST(RobustnessTest, RandomPrintableGarbageNeverCrashes) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> len(0, 200);
  std::uniform_int_distribution<int> ch(32, 126);
  for (int round = 0; round < 300; ++round) {
    std::string input;
    int n = len(rng);
    for (int i = 0; i < n; ++i) input += static_cast<char>(ch(rng));
    auto result = LoadTdl(input);  // must return, whatever the verdict
    (void)result;
  }
}

TEST(RobustnessTest, RandomTokenSoupNeverCrashes) {
  // Valid tokens in random order — exercises parser recovery paths rather
  // than the lexer.
  const char* kTokens[] = {"type",  "method", "view",   "{",     "}",  "(",
                           ")",     ";",      ",",      ":",     "->", "=",
                           "Ident", "42",     "3.14",   "\"s\"", "if", "else",
                           "return", "accessors", "project", "on", "as",
                           "rename", "generalize", "select", "+", "*", "<"};
  std::mt19937 rng(99);
  std::uniform_int_distribution<size_t> pick(0, std::size(kTokens) - 1);
  std::uniform_int_distribution<int> len(1, 60);
  for (int round = 0; round < 300; ++round) {
    std::string input;
    int n = len(rng);
    for (int i = 0; i < n; ++i) {
      input += kTokens[pick(rng)];
      input += ' ';
    }
    auto result = LoadTdl(input);
    (void)result;
  }
}

// Numeric literals are parsed with std::from_chars: one that does not fit its
// type is a ParseError naming the literal, never an uncaught exception that
// aborts the process.
TEST(RobustnessTest, OutOfRangeLiteralsReportParseErrors) {
  const std::string huge_float = std::string(400, '9') + ".5";
  const std::string kType = "type T { x: Int; }\n";
  const std::pair<std::string, std::string> kSources[] = {
      {kType + "method m (t: T) -> Int { return 99999999999999999999; }",
       "99999999999999999999"},
      {kType + "method m (t: T) -> Int { return 9223372036854775808; }",
       "9223372036854775808"},
      {"generic g/99999999999;", "99999999999"},
      {kType + "method m (t: T) -> Float { return " + huge_float + "; }",
       huge_float},
  };
  for (const auto& [source, literal] : kSources) {
    auto loaded = LoadTdl(source);
    ASSERT_FALSE(loaded.ok()) << source;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << source;
    EXPECT_NE(loaded.status().message().find("'" + literal + "'"),
              std::string::npos)
        << loaded.status();
  }
  auto predicate = ParseTdlExpression("x < 99999999999999999999");
  ASSERT_FALSE(predicate.ok());
  EXPECT_EQ(predicate.status().code(), StatusCode::kParseError);
  // The largest literal that fits still parses.
  EXPECT_TRUE(
      LoadTdl(kType + "method m (t: T) -> Int { return 9223372036854775807; }")
          .ok());
}

TEST(RobustnessTest, PathologicalNesting) {
  // Deep parenthesization parses (recursive descent) without blowing up at
  // this depth.
  std::string deep = "method m (a: Int) -> Int { return ";
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < 200; ++i) deep += ")";
  deep += "; }";
  auto ast = ParseTdl(deep);
  EXPECT_TRUE(ast.ok()) << ast.status();
}

TEST(RobustnessTest, TruncatedInputsReportErrors) {
  const char* kPrefixes[] = {
      "type",
      "type A",
      "type A :",
      "type A : B {",
      "type A { x",
      "type A { x:",
      "method m",
      "method m (",
      "method m (a: A) {",
      "method m (a: A) { return",
      "view V",
      "view V =",
      "view V = project",
      "view V = project T on (",
      "view V = rename T (a as",
      "view V = generalize A,",
      "generic f/",
      "\"unterminated",
      "/* unterminated",
  };
  for (const char* prefix : kPrefixes) {
    auto result = LoadTdl(prefix);
    EXPECT_FALSE(result.ok()) << "accepted: " << prefix;
  }
}

TEST(RobustnessTest, ExcessiveExpressionNestingReportsError) {
  // ~100k levels of parenthesization: a naive recursive-descent parser blows
  // the stack here; the depth guard must turn this into a ParseError instead.
  constexpr int kDepth = 100000;
  std::string deep = "method m (a: Int) -> Int { return ";
  deep.reserve(deep.size() + 2 * kDepth + 16);
  for (int i = 0; i < kDepth; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < kDepth; ++i) deep += ")";
  deep += "; }";
  auto ast = ParseTdl(deep);
  ASSERT_FALSE(ast.ok());
  EXPECT_NE(ast.status().message().find("maximum depth"), std::string::npos)
      << ast.status();
}

TEST(RobustnessTest, ExcessiveStatementNestingReportsError) {
  constexpr int kDepth = 100000;
  std::string body;
  body.reserve(14 * kDepth + 32);
  for (int i = 0; i < kDepth; ++i) body += "if (true) { ";
  body += "return 1;";
  for (int i = 0; i < kDepth; ++i) body += " }";
  std::string src = "method m (a: Int) -> Int { " + body + " return 0; }";
  auto ast = ParseTdl(src);
  ASSERT_FALSE(ast.ok());
  EXPECT_NE(ast.status().message().find("maximum depth"), std::string::npos)
      << ast.status();
}

TEST(RobustnessTest, UnclosedDeepNestingReportsErrorWithoutCrash) {
  // Open brackets with no closers: the depth guard fires and recovery must
  // still terminate at end-of-input instead of looping or crashing.
  std::string open = "method m (a: Int) -> Int { return ";
  for (int i = 0; i < 100000; ++i) open += "(";
  EXPECT_FALSE(ParseTdl(open).ok());
  std::string mixed = "method m (a: Int) -> Int { ";
  for (int i = 0; i < 50000; ++i) mixed += "if (true) { (";
  EXPECT_FALSE(ParseTdl(mixed).ok());
}

TEST(RobustnessTest, NestingJustUnderTheCapStillParses) {
  // The guard must not reject deep-but-legal inputs (cap is 1000).
  std::string deep = "method m (a: Int) -> Int { return ";
  for (int i = 0; i < 900; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < 900; ++i) deep += ")";
  deep += "; }";
  auto ast = ParseTdl(deep);
  EXPECT_TRUE(ast.ok()) << ast.status();
}

TEST(RobustnessTest, DeeplyNestedIfChainsParse) {
  std::string body;
  for (int i = 0; i < 100; ++i) body += "if (true) { ";
  body += "return 1;";
  for (int i = 0; i < 100; ++i) body += " }";
  std::string src = "method m (a: Int) -> Int { " + body + " return 0; }";
  auto ast = ParseTdl(src);
  EXPECT_TRUE(ast.ok()) << ast.status();
}

}  // namespace
}  // namespace tyder
