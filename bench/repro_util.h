// Helpers shared by the figure-reproduction binaries: print a labeled block,
// compare expected vs measured, keep a process-wide pass/fail verdict, and
// emit the machine-readable one-line JSON report on the BENCHJSON channel
// (the tyder-bench-v1 format scripts/bench_compare.py reads). The
// google-benchmark binaries get the same JSON line from bench_main.cc.

#ifndef TYDER_BENCH_REPRO_UTIL_H_
#define TYDER_BENCH_REPRO_UTIL_H_

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"

namespace tyder::bench {

// One line, prefix-tagged so scripts can grep it out of human output:
//   BENCHJSON: {"bench":"<name>","results":[...],...extra}
// `results` entries come pre-rendered as JSON objects; `extra` is rendered
// as additional top-level key/value pairs.
inline void EmitBenchJsonLine(
    const std::string& bench_name, const std::vector<std::string>& results,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  std::ostringstream out;
  out << "BENCHJSON: {\"bench\":\"" << obs::JsonEscape(bench_name) << "\"";
  for (const auto& [key, value] : extra) {
    out << ",\"" << obs::JsonEscape(key) << "\":" << value;
  }
  out << ",\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out << ",";
    out << results[i];
  }
  out << "]}";
  std::cout << out.str() << "\n";
}

class ReproCheck {
 public:
  explicit ReproCheck(std::string title)
      : title_(std::move(title)), start_(std::chrono::steady_clock::now()) {
    std::cout << "==== " << title_ << " ====\n";
  }

  void Block(const std::string& label, const std::string& content) {
    std::cout << "--- " << label << " ---\n" << content;
    if (content.empty() || content.back() != '\n') std::cout << "\n";
  }

  // Prints measured content and compares against the paper's expectation.
  void Expect(const std::string& label, const std::string& expected,
              const std::string& measured) {
    Block(label + " (measured)", measured);
    ++checks_;
    if (expected == measured) {
      std::cout << "[OK] " << label << " matches the paper\n";
    } else {
      Block(label + " (paper)", expected);
      std::cout << "[MISMATCH] " << label << "\n";
      failed_ = true;
    }
  }

  void ExpectTrue(const std::string& label, bool ok) {
    std::cout << (ok ? "[OK] " : "[MISMATCH] ") << label << "\n";
    ++checks_;
    if (!ok) failed_ = true;
  }

  // Records a named measurement for the JSON report.
  void Metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  // 0 on success, 1 on any mismatch. Also emits the BENCHJSON line.
  int ExitCode() const {
    double elapsed_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start_)
            .count();
    std::vector<std::string> results;
    for (const auto& [name, value] : metrics_) {
      std::ostringstream r;
      r << "{\"name\":\"" << obs::JsonEscape(name) << "\",\"value\":" << value
        << "}";
      results.push_back(r.str());
    }
    std::ostringstream elapsed;
    elapsed << elapsed_ms;
    EmitBenchJsonLine(title_, results,
                      {{"passed", failed_ ? "false" : "true"},
                       {"checks", std::to_string(checks_)},
                       {"elapsed_ms", elapsed.str()}});
    return failed_ ? 1 : 0;
  }

 private:
  std::string title_;
  std::chrono::steady_clock::time_point start_;
  int checks_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  bool failed_ = false;
};

}  // namespace tyder::bench

#endif  // TYDER_BENCH_REPRO_UTIL_H_
