// Shared main for the google-benchmark binaries: runs the normal console
// reporter and additionally emits the one-line JSON report on the BENCHJSON
// channel (as ReproCheck does), which the `obs` mode of scripts/run_all.sh
// feeds to bench_compare.py.

#include <benchmark/benchmark.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "repro_util.h"

namespace tyder::bench {
namespace {

double TimeUnitToNs(benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kSecond:
      return 1e9;
    case benchmark::kMillisecond:
      return 1e6;
    case benchmark::kMicrosecond:
      return 1e3;
    case benchmark::kNanosecond:
      return 1.0;
  }
  return 1.0;
}

class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::ostringstream r;
      r << "{\"name\":\"" << obs::JsonEscape(run.benchmark_name())
        << "\",\"real_time_ns\":"
        << run.GetAdjustedRealTime() * TimeUnitToNs(run.time_unit)
        << ",\"cpu_time_ns\":"
        << run.GetAdjustedCPUTime() * TimeUnitToNs(run.time_unit)
        << ",\"iterations\":" << run.iterations;
      for (const auto& [name, counter] : run.counters) {
        r << ",\"" << obs::JsonEscape(name) << "\":" << counter.value;
      }
      r << "}";
      results_.push_back(r.str());
    }
    ConsoleReporter::ReportRuns(report);
  }

  const std::vector<std::string>& results() const { return results_; }

 private:
  std::vector<std::string> results_;
};

}  // namespace
}  // namespace tyder::bench

int main(int argc, char** argv) {
  std::string bench_name = argv[0];
  size_t slash = bench_name.find_last_of('/');
  if (slash != std::string::npos) bench_name = bench_name.substr(slash + 1);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tyder::bench::JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  tyder::bench::EmitBenchJsonLine(bench_name, reporter.results());
  benchmark::Shutdown();
  return 0;
}
