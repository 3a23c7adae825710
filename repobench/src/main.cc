// repobench: the repository benchmark. One process runs one workload for a
// fixed time and prints, as its last stdout line, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (measured untraced);
// with --trace 1 they are the per-layer set, taken from a traced half-run
// and compared against an untraced half-run for obs.trace_overhead. Every
// metric is printed on every workload; a per-layer metric a workload does
// not exercise reads 0. Exit status is non-zero when an output check fails.
//
//   repobench --workload evolve|extent|serve --seed N --seconds S
//             --trace 0|1 [--smoke] [--inject-wrong-reference]
//             [--trace-out FILE] [--scratch-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "harness.h"

namespace repobench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Role metrics shared by all workloads; README.md maps each role to the
// workload's own operation (e.g. primary = derivation / scan / read RTT).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_peak_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"primary_p50_us", "us"},
    {"primary_tail_us", "us"},
    {"secondary_p50_us", "us"},
    {"secondary_tail_us", "us"},
    {"tertiary_p50_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"error_frac", "frac"},
    {"catalog.define_p50_ns", "ns"},
    {"catalog.define_tail_ns", "ns"},
    {"catalog.drop_p50_ns", "ns"},
    {"catalog.collapse_p50_ns", "ns"},
    {"catalog.refused_frac", "frac"},
    {"catalog.refused_internal", "count"},
    {"catalog.refused_other", "count"},
    {"catalog.selection_mutation_p50_ns", "ns"},
    {"core.derive_self_ns", "ns"},
    {"core.is_applicable_self_ns", "ns"},
    {"core.factor_state_self_ns", "ns"},
    {"core.augment_self_ns", "ns"},
    {"core.factor_methods_self_ns", "ns"},
    {"core.verify_self_ns", "ns"},
    {"core.verify_share", "frac"},
    {"core.rollback_ns", "ns"},
    {"core.verify_probes_per_derive", "count"},
    {"core.method_checks_per_derive", "count"},
    {"core.epoch_retained", "count"},
    {"mir.dataflow_analyses_per_derive", "count"},
    {"mir.callgraph_hit_ratio", "frac"},
    {"objmodel.types_live", "count"},
    {"objmodel.closure_invalidations_per_op", "count"},
    {"objmodel.is_subtype_p50_ns", "ns"},
    {"objmodel.is_subtype_tail_ns", "ns"},
    {"objmodel.closure_hit_ratio", "frac"},
    {"methods.dispatch_p50_ns", "ns"},
    {"methods.dispatch_tail_ns", "ns"},
    {"methods.pic_hit_ratio", "frac"},
    {"methods.table_builds", "count"},
    {"lang.predicate_compile_p50_ns", "ns"},
    {"query.execute_p50_ns", "ns"},
    {"query.execute_tail_ns", "ns"},
    {"query.ns_per_object", "ns"},
    {"query.selectivity", "frac"},
    {"instances.set_slot_p50_ns", "ns"},
    {"instances.create_p50_ns", "ns"},
    {"instances.refresh_view_p50_ns", "ns"},
    {"instances.extent_bytes", "bytes"},
    {"storage.records_per_sync", "count"},
    {"storage.batch_size_p50", "count"},
    {"storage.stall_p50_ns", "ns"},
    {"storage.stall_tail_ns", "ns"},
    {"storage.wal_bytes_per_commit", "bytes"},
    {"net.server_request_p50_ns", "ns"},
    {"net.server_request_tail_ns", "ns"},
    {"net.transport_p50_ns", "ns"},
    {"net.queue_depth_p50", "count"},
    {"net.queue_depth_max", "count"},
    {"net.shed", "count"},
    {"net.deadline_misses", "count"},
    {"obs.trace_overhead", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload evolve|extent|serve"
               " --seed N --seconds S --trace 0|1 [--smoke]"
               " [--inject-wrong-reference] [--trace-out FILE]"
               " [--scratch-dir DIR]\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = static_cast<uint32_t>(std::stoul(value()));
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else if (arg == "--scratch-dir") {
        options.scratch_dir = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--inject-wrong-reference") {
        options.inject_wrong_reference = true;
      } else {
        Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      Usage(("malformed value for " + arg).c_str());
    }
  }
  if (options.seconds <= 0 || options.seconds > 120)
    Usage("--seconds must be in (0, 120]");
  return options;
}

// Emits exactly the metrics of `specs`, in order, taking values from
// `measured` (0 where the workload does not exercise a metric). Returns
// false if the workload reported a name outside `specs` or a unit that
// disagrees — a benchmark bug, not an engine one.
bool EmitMetrics(const MetricSpec* specs, size_t n,
                 const std::vector<Metric>& measured, std::string* json) {
  std::set<std::string> known;
  bool ok = true;
  for (size_t i = 0; i < n; ++i) known.insert(specs[i].name);
  for (const Metric& m : measured) {
    if (!known.count(m.name)) {
      std::fprintf(stderr, "repobench: unlisted metric %s\n", m.name.c_str());
      ok = false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    double value = 0;
    for (const Metric& m : measured) {
      if (m.name != specs[i].name) continue;
      if (m.unit != specs[i].unit) {
        std::fprintf(stderr, "repobench: unit mismatch on %s\n", specs[i].name);
        ok = false;
      }
      value = m.value;
    }
    char item[256];
    std::snprintf(item, sizeof item, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    *json += item;
  }
  return ok;
}

int Main(int argc, char** argv) {
  RunOptions options = ParseArgs(argc, argv);
  Report report;
  if (options.workload == "evolve") {
    report = RunEvolve(options);
  } else if (options.workload == "extent") {
    report = RunExtent(options);
  } else if (options.workload == "serve") {
    report = RunServe(options);
  } else {
    Usage("unknown --workload");
  }
  for (const std::string& line : report.notes)
    std::printf("# %s\n", line.c_str());
  if (!report.correct) {
    std::fprintf(stderr, "repobench: OUTPUT CHECK FAILED: %s\n",
                 report.mismatch.c_str());
  }
  std::string metrics;
  bool listed =
      options.trace
          ? EmitMetrics(kPerLayer, std::size(kPerLayer), report.per_layer,
                        &metrics)
          : EmitMetrics(kEndToEnd, std::size(kEndToEnd), report.end_to_end,
                        &metrics);
  if (!listed) return 3;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) { return repobench::Main(argc, argv); }
