// Shared plumbing for the repository benchmark: run options, latency
// samples with fixed-percentile tails, the per-run report, metrics-registry
// deltas, and the benchmark's own spans. The workloads (evolve.cc,
// extent.cc, serve.cc) drive the engine only through its public headers.

#ifndef REPOBENCH_HARNESS_H_
#define REPOBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/tracer.h"

namespace repobench {

struct RunOptions {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test hooks: a smoke-size run, and a deliberately wrong reference
  // that the workload's output check must catch.
  bool smoke = false;
  bool inject_wrong_reference = false;
  // Where the traced run writes its spans (Chrome trace_event JSON).
  std::string trace_out;
  // Directory for files a workload creates (serve's durable catalogs).
  std::string scratch_dir = ".bench_tmp";
};

using Clock = std::chrono::steady_clock;

inline int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Latency samples in nanoseconds. Percentiles are nearest-rank over the
// sorted samples; each workload fixes the tail percentile per op and
// reports the count of samples beyond it.
class Samples {
 public:
  void Add(int64_t ns) {
    ns_.push_back(ns);
    sorted_ = false;
  }
  void Merge(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
    sorted_ = false;
  }
  size_t size() const { return ns_.size(); }
  bool empty() const { return ns_.empty(); }
  const std::vector<int64_t>& values() const { return ns_; }
  double Percentile(double q) const;
  double P50() const { return Percentile(0.5); }
  // Samples strictly above the q-th percentile position.
  size_t BeyondCount(double q) const;

 private:
  mutable std::vector<int64_t> ns_;
  mutable bool sorted_ = false;
  void Sort() const;
};

class HostSpeed;

// Samples split into consecutive windows (a round of identical work, or a
// slice of wall time), the unit at which host speed is sampled.
class Windowed {
 public:
  void Add(size_t window, int64_t ns);
  // The q-th percentile over all samples, each first scaled to the
  // reference host speed of its window when `speed` is given.
  double Percentile(double q, const HostSpeed* speed = nullptr) const;
  Samples Pooled() const;
  size_t size() const;
  void Merge(const Windowed& other);

 private:
  std::vector<Samples> windows_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Human-readable lines printed before the JSON result: the workload's
  // named metrics, sample counts behind each tail, and check outcomes.
  std::vector<std::string> notes;
  // First output-check mismatch, when !correct.
  std::string mismatch;

  void Fail(const std::string& what) {
    if (correct) mismatch = what;
    correct = false;
  }
  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  // Records a named latency with its fixed tail and the samples beyond it.
  void NoteLatency(const std::string& name, const Samples& s, double tail_q,
                   double scale, const std::string& unit);
};

// Host-speed correction for end-to-end times. The host's CPU speed drifts by
// up to 2x over tens of seconds (other tenants on the machine), far more
// than any change worth detecting, and a run cannot control it. So each
// CPU-bound workload samples a fixed calibration kernel between operations,
// outside the timed regions, and scales every window's times to a reference
// host on which the kernel takes kReferenceCalibrationNs. The kernel is
// independent of the engine, so an engine change moves the scaled figures
// as much as the raw ones. Raw figures are printed on the '#' lines.
inline constexpr double kReferenceCalibrationNs = 1e6;

// Runs the calibration kernel once; returns its wall time.
int64_t CalibrationNs();

// Median of a few kernel runs, for one-off figures such as a set-up time.
int64_t CalibrationMedianNs();

// Time multiplier for a measurement taken when the kernel took `cal_ns`.
inline double ToReference(int64_t cal_ns) {
  return cal_ns > 0 ? kReferenceCalibrationNs / static_cast<double>(cal_ns)
                    : 1.0;
}

class HostSpeed {
 public:
  // Runs the kernel once and books its time to `window`.
  void Sample(size_t window);
  // Multiplier taking a time measured during `window` to the reference
  // host (1 for a window without samples).
  double TimeFactor(size_t window) const;
  // Multiplier over all samples, for the human-readable lines.
  double MeanFactor() const;

 private:
  std::vector<double> sum_ns_;
  std::vector<int> count_;
};

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// Median of a handful of set-up timings.
double Median(std::vector<double> values);

// Counter and histogram deltas over a measured phase. Counters are
// differenced; histograms are reset at Begin(), so their snapshot at End()
// covers the phase alone.
class RegistryDelta {
 public:
  void Begin();
  void End();
  double Counter(std::string_view name) const;
  tyder::obs::Histogram::Snapshot Hist(std::string_view name) const;

 private:
  std::map<std::string, uint64_t, std::less<>> before_, after_;
  std::map<std::string, tyder::obs::Histogram::Snapshot, std::less<>> hists_;
};

// Aggregated self time per span name, from obs::Tracer event streams.
struct SpanStats {
  int64_t total_ns = 0;  // inclusive
  int64_t self_ns = 0;   // inclusive minus the time child spans cover
  uint64_t count = 0;
};

// Collects the benchmark's spans (and the library's spans nested under
// them). Each traced operation runs under its own obs::Tracer; Absorb folds
// that tracer's events into per-name self-time stats and keeps the raw spans
// (up to a cap) for Write().
class SpanLog {
 public:
  void Absorb(const tyder::obs::Tracer& tracer, int64_t op_start_ns);
  const SpanStats& Get(std::string_view name) const;
  // Writes the kept spans as Chrome trace_event JSON. Returns false on I/O
  // failure.
  bool Write(const std::string& path) const;
  Clock::time_point epoch() const { return epoch_; }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t dur_ns;
    uint64_t op;
    int depth;
  };
  std::map<std::string, SpanStats, std::less<>> stats_;
  std::vector<Span> kept_;
  uint64_t ops_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

// A traced operation: installs a fresh Tracer on this thread for its scope
// and hands the events to `log` at the end. Inert when `log` is null, so the
// untraced run pays nothing but a branch.
class TracedOp {
 public:
  explicit TracedOp(SpanLog* log);
  ~TracedOp();
  TracedOp(const TracedOp&) = delete;
  TracedOp& operator=(const TracedOp&) = delete;

 private:
  SpanLog* log_;
  int64_t start_ns_ = 0;
  std::unique_ptr<tyder::obs::Tracer> tracer_;
  std::optional<tyder::obs::ScopedTracer> scope_;
};

// The benchmark's own span around a call into one layer; constructed only
// while a tracer is installed, so untraced runs skip the flight-recorder
// mirror as well. `name` must be a literal.
class LayerSpan {
 public:
  explicit LayerSpan(std::string_view name) {
    if (tyder::obs::TracingActive()) span_.emplace(name);
  }

 private:
  std::optional<tyder::obs::ScopedSpan> span_;
};

// Ratio helper: 0 when the base is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

Report RunEvolve(const RunOptions& options);
Report RunExtent(const RunOptions& options);
Report RunServe(const RunOptions& options);

}  // namespace repobench

#endif  // REPOBENCH_HARNESS_H_
