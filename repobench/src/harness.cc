#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.h"

namespace repobench {

namespace {
// Spans kept for the trace file; beyond this only the stats accumulate.
constexpr size_t kMaxKeptSpans = 50'000;
}  // namespace

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
}

double Samples::Percentile(double q) const {
  if (ns_.empty()) return 0;
  Sort();
  size_t rank = static_cast<size_t>(std::ceil(q * ns_.size()));
  rank = std::clamp<size_t>(rank, 1, ns_.size());
  return static_cast<double>(ns_[rank - 1]);
}

size_t Samples::BeyondCount(double q) const {
  size_t rank = static_cast<size_t>(std::ceil(q * ns_.size()));
  return ns_.size() - std::min(rank, ns_.size());
}

void Windowed::Add(size_t window, int64_t ns) {
  if (windows_.size() <= window) windows_.resize(window + 1);
  windows_[window].Add(ns);
}

double Windowed::Percentile(double q, const HostSpeed* speed) const {
  std::vector<double> all;
  for (size_t w = 0; w < windows_.size(); ++w) {
    double factor = speed != nullptr ? speed->TimeFactor(w) : 1.0;
    for (int64_t ns : windows_[w].values()) all.push_back(ns * factor);
  }
  if (all.empty()) return 0;
  std::sort(all.begin(), all.end());
  size_t rank = static_cast<size_t>(std::ceil(q * all.size()));
  return all[std::clamp<size_t>(rank, 1, all.size()) - 1];
}

void HostSpeed::Sample(size_t window) {
  if (sum_ns_.size() <= window) {
    sum_ns_.resize(window + 1);
    count_.resize(window + 1);
  }
  sum_ns_[window] += static_cast<double>(CalibrationNs());
  ++count_[window];
}

double HostSpeed::TimeFactor(size_t window) const {
  if (window >= count_.size() || count_[window] == 0) return 1.0;
  return kReferenceCalibrationNs / (sum_ns_[window] / count_[window]);
}

double HostSpeed::MeanFactor() const {
  double sum = 0;
  int count = 0;
  for (size_t w = 0; w < count_.size(); ++w) {
    sum += sum_ns_[w];
    count += count_[w];
  }
  return count == 0 ? 1.0 : kReferenceCalibrationNs / (sum / count);
}

Samples Windowed::Pooled() const {
  Samples all;
  for (const Samples& w : windows_) all.Merge(w);
  return all;
}

void Windowed::Merge(const Windowed& other) {
  if (windows_.size() < other.windows_.size())
    windows_.resize(other.windows_.size());
  for (size_t w = 0; w < other.windows_.size(); ++w)
    windows_[w].Merge(other.windows_[w]);
}

size_t Windowed::size() const {
  size_t n = 0;
  for (const Samples& w : windows_) n += w.size();
  return n;
}

void Report::NoteLatency(const std::string& name, const Samples& s,
                         double tail_q, double scale, const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof line,
                "%-22s p50 %.4f %s, p%g %.4f %s (%zu samples, %zu beyond the "
                "tail%s)",
                name.c_str(), s.P50() / scale, unit.c_str(), tail_q * 100,
                s.Percentile(tail_q) / scale, unit.c_str(), s.size(),
                s.BeyondCount(tail_q),
                s.BeyondCount(tail_q) < 10 ? "; FEWER THAN 10" : "");
  Note(line);
}

int64_t CalibrationNs() {
  // Fixed work independent of the engine, about 1 ms on a quiet host: a
  // pointer chase over 256 KiB, hash-map inserts and finds, and a sort.
  static std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(1 << 16);
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    uint64_t x = 88172645463325252ull;
    for (size_t i = order.size() - 1; i > 0; --i) {
      x ^= x << 13; x ^= x >> 7; x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<uint32_t> chain(order.size());
    for (size_t i = 0; i < order.size(); ++i)
      chain[order[i]] = order[(i + 1) % order.size()];
    return chain;
  }();
  Clock::time_point start = Clock::now();
  uint32_t at = 0;
  for (int i = 0; i < 100000; ++i) at = next[at];
  std::unordered_map<uint64_t, uint64_t> map;
  uint64_t sum = at;
  for (uint64_t i = 0; i < 10000; ++i) map[i * 2654435761u] = i;
  for (uint64_t i = 0; i < 20000; ++i) {
    auto it = map.find(i * 2654435761u);
    if (it != map.end()) sum += it->second;
  }
  std::vector<uint64_t> v(10000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = (i * 2654435761u) ^ sum;
  std::sort(v.begin(), v.end());
  volatile uint64_t sink = v[v.size() / 2];
  (void)sink;
  return NsSince(start);
}

int64_t CalibrationMedianNs() {
  std::vector<double> runs;
  for (int i = 0; i < 7; ++i) runs.push_back(static_cast<double>(CalibrationNs()));
  return static_cast<int64_t>(Median(std::move(runs)));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void RegistryDelta::Begin() {
  auto& registry = tyder::obs::MetricsRegistry::Global();
  before_.clear();
  for (auto& [name, value] : registry.CounterSnapshot()) before_[name] = value;
  for (auto& [name, snap] : registry.HistogramSnapshot()) {
    (void)snap;
    registry.GetHistogram(name)->Reset();
  }
}

void RegistryDelta::End() {
  auto& registry = tyder::obs::MetricsRegistry::Global();
  after_.clear();
  for (auto& [name, value] : registry.CounterSnapshot()) after_[name] = value;
  hists_.clear();
  for (auto& [name, snap] : registry.HistogramSnapshot()) hists_[name] = snap;
}

double RegistryDelta::Counter(std::string_view name) const {
  auto a = after_.find(name);
  if (a == after_.end()) return 0;
  auto b = before_.find(name);
  uint64_t base = b == before_.end() ? 0 : b->second;
  return static_cast<double>(a->second - base);
}

tyder::obs::Histogram::Snapshot RegistryDelta::Hist(
    std::string_view name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? tyder::obs::Histogram::Snapshot{} : it->second;
}

void SpanLog::Absorb(const tyder::obs::Tracer& tracer, int64_t op_start_ns) {
  using Kind = tyder::obs::TraceEvent::Kind;
  struct Open {
    const std::string* name;
    int64_t child_ns;
  };
  std::vector<Open> open;
  ++ops_;
  for (const tyder::obs::TraceEvent& event : tracer.events()) {
    if (event.kind == Kind::kBegin) {
      open.push_back({&event.name, 0});
    } else if (event.kind == Kind::kEnd && !open.empty()) {
      Open span = open.back();
      open.pop_back();
      SpanStats& stats = stats_[*span.name];
      stats.total_ns += event.dur_ns;
      stats.self_ns += std::max<int64_t>(0, event.dur_ns - span.child_ns);
      ++stats.count;
      if (!open.empty()) open.back().child_ns += event.dur_ns;
      if (kept_.size() < kMaxKeptSpans) {
        kept_.push_back({*span.name, op_start_ns + event.ts_ns - event.dur_ns,
                         event.dur_ns, ops_, static_cast<int>(open.size())});
      }
    }
  }
}

const SpanStats& SpanLog::Get(std::string_view name) const {
  static const SpanStats kNone;
  auto it = stats_.find(name);
  return it == stats_.end() ? kNone : it->second;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"depth\":%d}}%s\n",
                  s.name.c_str(), s.start_ns / 1e3, s.dur_ns / 1e3,
                  static_cast<unsigned long long>(s.op), s.depth,
                  i + 1 < kept_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

TracedOp::TracedOp(SpanLog* log) : log_(log) {
  if (log_ == nullptr) return;
  start_ns_ = NsSince(log_->epoch());
  tracer_ = std::make_unique<tyder::obs::Tracer>();
  scope_.emplace(tracer_.get());
}

TracedOp::~TracedOp() {
  if (log_ == nullptr) return;
  scope_.reset();
  log_->Absorb(*tracer_, start_ns_);
}

}  // namespace repobench
