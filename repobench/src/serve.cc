// serve: the serving path — net::Server over a storage::DurableCatalog.
//
// Closed loop, 3 connections, each a caller waiting for its reply (tyder1
// allows one outstanding request per connection). Set-up opens a durable
// catalog in a fresh directory under the run's scratch directory, seeds it
// with the payroll schema (one copy per connection, so each connection's
// projections touch only its own types), starts an in-process server and
// connects. Each connection then runs a fixed mix: ~80% reads (query
// subtype / dispatch / views) and ~20% durable mutations (select+drop and
// project+drop in its own view namespace), every mutation a WAL group
// commit.
//
// Output checks, outside the timed region: every subtype/dispatch answer
// equals oracle::RefIsSubtype/RefDispatch on the seed schema; the ack
// ledger holds (every acked define/drop is reflected in the final view
// list, which must hold exactly the one view each connection leaves
// defined); the server's `verify` (differential oracle) passes; and the
// store is not degraded at the end.

#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "harness.h"
#include "lang/analyzer.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle/reference.h"
#include "storage/durable_catalog.h"

namespace repobench {
namespace {

namespace fs = std::filesystem;
using tyder::Status;

constexpr int kConnections = 3;
// Episodes restart the store: every define/drop pair leaves a detached type
// in the graph, and projection cost grows with the square of the type count,
// so an ever-growing catalog would make the load drift within a run.
constexpr int kRequestsPerEpisode = 50;  // per connection
constexpr int kEpisodesPerWindow = 10;
constexpr uint64_t kDeadlineMs = 10'000;
constexpr double kReadTail = 0.99;
constexpr double kCommitTail = 0.99;

std::string PayrollTdl() {
  std::string tdl;
  for (int c = 0; c < kConnections; ++c) {
    std::string s = std::to_string(c);
    tdl += "type Person" + s + " { ssn" + s + ": String; name" + s +
           ": String; dob" + s + ": Int; }\n";
    tdl += "type Employee" + s + " : Person" + s + " { pay" + s +
           ": Float; hrs" + s + ": Float; }\n";
  }
  tdl += "accessors;\n";
  for (int c = 0; c < kConnections; ++c) {
    std::string s = std::to_string(c);
    tdl += "method age" + s + " (p: Person" + s + ") -> Int { return 2026 - get_dob" +
           s + "(p); }\n";
    tdl += "method income" + s + " (e: Employee" + s + ") -> Float { return get_pay" +
           s + "(e) * get_hrs" + s + "(e); }\n";
  }
  return tdl;
}

// A read request with its expected answer, computed from the seed schema
// by the reference implementations.
struct Read {
  std::vector<std::string> args;
  std::string expect;  // empty: any OK answer (views)
};

std::vector<Read> MakeReads(const tyder::Catalog& catalog) {
  const tyder::Schema& schema = catalog.schema();
  const tyder::TypeGraph& types = schema.types();
  std::vector<std::string> names;
  for (int c = 0; c < kConnections; ++c) {
    names.push_back("Person" + std::to_string(c));
    names.push_back("Employee" + std::to_string(c));
  }
  std::vector<Read> reads;
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      bool sub = tyder::oracle::RefIsSubtype(types, *types.FindType(a),
                                             *types.FindType(b));
      reads.push_back({{"subtype", a, b}, sub ? "true" : "false"});
    }
  }
  for (int c = 0; c < kConnections; ++c) {
    std::string s = std::to_string(c);
    for (const char* gf : {"age", "income"}) {
      for (const char* type : {"Person", "Employee"}) {
        std::string gf_name = gf + s, type_name = type + s;
        auto m = tyder::oracle::RefDispatch(
            schema, *schema.FindGenericFunction(gf_name),
            {*types.FindType(type_name)});
        if (!m.ok()) continue;  // income(Person) has no method
        reads.push_back({{"dispatch", gf_name, type_name},
                         schema.method(*m).label.str()});
      }
    }
  }
  return reads;
}

struct Server {
  std::string dir;
  std::unique_ptr<tyder::storage::DurableCatalog> db;
  std::unique_ptr<tyder::net::Server> server;
  std::vector<tyder::net::Client> clients;

  ~Server() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    db.reset();
    if (!dir.empty()) {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  }
};

tyder::Result<std::unique_ptr<Server>> Start(const std::string& dir,
                                             const tyder::Catalog& seed) {
  auto s = std::make_unique<Server>();
  s->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  TYDER_ASSIGN_OR_RETURN(auto db, tyder::storage::DurableCatalog::Open(dir));
  s->db = std::make_unique<tyder::storage::DurableCatalog>(std::move(db));
  TYDER_RETURN_IF_ERROR(s->db->Seed(seed));
  TYDER_ASSIGN_OR_RETURN(s->server, tyder::net::Server::Start(s->db.get()));
  for (int c = 0; c < kConnections; ++c) {
    TYDER_ASSIGN_OR_RETURN(auto client,
                           tyder::net::Client::Connect(s->server->port()));
    s->clients.push_back(std::move(client));
  }
  return s;
}

// One connection's share of an episode, merged after the threads join.
struct Conn {
  Windowed read, commit, project;
  uint64_t attempted = 0, failed = 0;
  std::string mismatch;
  std::set<std::string> live;  // ledger: acked defines minus acked drops
};

// Issues calls on one connection, timing each round trip. With `log` set,
// each call runs under its own tracer and is folded into the log under
// `log_mu`.
class Caller {
 public:
  Caller(tyder::net::Client& client, size_t window, SpanLog* log,
         std::mutex* log_mu, Conn* out)
      : client_(client), window_(window), log_(log), log_mu_(log_mu),
        out_(out) {}

  std::optional<tyder::net::Response> Call(std::vector<std::string> request,
                                           Windowed* timing) {
    ++out_->attempted;
    std::string command = std::move(request[0]);
    request.erase(request.begin());
    Clock::time_point start = Clock::now();
    tyder::Result<tyder::net::Response> response = Status::Internal("unsent");
    if (log_ == nullptr) {
      response = client_.Call(command, request, kDeadlineMs);
    } else {
      tyder::obs::Tracer tracer;
      {
        tyder::obs::ScopedTracer scope(&tracer);
        LayerSpan span("net.Client.Call");
        response = client_.Call(command, request, kDeadlineMs);
      }
      std::lock_guard<std::mutex> lock(*log_mu_);
      log_->Absorb(tracer, std::chrono::duration_cast<std::chrono::nanoseconds>(
                               start - log_->epoch())
                               .count());
    }
    int64_t ns = NsSince(start);
    if (!response.ok() || !response->ok()) {
      ++out_->failed;
      if (out_->mismatch.empty()) {
        out_->mismatch = command + " failed: " +
                         (response.ok() ? std::string(response->message())
                                        : response.status().ToString());
      }
      return std::nullopt;
    }
    if (timing != nullptr) timing->Add(window_, ns);
    return std::move(*response);
  }

 private:
  tyder::net::Client& client_;
  size_t window_;
  SpanLog* log_;
  std::mutex* log_mu_;
  Conn* out_;
};

// One connection's closed loop for one episode: kRequestsPerEpisode
// requests, ~80% reads, the rest durable define/drop pairs in this
// connection's namespace (~14% selection pairs, ~6% projection pairs with
// verify on).
void RunConnection(Caller& caller, int c, std::mt19937& rng,
                   const std::vector<Read>& reads, uint64_t* name_seq,
                   Conn* out) {
  std::string s = std::to_string(c);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<size_t> pick_read(0, reads.size() - 1);
  const Read views{{"views"}, ""};
  for (int sent = 0; sent < kRequestsPerEpisode;) {
    int draw = percent(rng);
    if (draw < 80) {
      const Read& read = draw < 8 ? views : reads[pick_read(rng)];
      std::vector<std::string> request = {"query"};
      request.insert(request.end(), read.args.begin(), read.args.end());
      auto response = caller.Call(std::move(request), &out->read);
      ++sent;
      if (response && !read.expect.empty() &&
          (response->body.empty() || response->body[0] != read.expect) &&
          out->mismatch.empty()) {
        out->mismatch = "query " + read.args[0] + " " + read.args[1] +
                        " answered differently from the oracle";
      }
      continue;
    }
    bool project = draw >= 94;
    std::string view =
        (project ? "P" : "S") + s + "_" + std::to_string((*name_seq)++);
    std::vector<std::string> define =
        project ? std::vector<std::string>{"project", view, "Employee" + s,
                                           "ssn" + s + ",pay" + s}
                : std::vector<std::string>{"select", view, "Employee" + s};
    sent += 2;
    if (!caller.Call(std::move(define), project ? &out->project : &out->commit))
      continue;
    out->live.insert(view);
    if (caller.Call({"drop", view}, &out->commit)) out->live.erase(view);
  }
}

struct Phase {
  Windowed read, commit, project;
  std::vector<double> window_requests, window_ns;
  uint64_t requests = 0, episodes = 0;
  std::vector<double> setup_s;  // one per episode
  double wal_bytes = 0, wal_records = 0;
  size_t epochs_retained = 0;  // at the end of the last episode
};

// Runs whole episodes until `seconds` of wall time have passed. Each episode
// starts a fresh store and server (timed as set-up), runs every connection's
// closed loop (timed), then checks the ledger, the server's verify and its
// health, and tears down (neither timed).
void RunEpisodes(const tyder::Catalog& seed_catalog,
                 const std::vector<Read>& reads, const std::string& dir,
                 uint32_t seed, double seconds, bool wrong_reference,
                 SpanLog* log, Phase* phase, Report* report) {
  std::vector<std::mt19937> rngs;
  for (int c = 0; c < kConnections; ++c) rngs.emplace_back(seed * 31 + c);
  std::vector<uint64_t> name_seq(kConnections, 0);
  std::mutex log_mu;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline || phase->episodes == 0) {
    Clock::time_point setup_start = Clock::now();
    auto started = Start(dir, seed_catalog);
    if (!started.ok()) {
      report->Fail("serve: set-up: " + started.status().ToString());
      return;
    }
    std::unique_ptr<Server> live = std::move(*started);
    phase->setup_s.push_back(NsSince(setup_start) / 1e9);

    size_t window = phase->episodes / kEpisodesPerWindow;
    std::vector<Conn> conns(kConnections);
    Clock::time_point begin = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          Caller caller(live->clients[c], window, log, &log_mu, &conns[c]);
          RunConnection(caller, c, rngs[c], reads, &name_seq[c], &conns[c]);
        });
      }
    }
    int64_t episode_ns = NsSince(begin);
    if (phase->window_ns.size() <= window) {
      phase->window_ns.resize(window + 1);
      phase->window_requests.resize(window + 1);
    }
    std::set<std::string> expected;
    for (Conn& conn : conns) {
      report->attempted += conn.attempted;
      report->failed += conn.failed;
      if (!conn.mismatch.empty()) report->Fail("serve: " + conn.mismatch);
      uint64_t done = conn.read.size() + conn.commit.size() +
                      conn.project.size();
      phase->requests += done;
      phase->window_requests[window] += done;
      phase->read.Merge(conn.read);
      phase->commit.Merge(conn.commit);
      phase->project.Merge(conn.project);
      expected.insert(conn.live.begin(), conn.live.end());
    }
    phase->window_ns[window] += episode_ns;
    ++phase->episodes;

    // Output checks: the ledger, the server's oracle, and health.
    Conn check;
    Caller caller(live->clients[0], 0, nullptr, nullptr, &check);
    if (caller.Call({"select", "Keep", "Person0"}, nullptr))
      expected.insert("Keep");
    if (wrong_reference) expected.insert("NeverDefined");
    auto views = caller.Call({"query", "views"}, nullptr);
    std::set<std::string> got;
    if (views) got.insert(views->body.begin(), views->body.end());
    if (got != expected)
      report->Fail("serve: view list differs from the acked/nacked ledger (" +
                   std::to_string(got.size()) + " views, ledger " +
                   std::to_string(expected.size()) + ")");
    if (!caller.Call({"verify"}, nullptr))
      report->Fail("serve: server verify (differential oracle) failed");
    auto health = caller.Call({"health"}, nullptr);
    if (!health || health->body.empty() || health->body[0] != "status ok" ||
        live->db->degraded_now())
      report->Fail("serve: store degraded at the end of an episode");
    report->attempted += check.attempted;
    report->failed += check.failed;
    if (!check.mismatch.empty()) report->Fail("serve: " + check.mismatch);

    std::error_code ec;
    uintmax_t wal_bytes = fs::file_size(dir + "/wal.log", ec);
    if (!ec) {
      phase->wal_bytes += static_cast<double>(wal_bytes);
      phase->wal_records += static_cast<double>(live->db->last_lsn());
    }
    phase->epochs_retained = live->db->epochs().retired_pending() + 1;
  }
}

}  // namespace

Report RunServe(const RunOptions& options) {
  Report report;
  auto seed_catalog = tyder::LoadTdl(PayrollTdl());
  if (!seed_catalog.ok()) {
    report.Fail("serve: payroll schema: " + seed_catalog.status().ToString());
    return report;
  }
  std::vector<Read> reads = MakeReads(*seed_catalog);
  std::string dir =
      options.scratch_dir + "/serve-" + std::to_string(options.seed);

  Phase untraced;
  RunEpisodes(*seed_catalog, reads, dir, options.seed,
              options.trace ? options.seconds / 2 : options.seconds,
              options.inject_wrong_reference, nullptr, &untraced, &report);
  std::vector<double> rate;
  for (size_t w = 0; w < untraced.window_ns.size(); ++w)
    rate.push_back(untraced.window_requests[w] / (untraced.window_ns[w] / 1e9));

  report.Note("serve: " + std::to_string(kConnections) +
              " connections, closed loop, " +
              std::to_string(untraced.episodes) + " episodes of " +
              std::to_string(kRequestsPerEpisode) +
              " requests per connection, " +
              std::to_string(untraced.requests) + " requests");
  report.NoteLatency("read_rtt_us", untraced.read.Pooled(), kReadTail, 1e3,
                     "us");
  report.NoteLatency("commit_rtt_ms", untraced.commit.Pooled(), kCommitTail,
                     1e6, "ms");
  report.NoteLatency("project_rtt_ms", untraced.project.Pooled(), 0.9, 1e6,
                     "ms");

  report.E2e("setup_s", Median(untraced.setup_s), "s");
  report.E2e("rss_peak_mb", PeakRssMb(), "MB");
  report.E2e("throughput_per_s", Median(rate), "1/s");
  report.E2e("primary_p50_us", untraced.read.Percentile(0.5) / 1e3,
             "us");
  report.E2e("primary_tail_us",
             untraced.read.Percentile(kReadTail) / 1e3, "us");
  report.E2e("secondary_p50_us",
             untraced.commit.Percentile(0.5) / 1e3, "us");
  report.E2e("secondary_tail_us",
             untraced.commit.Percentile(kCommitTail) / 1e3, "us");
  report.E2e("tertiary_p50_us",
             untraced.project.Percentile(0.5) / 1e3, "us");
  if (!options.trace) return report;

  Phase traced;
  SpanLog log;
  RegistryDelta delta;
  delta.Begin();
  RunEpisodes(*seed_catalog, reads, dir, options.seed + 7, options.seconds / 2,
              false, &log, &traced, &report);
  delta.End();
  std::vector<double> traced_rate;
  for (size_t w = 0; w < traced.window_ns.size(); ++w)
    traced_rate.push_back(traced.window_requests[w] /
                          (traced.window_ns[w] / 1e9));

  auto request_ns = delta.Hist("net.request_ns");
  auto queue = delta.Hist("net.queue_depth");
  auto batch = delta.Hist("storage.group_commit.batch_size");
  auto stall = delta.Hist("storage.group_commit.stall_ns");
  report.Layer("error_frac", Ratio(report.failed, report.attempted), "frac");
  report.Layer("core.epoch_retained",
               static_cast<double>(traced.epochs_retained), "count");
  report.Layer("storage.records_per_sync",
               Ratio(delta.Counter("storage.group_commit.records"),
                     delta.Counter("storage.group_commit.syncs")),
               "count");
  report.Layer("storage.batch_size_p50", static_cast<double>(batch.p50),
               "count");
  report.Layer("storage.stall_p50_ns", static_cast<double>(stall.p50), "ns");
  report.Layer("storage.stall_tail_ns", static_cast<double>(stall.p99), "ns");
  report.Layer("storage.wal_bytes_per_commit",
               Ratio(traced.wal_bytes, traced.wal_records), "bytes");
  report.Layer("net.server_request_p50_ns",
               static_cast<double>(request_ns.p50), "ns");
  report.Layer("net.server_request_tail_ns",
               static_cast<double>(request_ns.p99), "ns");
  report.Layer("net.transport_p50_ns",
               traced.read.Pooled().P50() - static_cast<double>(request_ns.p50),
               "ns");
  report.Layer("net.queue_depth_p50", static_cast<double>(queue.p50), "count");
  report.Layer("net.queue_depth_max", static_cast<double>(queue.max), "count");
  report.Layer("net.shed", delta.Counter("net.shed"), "count");
  report.Layer("net.deadline_misses", delta.Counter("net.deadline_misses"),
               "count");
  report.Layer("obs.trace_overhead", Ratio(Median(rate), Median(traced_rate)),
               "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "traced: %.2f records per fsync, server p50 %.1f us of a "
                "%.1f us read round trip",
                Ratio(delta.Counter("storage.group_commit.records"),
                      delta.Counter("storage.group_commit.syncs")),
                request_ns.p50 / 1e3, traced.read.Pooled().P50() / 1e3);
  report.Note(line);
  if (!options.trace_out.empty() && !log.Write(options.trace_out))
    report.Note("could not write " + options.trace_out);
  return report;
}

}  // namespace repobench
