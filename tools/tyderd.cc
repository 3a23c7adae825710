// tyderd: the tyder schema service daemon.
//
//   tyderd --db <dir> [<schema.tdl>] [--port <n>] [--admin]
//          [--max-connections <n>] [--workers <n>] [--queue <n>]
//          [--idle-timeout-ms <n>] [--stats-jsonl=<file>]
//          [--stats-period-ms=<n>]
//
// Boots (recovering or seeding) a DurableCatalog and serves the tyder1
// protocol (src/net/protocol.h) on 127.0.0.1 until an admin `shutdown`
// request or SIGINT/SIGTERM. Prints exactly one line
//
//   LISTENING <port>
//
// to stdout once the socket is bound — scripts (scripts/run_all.sh serve)
// parse it to find an ephemerally-chosen port.
//
// A <schema.tdl> operand seeds a FRESH database directory, exactly like
// `tyderc <schema.tdl> --db <dir>`; restarting against an already-seeded
// directory recovers instead (passing the TDL again is then an error, by
// DurableCatalog::Seed's no-durable-state rule).
//
// --workers bounds the requests executing at once and --queue the requests
// waiting for an execution slot; each connection's reader thread executes
// its own requests (src/net/server.h).
//
// --admin enables reopen/fault/sleep/shutdown (see docs/ROBUSTNESS.md,
// "Serving and overload"). Without it those commands answer
// ERR FailedPrecondition, so a production-ish tyderd cannot be fault-armed
// or stopped over the wire.
//
// Exit codes follow the tyderc contract (README.md): 0 clean shutdown,
// 1 serving/storage failure, 2 usage error.

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "lang/analyzer.h"
#include "net/server.h"
#include "obs/obs.h"
#include "storage/durable_catalog.h"
#if TYDER_OBS_ENABLED
#include "obs/snapshotter.h"
#endif

namespace tyder {
namespace {

net::Server* g_signal_server = nullptr;

void HandleSignal(int) {
  // Stop() is not async-signal-safe; just flag the shutdown and let the
  // main thread (parked in WaitForShutdownRequest) do the teardown.
  if (g_signal_server != nullptr) g_signal_server->RequestShutdown();
}

int Usage() {
  std::cerr
      << "usage: tyderd --db <dir> [<schema.tdl>] [--port <n>] [--admin]\n"
         "              [--max-connections <n>] [--workers <n>] "
         "[--queue <n>]\n"
         "              [--idle-timeout-ms <n>] [--stats-jsonl=<file>] "
         "[--stats-period-ms=<n>]\n"
         "  --workers <n>  requests executing at once\n"
         "  --queue <n>    requests waiting for an execution slot\n";
  return 2;
}

int Fail(const Status& status) {
  std::cerr << "tyderd: " << status.ToString() << "\n";
  return 1;
}

bool ParseIntFlag(int argc, char** argv, int& i, int* out) {
  if (i + 1 >= argc) return false;
  *out = std::atoi(argv[++i]);
  return *out >= 0;
}

int Run(int argc, char** argv) {
  std::string db_dir;
  std::string schema_path;
  net::ServerOptions options;
  int port = 0, max_conns = options.max_connections, workers = options.workers;
  int queue = static_cast<int>(options.queue_capacity);
  int idle_ms = static_cast<int>(options.idle_timeout_ms);
#if TYDER_OBS_ENABLED
  std::string stats_jsonl_path;
  int stats_period_ms = 1000;
#endif

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--db") {
      if (i + 1 >= argc) return Usage();
      db_dir = argv[++i];
    } else if (arg == "--port") {
      if (!ParseIntFlag(argc, argv, i, &port) || port > 65535) return Usage();
    } else if (arg == "--admin") {
      options.admin = true;
    } else if (arg == "--max-connections") {
      if (!ParseIntFlag(argc, argv, i, &max_conns) || max_conns < 1)
        return Usage();
    } else if (arg == "--workers") {
      if (!ParseIntFlag(argc, argv, i, &workers) || workers < 1)
        return Usage();
    } else if (arg == "--queue") {
      if (!ParseIntFlag(argc, argv, i, &queue) || queue < 1) return Usage();
    } else if (arg == "--idle-timeout-ms") {
      if (!ParseIntFlag(argc, argv, i, &idle_ms)) return Usage();
#if TYDER_OBS_ENABLED
    } else if (arg.rfind("--stats-jsonl=", 0) == 0) {
      stats_jsonl_path = arg.substr(std::string("--stats-jsonl=").size());
      if (stats_jsonl_path.empty()) return Usage();
    } else if (arg.rfind("--stats-period-ms=", 0) == 0) {
      stats_period_ms =
          std::atoi(arg.substr(std::string("--stats-period-ms=").size())
                        .c_str());
      if (stats_period_ms < 1) return Usage();
#else
    } else if (arg.rfind("--stats-", 0) == 0) {
      std::cerr << "tyderd: " << arg.substr(0, arg.find('='))
                << " requires the metrics layer, but this tyderd was built "
                   "with -DTYDER_OBS=OFF\n";
      return 2;
#endif
    } else if (schema_path.empty() && arg.rfind("--", 0) != 0) {
      schema_path = arg;
    } else {
      return Usage();
    }
  }
  if (db_dir.empty()) return Usage();
  options.port = static_cast<uint16_t>(port);
  options.max_connections = max_conns;
  options.workers = workers;
  options.queue_capacity = static_cast<size_t>(queue);
  options.idle_timeout_ms = static_cast<uint64_t>(idle_ms);

  Result<storage::DurableCatalog> opened =
      storage::DurableCatalog::Open(db_dir);
  if (!opened.ok()) return Fail(opened.status());
  storage::DurableCatalog db = std::move(opened).value();
  for (const std::string& warning : db.recovery().warnings) {
    std::cerr << "tyderd: recovery: " << warning << "\n";
  }
  if (!schema_path.empty()) {
    std::ifstream in(schema_path);
    if (!in) return Fail(Status::NotFound("cannot open '" + schema_path + "'"));
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<Catalog> seed = LoadTdl(buffer.str());
    if (!seed.ok()) return Fail(seed.status());
    Status seeded = db.Seed(std::move(*seed));
    if (!seeded.ok()) return Fail(seeded);
    std::cerr << "tyderd: seeded '" << db_dir << "' from " << schema_path
              << "\n";
  }

#if TYDER_OBS_ENABLED
  std::optional<obs::StatsSnapshotter> snapshotter;
  if (!stats_jsonl_path.empty()) {
    snapshotter.emplace(
        obs::SnapshotterOptions{stats_jsonl_path, stats_period_ms});
    if (!snapshotter->Start())
      return Fail(Status::Internal("cannot open stats file '" +
                                   stats_jsonl_path + "'"));
  }
#endif

  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(&db, options);
  if (!server.ok()) return Fail(server.status());

  g_signal_server = server->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::cout << "LISTENING " << (*server)->port() << std::endl;
  std::cerr << "tyderd: serving '" << db_dir << "' on 127.0.0.1:"
            << (*server)->port() << " (" << workers << " workers, "
            << max_conns << " conns max" << (options.admin ? ", admin" : "")
            << ")\n";

  (*server)->WaitForShutdownRequest();
  std::cerr << "tyderd: shutting down\n";
  (*server)->Stop();
  g_signal_server = nullptr;

  // A degraded store at exit is worth a loud word (and mirrors tyderc's
  // exit-3 health semantics, though for a served lifetime the acked state
  // on disk is still consistent).
  if (db.degraded_now()) {
    std::cerr << "tyderd: WARNING: store ended degraded: reads stayed "
                 "available, mutations were refused\n";
  }
  return 0;
}

}  // namespace
}  // namespace tyder

int main(int argc, char** argv) { return tyder::Run(argc, argv); }
