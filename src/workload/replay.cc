#include "workload/replay.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "methods/dispatch.h"
#include "net/client.h"
#include "obs/obs.h"
#include "oracle/differential.h"
#include "storage/catalog_snapshot.h"
#include "storage/crc32c.h"
#include "storage/durable_catalog.h"
#include "storage/faulty_env.h"

namespace tyder::workload {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

std::filesystem::path EphemeralDir(const char* tag) {
  static std::atomic<uint64_t> dir_counter{0};
  return std::filesystem::temp_directory_path() /
         ("tyder-scn-" + std::string(tag) + std::to_string(::getpid()) + "-" +
          std::to_string(dir_counter.fetch_add(1)));
}

// Fault tokens: `storage.*` names arm a one-shot failpoint; `env.KIND@N`
// injects a FaultyEnv fault (error/short/sync/enospc) at the Nth env call.
struct FaultPlan {
  bool is_env = false;
  std::string failpoint;
  storage::FaultyEnv::FaultKind kind = storage::FaultyEnv::FaultKind::kError;
  int index = 0;
  bool valid = true;
};

FaultPlan ParseFaultToken(const std::string& token) {
  FaultPlan plan;
  if (token.rfind("env.", 0) != 0) {
    plan.failpoint = token;
    return plan;
  }
  plan.is_env = true;
  std::string spec = token.substr(4);
  size_t at = spec.find('@');
  if (at != std::string::npos) {
    plan.index = std::atoi(spec.c_str() + at + 1);
    spec = spec.substr(0, at);
  }
  if (spec == "error") plan.kind = storage::FaultyEnv::FaultKind::kError;
  else if (spec == "short") plan.kind = storage::FaultyEnv::FaultKind::kShortWrite;
  else if (spec == "sync") plan.kind = storage::FaultyEnv::FaultKind::kSyncFail;
  else if (spec == "enospc") plan.kind = storage::FaultyEnv::FaultKind::kEnospc;
  else plan.valid = false;
  return plan;
}

// ---------------------------------------------------------------------------
// In-proc replay: live Catalog + oracle lockstep + ephemeral crash steps.
// ---------------------------------------------------------------------------

class InProcRunner {
 public:
  InProcRunner(const Workload& workload, const ReplayOptions& options)
      : workload_(workload), options_(options) {}

  Result<ScenarioReport> Run() {
    const ScenarioSpec& spec = workload_.spec;
    Result<Schema> schema = GenerateRandomSchema(spec.schema.ToOptions());
    if (!schema.ok()) {
      return schema.status().WithContext("scenario: random schema generation");
    }
    catalog_.emplace(std::move(*schema));
    report_.scenario = spec.name;
    int oracle_every = options_.oracle_every >= 0 ? options_.oracle_every
                                                  : spec.oracle_every;
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < workload_.steps.size(); ++i) {
      const WorkloadStep& step = workload_.steps[i];
      const Phase& phase = spec.phases[step.phase];
      Status s = Execute(step, phase);
      if (!s.ok()) {
        return s.WithContext("scenario '" + spec.name + "' step " +
                             std::to_string(i) + " (" +
                             std::string(ScenarioOpName(step.op)) + ")");
      }
      ++report_.steps;
      TYDER_COUNT("workload.steps");
      if (oracle_every > 0 && report_.steps % oracle_every == 0) {
        Status oracle = RunOracle();
        if (!oracle.ok()) {
          return oracle.WithContext("scenario '" + spec.name +
                                    "' oracle sweep after step " +
                                    std::to_string(i));
        }
      }
      if (options_.timed && phase.pace_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(phase.pace_us));
      }
    }
    if (oracle_every > 0) {
      Status oracle = RunOracle();
      if (!oracle.ok()) {
        return oracle.WithContext("scenario '" + spec.name + "' final oracle");
      }
    }
    report_.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    report_.mutation_ns = mutation_hist_.Snap();
    report_.read_ns = read_hist_.Snap();
    report_.recovery_ns = recovery_hist_.Snap();
    report_.final_crc = storage::Crc32c(storage::SerializeCatalog(*catalog_));
    report_.final_types = catalog_->schema().types().NumTypes();
    report_.final_views = catalog_->views().size();
    return report_;
  }

 private:
  Status Fail(const std::string& message) {
    return Status::Internal("workload replay: " + message);
  }

  // Candidate lists, resolved fresh at each step like fuzz ops: every
  // non-builtin type (user + view/surrogate), optionally only those with
  // cumulative state (projection/generalization sources).
  std::vector<TypeId> LiveTypes(bool with_attrs) const {
    std::vector<TypeId> out;
    const TypeGraph& graph = catalog_->schema().types();
    for (TypeId t = 0; t < static_cast<TypeId>(graph.NumTypes()); ++t) {
      if (graph.type(t).kind() == TypeKind::kBuiltin) continue;
      if (with_attrs && graph.CumulativeAttributes(t).empty()) continue;
      out.push_back(t);
    }
    return out;
  }

  std::vector<TypeId> UserTypes() const {
    std::vector<TypeId> out;
    const TypeGraph& graph = catalog_->schema().types();
    for (TypeId t = 0; t < static_cast<TypeId>(graph.NumTypes()); ++t) {
      if (graph.type(t).kind() == TypeKind::kUser) out.push_back(t);
    }
    return out;
  }

  size_t Index(const WorkloadStep& step, size_t n) const {
    return ResolveIndex(workload_.spec, step, n);
  }

  void RecordMutation(Clock::time_point start, bool ok) {
    mutation_hist_.Record(NsSince(start));
    if (ok) {
      ++report_.mutations;
      TYDER_COUNT("workload.mutations");
    } else {
      ++report_.refusals;
      TYDER_COUNT("workload.refusals");
    }
  }

  Status Execute(const WorkloadStep& step, const Phase& phase) {
    const TypeGraph& graph = catalog_->schema().types();
    switch (step.op) {
      case ScenarioOp::kProject: {
        std::vector<TypeId> sources = LiveTypes(/*with_attrs=*/true);
        if (sources.empty()) return Skip();
        TypeId src = sources[Index(step, sources.size())];
        std::vector<AttrId> cum = graph.CumulativeAttributes(src);
        size_t count = 1 + step.b % cum.size();
        size_t at = step.c % cum.size();
        std::vector<std::string> attrs;
        std::set<std::string> seen;
        for (size_t k = 0; k < count; ++k) {
          std::string name =
              graph.attribute(cum[(at + k) % cum.size()]).name.str();
          if (seen.insert(name).second) attrs.push_back(name);
        }
        std::string vname = "SV" + std::to_string(next_view_++);
        Clock::time_point t0 = Clock::now();
        bool ok = catalog_
                      ->DefineProjectionView(vname, graph.TypeName(src), attrs)
                      .ok();
        RecordMutation(t0, ok);
        return Status::OK();
      }
      case ScenarioOp::kGeneralize: {
        std::vector<TypeId> sources = LiveTypes(/*with_attrs=*/true);
        if (sources.size() < 2) return Skip();
        TypeId a = sources[Index(step, sources.size())];
        TypeId b = sources[step.b % sources.size()];
        if (a == b) b = sources[(step.b + 1) % sources.size()];
        if (a == b) return Skip();
        std::string vname = "SG" + std::to_string(next_view_++);
        Clock::time_point t0 = Clock::now();
        bool ok = catalog_
                      ->DefineGeneralizationView(vname, graph.TypeName(a),
                                                graph.TypeName(b))
                      .ok();
        RecordMutation(t0, ok);
        return Status::OK();
      }
      case ScenarioOp::kDrop: {
        const std::vector<ViewDef>& views = catalog_->views();
        if (views.empty()) return Skip();
        std::string name = views[Index(step, views.size())].name;
        Clock::time_point t0 = Clock::now();
        bool ok = catalog_->DropView(name).ok();
        RecordMutation(t0, ok);
        return Status::OK();
      }
      case ScenarioOp::kCollapse: {
        Clock::time_point t0 = Clock::now();
        bool ok = catalog_->Collapse().ok();
        RecordMutation(t0, ok);
        return Status::OK();
      }
      case ScenarioOp::kNewType: {
        std::vector<TypeId> parents = LiveTypes(/*with_attrs=*/false);
        if (parents.empty()) return Skip();
        TypeId parent = parents[Index(step, parents.size())];
        std::string name = "SW" + std::to_string(next_type_++);
        Clock::time_point t0 = Clock::now();
        Result<TypeId> id =
            catalog_->schema().types().DeclareType(name, TypeKind::kUser);
        bool ok = id.ok();
        if (ok) {
          ok = catalog_->schema().types().AddSupertype(*id, parent).ok();
        }
        RecordMutation(t0, ok);
        return Status::OK();
      }
      case ScenarioOp::kNewAttr: {
        std::vector<TypeId> owners = UserTypes();
        if (owners.empty()) return Skip();
        TypeId owner = owners[Index(step, owners.size())];
        std::string name = "sw_a" + std::to_string(next_attr_++);
        Clock::time_point t0 = Clock::now();
        bool ok = catalog_->schema()
                      .types()
                      .DeclareAttribute(owner, name,
                                        catalog_->schema().builtins().int_type)
                      .ok();
        RecordMutation(t0, ok);
        return Status::OK();
      }
      case ScenarioOp::kNewEdge: {
        std::vector<TypeId> types = LiveTypes(/*with_attrs=*/false);
        if (types.size() < 2) return Skip();
        TypeId sub = types[Index(step, types.size())];
        TypeId super = types[step.b % types.size()];
        if (sub == super) return Skip();
        Clock::time_point t0 = Clock::now();
        bool ok = catalog_->schema().types().AddSupertype(sub, super).ok();
        RecordMutation(t0, ok);
        return Status::OK();
      }
      case ScenarioOp::kSubtype: {
        size_t n = graph.NumTypes();
        TypeId a = static_cast<TypeId>(Index(step, n));
        TypeId b = static_cast<TypeId>(step.b % n);
        Clock::time_point t0 = Clock::now();
        (void)graph.IsSubtype(a, b);
        read_hist_.Record(NsSince(t0));
        ++report_.reads;
        return Status::OK();
      }
      case ScenarioOp::kDispatch: {
        const Schema& schema = catalog_->schema();
        size_t ngfs = schema.NumGenericFunctions();
        if (ngfs == 0) return Skip();
        GfId gf = static_cast<GfId>(step.b % ngfs);
        std::vector<TypeId> args;
        size_t n = graph.NumTypes();
        // The first argument takes the population's (possibly Zipf-hot)
        // payload — the hot-type skew the dispatch index sees.
        for (int p = 0; p < schema.gf(gf).arity; ++p) {
          args.push_back(static_cast<TypeId>(
              p == 0 ? Index(step, n) : (step.c + 0x9E3779B9u * p) % n));
        }
        Clock::time_point t0 = Clock::now();
        (void)Dispatch(schema, gf, args);
        read_hist_.Record(NsSince(t0));
        ++report_.reads;
        return Status::OK();
      }
      case ScenarioOp::kViews:
      case ScenarioOp::kPing: {
        Clock::time_point t0 = Clock::now();
        (void)catalog_->views().size();
        read_hist_.Record(NsSince(t0));
        ++report_.reads;
        return Status::OK();
      }
      case ScenarioOp::kCrash:
        if (phase.faults.empty()) return Skip();
        return DoCrash(step, phase);
    }
    return Skip();
  }

  Status Skip() {
    ++report_.skipped;
    return Status::OK();
  }

  // The mutation a crash step interrupts: derive / drop / collapse, resolved
  // against the live candidate lists (the fuzzer's InterruptedOp contract).
  struct InterruptedOp {
    int variant = 0;  // 0 derive, 1 drop, 2 collapse
    std::string vname, src;
    std::vector<std::string> attrs;
    bool skip = false;
  };

  InterruptedOp ResolveInterrupted(const WorkloadStep& step) {
    InterruptedOp iop;
    iop.variant = static_cast<int>(step.c % 3);
    if (iop.variant == 1 && catalog_->views().empty()) iop.variant = 0;
    if (iop.variant == 0) {
      const TypeGraph& graph = catalog_->schema().types();
      std::vector<TypeId> sources = LiveTypes(/*with_attrs=*/true);
      if (sources.empty()) {
        iop.skip = true;
        return iop;
      }
      TypeId src = sources[Index(step, sources.size())];
      iop.src = graph.TypeName(src);
      std::vector<AttrId> cum = graph.CumulativeAttributes(src);
      size_t count = 1 + step.b % cum.size();
      std::set<std::string> seen;
      for (size_t k = 0; k < count; ++k) {
        std::string name = graph.attribute(cum[k % cum.size()]).name.str();
        if (seen.insert(name).second) iop.attrs.push_back(name);
      }
      iop.vname = "SC" + std::to_string(next_view_++);
    } else if (iop.variant == 1) {
      iop.vname = catalog_->views()[step.b % catalog_->views().size()].name;
    }
    return iop;
  }

  template <typename T>
  static bool ApplyInterrupted(const InterruptedOp& iop, T& target) {
    switch (iop.variant) {
      case 0:
        return target.DefineProjectionView(iop.vname, iop.src, iop.attrs).ok();
      case 1:
        return target.DropView(iop.vname).ok();
      default:
        return target.Collapse().ok();
    }
  }

  // Crash step: seed an ephemeral DurableCatalog from the live catalog, run
  // one mutation under the armed fault, "crash" (drop the handle, optionally
  // power-lose unsynced data), recover, and require the recovered state to
  // be byte-identical to the pre- or post-state of the interrupted op — with
  // an acknowledged op surviving any power loss. The recovered catalog is
  // adopted as the live state.
  Status DoCrash(const WorkloadStep& step, const Phase& phase) {
    ++report_.crashes;
    TYDER_COUNT("workload.crash_steps");
    const std::string& token = phase.faults[step.b % phase.faults.size()];
    FaultPlan plan = ParseFaultToken(token);
    if (!plan.valid) return Fail("bad fault token '" + token + "'");

    InterruptedOp iop = ResolveInterrupted(step);
    if (iop.skip) return Skip();

    std::string pre = storage::SerializeCatalog(*catalog_);
    Catalog copy = *catalog_;
    bool would_commit = ApplyInterrupted(iop, copy);
    std::string post = would_commit ? storage::SerializeCatalog(copy) : pre;

    bool power_loss =
        phase.power_loss_pct > 0 &&
        static_cast<int>(step.a % 100) < phase.power_loss_pct;

    std::filesystem::path dir = EphemeralDir("");
    storage::FaultyEnv env;
    bool op_ok = false;
    std::error_code ec;
    {
      Result<storage::DurableCatalog> db =
          storage::DurableCatalog::Open(dir.string(), &env);
      if (!db.ok()) {
        return Fail("DurableCatalog::Open failed: " + db.status().ToString());
      }
      Status seeded = db->Seed(*catalog_);
      if (!seeded.ok()) {
        return Fail("DurableCatalog::Seed failed: " + seeded.ToString());
      }
      env.ResetCounters();
      if (plan.is_env) {
        env.InjectAt(plan.kind, plan.index);
      } else {
        failpoint::Activate(plan.failpoint, 1);
      }
      op_ok = ApplyInterrupted(iop, *db);
      if (plan.is_env) {
        env.ClearFaults();
      } else {
        failpoint::Deactivate(plan.failpoint);
      }
    }  // drop the handle: the crash
    if (power_loss) {
      env.PowerLoss();
      ++report_.power_losses;
    }

    Clock::time_point t0 = Clock::now();
    Result<storage::DurableCatalog> re =
        storage::DurableCatalog::Open(dir.string());
    recovery_hist_.Record(NsSince(t0));
    if (!re.ok()) {
      std::filesystem::remove_all(dir, ec);
      return Fail("recovery after fault '" + token +
                  "' failed: " + re.status().ToString());
    }
    std::string recovered = storage::SerializeCatalog(re->catalog());
    std::filesystem::remove_all(dir, ec);
    if (recovered != pre && recovered != post) {
      return Fail("recovery after fault '" + token +
                  "' landed on neither the pre- nor the post-state of the "
                  "interrupted op");
    }
    if (op_ok && power_loss && recovered != post) {
      return Fail("acknowledged op did not survive the power loss "
                  "(durability violated)");
    }
    catalog_.emplace(re->catalog());
    ++report_.recoveries;
    TYDER_COUNT("workload.recoveries");
    if (recovered == post && post != pre) ++report_.mutations;
    return Status::OK();
  }

  Status RunOracle() {
    const Schema& schema = catalog_->schema();
    Status s = oracle::CheckSubtypeOracle(schema);
    if (s.ok()) s = oracle::CheckCumulativeStateOracle(schema);
    if (s.ok()) {
      // A light dispatch differential per sweep; the heavyweight exhaustive
      // pass belongs to the fuzzer's kQuery op, not sustained replay.
      oracle::DifferentialOptions dopt;
      dopt.seed = static_cast<uint32_t>(workload_.spec.seed + report_.steps);
      dopt.tuples_per_gf = 2;
      dopt.exhaustive_tuple_limit = 64;
      s = oracle::CheckDispatchOracle(schema, dopt);
    }
    if (!s.ok()) {
      report_.oracle_clean = false;
      return s;
    }
    ++report_.oracle_passes;
    TYDER_COUNT("workload.oracle_passes");
    return Status::OK();
  }

  const Workload& workload_;
  ReplayOptions options_;
  std::optional<Catalog> catalog_;
  ScenarioReport report_;
  obs::Histogram mutation_hist_, read_hist_, recovery_hist_;
  uint64_t next_view_ = 0, next_type_ = 0, next_attr_ = 0;
};

// ---------------------------------------------------------------------------
// Wire replay: one worker per population against a live tyderd.
// ---------------------------------------------------------------------------

// What the worker's ledger expects of a view name after the run.
enum class Expect { kPresent, kAbsent, kUnknown };

struct WireWorker {
  // Inputs.
  const Workload* workload = nullptr;
  const ReplayOptions* options = nullptr;
  uint16_t port = 0;
  size_t population = 0;
  std::vector<const WorkloadStep*> steps;

  // Outputs.
  uint64_t mutations = 0, reads = 0, refusals = 0, skipped = 0;
  uint64_t acked = 0, nacked = 0, indeterminate = 0, reconnects = 0;
  std::map<std::string, Expect> ledger;
  std::vector<std::string> own_views;  // acked creations, drop candidates
  obs::Histogram mutation_hist, read_hist;
  Status status;

  void Run() {
    Result<net::Client> client = ConnectWithRetry();
    if (!client.ok()) {
      status = client.status();
      return;
    }
    const ScenarioSpec& spec = workload->spec;
    uint64_t next_view = 0;
    for (const WorkloadStep* step : steps) {
      const Phase& phase = spec.phases[step->phase];
      net::Request request;
      request.deadline_ms = options->deadline_ms;
      bool is_mutation = false;
      std::string created, dropped;
      if (!Render(*step, next_view, &request, &is_mutation, &created,
                  &dropped)) {
        ++skipped;
        request = net::Request{};
        request.command = "ping";
        request.deadline_ms = options->deadline_ms;
        is_mutation = false;
      }
      Clock::time_point t0 = Clock::now();
      Result<net::Response> response = client->Call(request);
      int64_t ns = NsSince(t0);
      if (is_mutation) {
        mutation_hist.Record(ns);
      } else {
        read_hist.Record(ns);
      }
      if (!response.ok()) {
        // Transport death. SentWithoutAnswer is the indeterminate window —
        // the server may or may not have applied the request.
        if (is_mutation) {
          if (client->SentWithoutAnswer()) {
            ++indeterminate;
            if (!created.empty()) ledger[created] = Expect::kUnknown;
            if (!dropped.empty()) ledger[dropped] = Expect::kUnknown;
          } else {
            ++nacked;
          }
        }
        client->Close();
        client = ConnectWithRetry();
        if (!client.ok()) {
          status = client.status().WithContext("wire worker reconnect");
          return;
        }
        ++reconnects;
        continue;
      }
      if (is_mutation) {
        if (response->ok()) {
          ++acked;
          ++mutations;
          if (!created.empty()) {
            ledger[created] = Expect::kPresent;
            own_views.push_back(created);
          }
          if (!dropped.empty()) {
            ledger[dropped] = Expect::kAbsent;
            own_views.erase(
                std::remove(own_views.begin(), own_views.end(), dropped),
                own_views.end());
          }
        } else {
          // kErr (engine refusal), kRetryAfter, kDeadlineExceeded, kDegraded:
          // all definitive nacks over a live connection.
          ++nacked;
          ++refusals;
        }
      } else {
        ++reads;
      }
      if (options->timed && phase.pace_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(phase.pace_us));
      }
    }
  }

  Result<net::Client> ConnectWithRetry() {
    Status last = Status::Internal("connect never attempted");
    for (int attempt = 0; attempt < 20; ++attempt) {
      Result<net::Client> client = net::Client::Connect(port);
      if (client.ok()) return client;
      last = client.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return last;
  }

  // Renders a step into a wire request. Returns false for steps with no
  // wire form (newtype/newattr/newedge/crash, or missing anchors); those
  // fall back to ping.
  bool Render(const WorkloadStep& step, uint64_t& next_view,
              net::Request* request,
              bool* is_mutation, std::string* created, std::string* dropped) {
    const ScenarioSpec& spec = workload->spec;
    const WireTargets& wire = spec.wire;
    auto view_name = [&](const char* prefix) {
      return std::string(prefix) + std::to_string(population) + "_" +
             std::to_string(next_view++);
    };
    switch (step.op) {
      case ScenarioOp::kProject: {
        if (wire.source.empty() || wire.attrs.empty()) return false;
        size_t count = 1 + step.b % wire.attrs.size();
        size_t at = step.c % wire.attrs.size();
        std::set<std::string> seen;
        std::string attrs;
        for (size_t k = 0; k < count; ++k) {
          const std::string& name = wire.attrs[(at + k) % wire.attrs.size()];
          if (!seen.insert(name).second) continue;
          if (!attrs.empty()) attrs += ',';
          attrs += name;
        }
        *created = view_name("WV");
        request->command = "project";
        request->args = {*created, wire.source, attrs};
        *is_mutation = true;
        return true;
      }
      case ScenarioOp::kGeneralize: {
        if (wire.targets.size() < 2) return false;
        size_t a = ResolveIndex(spec, step, wire.targets.size());
        size_t b = step.b % wire.targets.size();
        if (a == b) b = (b + 1) % wire.targets.size();
        *created = view_name("WG");
        request->command = "generalize";
        request->args = {*created, wire.targets[a], wire.targets[b]};
        *is_mutation = true;
        return true;
      }
      case ScenarioOp::kDrop: {
        if (own_views.empty()) return false;
        *dropped = own_views[ResolveIndex(spec, step, own_views.size())];
        request->command = "drop";
        request->args = {*dropped};
        *is_mutation = true;
        return true;
      }
      case ScenarioOp::kCollapse:
        request->command = "collapse";
        *is_mutation = true;
        return true;
      case ScenarioOp::kSubtype: {
        if (wire.targets.empty()) return false;
        request->command = "query";
        request->args = {
            "subtype", wire.targets[ResolveIndex(spec, step, wire.targets.size())],
            wire.targets[step.b % wire.targets.size()]};
        return true;
      }
      case ScenarioOp::kDispatch: {
        if (wire.gfs.empty() || wire.targets.empty()) return false;
        request->command = "query";
        request->args = {
            "dispatch", wire.gfs[step.b % wire.gfs.size()],
            wire.targets[ResolveIndex(spec, step, wire.targets.size())]};
        return true;
      }
      case ScenarioOp::kViews:
        request->command = "query";
        request->args = {"views"};
        return true;
      case ScenarioOp::kPing:
        request->command = "ping";
        return true;
      case ScenarioOp::kNewType:
      case ScenarioOp::kNewAttr:
      case ScenarioOp::kNewEdge:
      case ScenarioOp::kCrash:
        return false;
    }
    return false;
  }
};

}  // namespace

Result<ScenarioReport> ReplayInProc(const Workload& workload,
                                    const ReplayOptions& options) {
  if (workload.spec.populations.empty() || workload.spec.phases.empty()) {
    return Status::InvalidArgument("workload has no populations or phases");
  }
  return InProcRunner(workload, options).Run();
}

Result<ScenarioReport> ReplayOverWire(const Workload& workload, uint16_t port,
                                      const ReplayOptions& options) {
  const ScenarioSpec& spec = workload.spec;
  if (spec.populations.empty() || spec.phases.empty()) {
    return Status::InvalidArgument("workload has no populations or phases");
  }
  std::vector<WireWorker> workers(spec.populations.size());
  for (size_t p = 0; p < workers.size(); ++p) {
    workers[p].workload = &workload;
    workers[p].options = &options;
    workers[p].port = port;
    workers[p].population = p;
  }
  for (const WorkloadStep& step : workload.steps) {
    workers[step.population].steps.push_back(&step);
  }

  Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (WireWorker& worker : workers) {
      threads.emplace_back([&worker] { worker.Run(); });
    }
    for (std::thread& thread : threads) thread.join();
  }

  ScenarioReport report;
  report.scenario = spec.name;
  report.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  obs::Histogram mutation_hist, read_hist;
  std::map<std::string, Expect> ledger;
  for (WireWorker& worker : workers) {
    if (!worker.status.ok()) {
      return worker.status.WithContext("scenario '" + spec.name +
                                       "' wire population '" +
                                       spec.populations[worker.population].name +
                                       "'");
    }
    report.steps += worker.steps.size();
    report.mutations += worker.mutations;
    report.reads += worker.reads;
    report.refusals += worker.refusals;
    report.skipped += worker.skipped;
    report.acked += worker.acked;
    report.nacked += worker.nacked;
    report.indeterminate += worker.indeterminate;
    report.reconnects += worker.reconnects;
    mutation_hist.MergeFrom(worker.mutation_hist);
    read_hist.MergeFrom(worker.read_hist);
    // Workers own disjoint view namespaces (names carry the population
    // index), so the merge never conflicts.
    for (const auto& [name, expect] : worker.ledger) ledger[name] = expect;
  }
  report.mutation_ns = mutation_hist.Snap();
  report.read_ns = read_hist.Snap();

  // Post-run verification over a fresh connection: server healthy, the
  // server-side oracle clean, and the view registry consistent with every
  // definitive ledger entry.
  Result<net::Client> client = net::Client::Connect(port);
  if (!client.ok()) {
    return client.status().WithContext("scenario '" + spec.name +
                                       "' post-run verification connect");
  }
  Result<net::Response> health = client->Call("health");
  if (!health.ok() || !health->ok() ||
      health->message().find("status ok") == std::string::npos) {
    report.ledger_clean = false;
    return Status::Internal(
        "scenario '" + spec.name + "': server unhealthy after the run" +
        (health.ok() ? " (" + std::string(health->message()) + ")" : ""));
  }
  Result<net::Response> verify = client->Call("verify");
  if (!verify.ok() || !verify->ok()) {
    report.oracle_clean = false;
    return Status::Internal("scenario '" + spec.name +
                            "': server-side oracle verification failed");
  }
  ++report.oracle_passes;
  Result<net::Response> views = client->Call("query", {"views"});
  if (!views.ok() || !views->ok()) {
    report.ledger_clean = false;
    return Status::Internal("scenario '" + spec.name +
                            "': query views failed after the run");
  }
  std::set<std::string> server_views(views->body.begin(), views->body.end());
  for (const auto& [name, expect] : ledger) {
    bool present = server_views.count(name) > 0;
    if ((expect == Expect::kPresent && !present) ||
        (expect == Expect::kAbsent && present)) {
      report.ledger_clean = false;
      return Status::Internal(
          "scenario '" + spec.name + "': ledger violation — view '" + name +
          "' expected " +
          (expect == Expect::kPresent ? "present" : "absent") +
          " but the server disagrees");
    }
  }

  std::string fingerprint;
  for (const std::string& name : server_views) {
    fingerprint += name;
    fingerprint += '\n';
  }
  report.final_crc = storage::Crc32c(fingerprint);
  report.final_views = server_views.size();
  return report;
}

}  // namespace tyder::workload
