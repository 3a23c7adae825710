// evolve: the paper's operation as a schema administrator runs it.
//
// Closed loop, one caller, in-memory Catalog. Each run generates a pool of
// random schemas (~40 types, 2 methods per generic function, bodies present)
// and, per schema, a fixed episode plan: project/generalize derivations with
// default ProjectionOptions (verify on), newest-first drops of all of them,
// and one collapse. An episode copies the base catalog outside the timed
// region and replays the plan, so the type count — and with it the per-op
// cost, which grows super-linearly with types — stays stationary.
//
// Set-up screens every candidate derivation once on a scratch copy and keeps
// only those the engine accepts (refusals roll back completely, so the kept
// subsequence replays identically); the refusal count by status code is the
// catalog.refused_* per-layer metric. The screening pass also records each
// plan's CRC-32C at peak and at the end, which every timed episode must
// repeat; each plan's first final catalog also passes the differential
// oracle.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/serialize.h"
#include "harness.h"
#include "oracle/differential.h"
#include "storage/crc32c.h"
#include "workload/random_schema.h"

namespace repobench {
namespace {

using tyder::Catalog;
using tyder::Status;

struct PlanOp {
  enum Kind { kProject, kGeneralize, kDrop, kCollapse };
  Kind kind = kProject;
  std::string view;
  std::string a, b;                // source type(s)
  std::vector<std::string> attrs;  // projection list
};

struct Plan {
  Catalog base;
  std::vector<PlanOp> ops;
  size_t derivations = 0;  // ops before the first drop/collapse
  uint32_t peak_crc = 0;
  uint32_t final_crc = 0;
  bool oracle_checked = false;
};

struct Sizes {
  int schemas;
  int types;
  int derivations;  // candidates per plan
};

Status Apply(Catalog& catalog, const PlanOp& op) {
  switch (op.kind) {
    case PlanOp::kProject: {
      LayerSpan span("catalog.DefineProjectionView");
      return catalog.DefineProjectionView(op.view, op.a, op.attrs).status();
    }
    case PlanOp::kGeneralize: {
      LayerSpan span("catalog.DefineGeneralizationView");
      return catalog.DefineGeneralizationView(op.view, op.a, op.b).status();
    }
    case PlanOp::kDrop: {
      LayerSpan span("catalog.DropView");
      return catalog.DropView(op.view);
    }
    case PlanOp::kCollapse: {
      LayerSpan span("catalog.Collapse");
      return catalog.Collapse().status();
    }
  }
  return Status::Internal("unknown plan op");
}

uint32_t SchemaCrc(const Catalog& catalog) {
  return tyder::storage::Crc32c(tyder::SerializeSchema(catalog.schema()));
}

struct Screening {
  uint64_t attempted = 0;
  uint64_t refused_internal = 0;
  uint64_t refused_other = 0;
};

// Builds one plan over the schema generated from `schema_seed`: candidate
// derivations drawn from `request_seed`, screened on a scratch copy, then
// newest-first drops of every defined view and a collapse.
tyder::Result<Plan> MakePlan(uint32_t schema_seed, uint32_t request_seed,
                             const Sizes& sizes, Screening* screening) {
  tyder::workload::RandomSchemaOptions gen;
  gen.seed = schema_seed;
  gen.num_types = sizes.types;
  gen.max_supers = 3;
  gen.attrs_per_type = 2;
  gen.num_general_methods = sizes.types / 3;
  gen.max_stmts_per_body = 4;
  gen.with_mutators = true;
  gen.methods_per_gf = 2;
  TYDER_ASSIGN_OR_RETURN(tyder::Schema schema,
                         tyder::workload::GenerateRandomSchema(gen));
  Plan plan{Catalog(std::move(schema)), {}, 0, 0, 0, false};
  const tyder::TypeGraph& types = plan.base.schema().types();

  std::mt19937 rng(request_seed);
  std::vector<PlanOp> candidates;
  for (int i = 0; i < sizes.derivations; ++i) {
    PlanOp op;
    op.view = "V" + std::to_string(i);
    // One in four is a generalization of two user types.
    if (i % 4 == 3) {
      op.kind = PlanOp::kGeneralize;
      std::uniform_int_distribution<int> pick(0, sizes.types - 1);
      int x = pick(rng), y = pick(rng);
      if (x == y) y = (y + 1) % sizes.types;
      op.a = "T" + std::to_string(x);
      op.b = "T" + std::to_string(y);
    } else {
      tyder::TypeId source = tyder::kInvalidType;
      std::vector<tyder::AttrId> attrs;
      if (!tyder::workload::PickRandomProjection(plan.base.schema(), rng(),
                                                 &source, &attrs))
        continue;
      op.a = types.TypeName(source);
      for (tyder::AttrId attr : attrs)
        op.attrs.push_back(types.attribute(attr).name.str());
    }
    candidates.push_back(std::move(op));
  }

  Catalog scratch = plan.base;
  std::vector<std::string> defined;
  for (const PlanOp& op : candidates) {
    ++screening->attempted;
    Status status = Apply(scratch, op);
    if (status.ok()) {
      plan.ops.push_back(op);
      defined.push_back(op.view);
    } else if (status.code() == tyder::StatusCode::kInternal) {
      ++screening->refused_internal;
    } else {
      ++screening->refused_other;
    }
  }
  plan.derivations = plan.ops.size();
  plan.peak_crc = SchemaCrc(scratch);
  for (size_t i = 0; i < defined.size(); ++i) {
    PlanOp drop{PlanOp::kDrop, defined[defined.size() - 1 - i], "", "", {}};
    ++screening->attempted;
    if (Apply(scratch, drop).ok()) {
      plan.ops.push_back(std::move(drop));
    } else {
      ++screening->refused_other;
    }
  }
  PlanOp collapse{PlanOp::kCollapse, "", "", "", {}};
  ++screening->attempted;
  if (Apply(scratch, collapse).ok()) {
    plan.ops.push_back(collapse);
  } else {
    ++screening->refused_other;
  }
  plan.final_crc = SchemaCrc(scratch);
  return plan;
}

// One measured phase; rounds are the windows.
struct Phase {
  Windowed derive, drop, collapse;
  HostSpeed speed;  // sampled after every episode
  std::vector<double> round_rate;  // mutations per timed second, per round
  uint64_t mutations = 0;
  int64_t timed_ns = 0;
  uint64_t episodes = 0;
  double types_live_sum = 0;
};

// Replays every plan once per round, for whole rounds, until `seconds` of
// wall time have passed; whole rounds keep the op mix identical between
// runs and between the traced and untraced phases. Timing covers the
// catalog calls only; copies and output checks run between them.
void RunEpisodes(std::vector<Plan>& plans, double seconds, SpanLog* log,
                 Phase* phase, Report* report) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  size_t next = 0;
  uint64_t round_ops = 0;
  int64_t round_ns = 0;
  while (Clock::now() < deadline || next % plans.size() != 0) {
    size_t round = next / plans.size();
    Plan& plan = plans[next++ % plans.size()];
    Catalog catalog = plan.base;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const PlanOp& op = plan.ops[i];
      if (i == plan.derivations && SchemaCrc(catalog) != plan.peak_crc)
        report->Fail("evolve: peak catalog CRC differs from the screening pass");
      ++report->attempted;
      Status status;
      Clock::time_point start = Clock::now();
      {
        TracedOp traced(log);
        status = Apply(catalog, op);
      }
      int64_t ns = NsSince(start);
      if (!status.ok()) {
        ++report->failed;
        report->Fail("evolve: screened op on view '" + op.view +
                     "' refused on replay: " + status.ToString());
        continue;
      }
      phase->timed_ns += ns;
      ++phase->mutations;
      round_ns += ns;
      ++round_ops;
      switch (op.kind) {
        case PlanOp::kProject:
        case PlanOp::kGeneralize:
          phase->derive.Add(round, ns);
          break;
        case PlanOp::kDrop:
          phase->drop.Add(round, ns);
          break;
        case PlanOp::kCollapse:
          phase->collapse.Add(round, ns);
          break;
      }
    }
    if (SchemaCrc(catalog) != plan.final_crc)
      report->Fail("evolve: final catalog CRC differs from the screening pass");
    if (!plan.oracle_checked) {
      Status oracle = tyder::oracle::CheckSchemaAgainstOracle(catalog.schema());
      if (!oracle.ok())
        report->Fail("evolve: differential oracle: " + oracle.ToString());
      plan.oracle_checked = true;
    }
    phase->speed.Sample(round);
    phase->types_live_sum += catalog.schema().types().NumTypes();
    ++phase->episodes;
    if (next % plans.size() == 0) {
      phase->round_rate.push_back(round_ops / (round_ns / 1e9));
      round_ops = 0;
      round_ns = 0;
    }
  }
}

}  // namespace

Report RunEvolve(const RunOptions& options) {
  Report report;
  const Sizes sizes = options.smoke ? Sizes{2, 16, 4} : Sizes{24, 40, 4};
  constexpr int kSetupRepeats = 3;
  constexpr uint32_t kSchemaSeedBase = 1000;
  constexpr double kTail = 0.9;

  std::vector<Plan> plans;
  Screening screening;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    int64_t calibration_ns = CalibrationMedianNs();
    Clock::time_point start = Clock::now();
    std::vector<Plan> fresh;
    Screening counts;
    for (int i = 0; i < sizes.schemas; ++i) {
      auto plan = MakePlan(kSchemaSeedBase + static_cast<uint32_t>(i),
                           options.seed * 1000u + static_cast<uint32_t>(i),
                           sizes, &counts);
      if (!plan.ok()) {
        report.Fail("evolve: schema generation: " + plan.status().ToString());
        return report;
      }
      fresh.push_back(std::move(*plan));
    }
    double elapsed_s = NsSince(start) / 1e9;
    calibration_ns = (calibration_ns + CalibrationMedianNs()) / 2;
    setup_s.push_back(elapsed_s * ToReference(calibration_ns));
    plans = std::move(fresh);
    screening = counts;
  }
  if (options.inject_wrong_reference) plans[0].final_crc ^= 1;

  size_t derivations = 0;
  for (const Plan& plan : plans) derivations += plan.derivations;
  if (derivations == 0) {
    report.Fail("evolve: every candidate derivation was refused");
    return report;
  }

  Phase untraced;
  double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  RunEpisodes(plans, untraced_seconds, nullptr, &untraced, &report);

  report.Note("evolve: " + std::to_string(sizes.schemas) + " schemas x " +
              std::to_string(sizes.types) + " types, " +
              std::to_string(derivations) + " screened derivations, " +
              std::to_string(untraced.round_rate.size()) + " rounds");
  report.NoteLatency("derive_ms", untraced.derive.Pooled(), kTail, 1e6, "ms");
  report.NoteLatency("drop_ms", untraced.drop.Pooled(), kTail, 1e6, "ms");
  report.NoteLatency("collapse_ms", untraced.collapse.Pooled(), kTail, 1e6,
                     "ms");
  std::vector<double> rate;
  for (size_t r = 0; r < untraced.round_rate.size(); ++r)
    rate.push_back(untraced.round_rate[r] / untraced.speed.TimeFactor(r));
  double mutations_per_s = Median(rate);
  char factor[200];
  std::snprintf(factor, sizeof factor,
                "host speed factor %.3f: end-to-end times are raw times x "
                "factor (raw mutations_per_s %.2f)",
                untraced.speed.MeanFactor(), Median(untraced.round_rate));
  report.Note(factor);

  report.E2e("setup_s", Median(setup_s), "s");
  report.E2e("rss_peak_mb", PeakRssMb(), "MB");
  report.E2e("throughput_per_s", mutations_per_s, "1/s");
  report.E2e("primary_p50_us", untraced.derive.Percentile(0.5, &untraced.speed) / 1e3,
             "us");
  report.E2e("primary_tail_us",
             untraced.derive.Percentile(kTail, &untraced.speed) / 1e3, "us");
  report.E2e("secondary_p50_us", untraced.drop.Percentile(0.5, &untraced.speed) / 1e3,
             "us");
  report.E2e("secondary_tail_us",
             untraced.drop.Percentile(kTail, &untraced.speed) / 1e3, "us");
  report.E2e("tertiary_p50_us",
             untraced.collapse.Percentile(0.5, &untraced.speed) / 1e3, "us");

  if (!options.trace) return report;

  SpanLog log;
  Phase traced;
  RegistryDelta delta;
  delta.Begin();
  RunEpisodes(plans, options.seconds / 2, &log, &traced, &report);
  delta.End();

  const SpanStats& pipeline = log.Get("DeriveProjection");
  double derives = static_cast<double>(pipeline.count);
  auto self_per_derive = [&](const char* span) {
    return Ratio(log.Get(span).self_ns, derives);
  };
  double ops = static_cast<double>(traced.mutations);
  report.Layer("error_frac", Ratio(report.failed, report.attempted), "frac");
  report.Layer("catalog.define_p50_ns", traced.derive.Percentile(0.5),
               "ns");
  report.Layer("catalog.define_tail_ns",
               traced.derive.Percentile(kTail), "ns");
  report.Layer("catalog.drop_p50_ns", traced.drop.Percentile(0.5),
               "ns");
  report.Layer("catalog.collapse_p50_ns",
               traced.collapse.Percentile(0.5), "ns");
  report.Layer("catalog.refused_frac",
               Ratio(screening.refused_internal + screening.refused_other,
                     screening.attempted),
               "frac");
  report.Layer("catalog.refused_internal", screening.refused_internal, "count");
  report.Layer("catalog.refused_other", screening.refused_other, "count");
  report.Layer("core.derive_self_ns", self_per_derive("DeriveProjection"), "ns");
  report.Layer("core.is_applicable_self_ns", self_per_derive("IsApplicable"),
               "ns");
  report.Layer("core.factor_state_self_ns", self_per_derive("FactorState"),
               "ns");
  report.Layer("core.augment_self_ns", self_per_derive("Augment"), "ns");
  report.Layer("core.factor_methods_self_ns", self_per_derive("FactorMethods"),
               "ns");
  report.Layer("core.verify_self_ns", self_per_derive("Verify"), "ns");
  report.Layer("core.verify_share",
               Ratio(log.Get("Verify").self_ns, pipeline.total_ns), "frac");
  report.Layer("core.rollback_ns",
               static_cast<double>(delta.Hist("projection.rollback_ns").p50),
               "ns");
  report.Layer("core.verify_probes_per_derive",
               Ratio(delta.Counter("verify.dispatch_probes"), derives), "count");
  report.Layer("core.method_checks_per_derive",
               Ratio(delta.Counter("applicability.method_checks"), derives),
               "count");
  report.Layer("mir.dataflow_analyses_per_derive",
               Ratio(delta.Counter("dataflow.analyses"), derives), "count");
  double cg_hit = delta.Counter("callgraph.cache_hit");
  report.Layer("mir.callgraph_hit_ratio",
               Ratio(cg_hit, cg_hit + delta.Counter("callgraph.cache_miss")),
               "frac");
  report.Layer("objmodel.types_live",
               Ratio(traced.types_live_sum, traced.episodes), "count");
  report.Layer("objmodel.closure_invalidations_per_op",
               Ratio(delta.Counter("subtype.cache_invalidations"), ops),
               "count");
  double overhead = Ratio(traced.timed_ns / ops,
                          untraced.timed_ns / static_cast<double>(
                                                  untraced.mutations));
  report.Layer("obs.trace_overhead", overhead, "ratio");

  char line[256];
  std::snprintf(line, sizeof line,
                "traced: Verify self %.1f%% of DeriveProjection time; "
                "IsApplicable+FactorState+Augment+FactorMethods %.2f%%",
                100 * Ratio(log.Get("Verify").self_ns, pipeline.total_ns),
                100 * Ratio(log.Get("IsApplicable").self_ns +
                                log.Get("FactorState").self_ns +
                                log.Get("Augment").self_ns +
                                log.Get("FactorMethods").self_ns,
                            pipeline.total_ns));
  report.Note(line);
  if (!options.trace_out.empty() && !log.Write(options.trace_out))
    report.Note("could not write " + options.trace_out);
  return report;
}

}  // namespace repobench
