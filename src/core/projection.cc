#include "core/projection.h"

#include <optional>

#include "common/failpoint.h"
#include "core/augment.h"
#include "core/transaction.h"
#include "core/verify.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace tyder {

namespace {

Status ValidateSpec(const Schema& schema, const ProjectionSpec& spec) {
  const TypeGraph& graph = schema.types();
  if (spec.source >= graph.NumTypes()) {
    return Status::InvalidArgument("projection source type out of range");
  }
  if (graph.type(spec.source).kind() == TypeKind::kBuiltin) {
    return Status::InvalidArgument("cannot project over builtin type '" +
                                   graph.TypeName(spec.source) + "'");
  }
  if (spec.attributes.empty()) {
    return Status::InvalidArgument("projection list must be non-empty");
  }
  std::set<AttrId> seen;
  for (AttrId a : spec.attributes) {
    if (a >= graph.NumAttributes()) {
      return Status::InvalidArgument("projection attribute id out of range");
    }
    if (!seen.insert(a).second) {
      return Status::InvalidArgument("duplicate projection attribute '" +
                                     graph.attribute(a).name.str() + "'");
    }
    if (!graph.AttributeAvailableAt(spec.source, a)) {
      return Status::InvalidArgument(
          "attribute '" + graph.attribute(a).name.str() +
          "' is not available at '" + graph.TypeName(spec.source) + "'");
    }
  }
  if (spec.view_name.empty()) {
    return Status::InvalidArgument("view name must be non-empty");
  }
  if (graph.FindType(spec.view_name).ok()) {
    return Status::AlreadyExists("a type named '" + spec.view_name +
                                 "' already exists");
  }
  return Status::OK();
}

}  // namespace

namespace {

// `snapshot` is the enclosing transaction's pre-derivation copy; the verifier
// compares against it, so the pipeline itself never copies the schema.
Result<DerivationResult> RunPipeline(Schema& schema, const Schema& snapshot,
                                     const ProjectionSpec& spec,
                                     const ProjectionOptions& options) {
  std::set<AttrId> projection(spec.attributes.begin(), spec.attributes.end());

  DerivationResult result;
  result.spec = spec;

  obs::ScopedSpan pipeline("DeriveProjection");
  pipeline.Attr("source", schema.types().TypeName(spec.source));
  pipeline.Attr("view", spec.view_name);
  pipeline.Attr("attributes", std::to_string(spec.attributes.size()));

  // 1. Method applicability (Section 4.1) — on the unmodified schema. The
  //    narration reaches the tracer; the structured channel supersedes
  //    ApplicabilityResult::trace here.
  {
    obs::ScopedSpan span("IsApplicable");
    TYDER_ASSIGN_OR_RETURN(
        result.applicability,
        ComputeApplicableMethods(schema, spec.source, projection,
                                 /*record_trace=*/false));
    span.Attr("applicable",
              std::to_string(result.applicability.applicable.size()));
    span.Attr("not_applicable",
              std::to_string(result.applicability.not_applicable.size()));
  }

  // 2. State factorization (Section 5.1).
  {
    obs::ScopedSpan span("FactorState");
    TYDER_ASSIGN_OR_RETURN(
        result.derived,
        FactorState(schema, spec.source, projection, spec.view_name,
                    &result.surrogates, nullptr));
    span.Attr("surrogates", std::to_string(result.surrogates.created.size()));
  }

  // 3. Hierarchy augmentation (Sections 6.3–6.4) — Z from def-use analysis
  //    of the original bodies.
  {
    obs::ScopedSpan span("Augment");
    TYDER_ASSIGN_OR_RETURN(
        result.augment_z,
        ComputeAugmentSet(schema, spec.source, result.applicability.applicable,
                          result.surrogates));
    TYDER_FAULT_POINT("augment.after_compute");
    TYDER_RETURN_IF_ERROR(Augment(schema, spec.source, result.augment_z,
                                  &result.surrogates, nullptr));
    span.Attr("z", std::to_string(result.augment_z.size()));
  }

  // 4. Method factorization (Section 6.1) with body retyping (Section 6.3).
  {
    obs::ScopedSpan span("FactorMethods");
    TYDER_ASSIGN_OR_RETURN(
        result.rewrites,
        FactorMethods(schema, spec.source, result.applicability.applicable,
                      result.surrogates, nullptr));
    span.Attr("rewrites", std::to_string(result.rewrites.size()));
  }

  // 5. Behavior preservation. A rejection here (or any earlier failure) is
  //    rolled back by the caller's SchemaTransaction.
  if (options.verify) {
    obs::ScopedSpan span("Verify");
    TYDER_FAULT_POINT("verify.before");
    VerifyReport report = VerifyDerivation(snapshot, schema, result);
    if (!report.ok()) {
      return Status::Internal("derivation broke an invariant:\n" +
                              report.ToString());
    }
  }
  return result;
}

}  // namespace

Result<DerivationResult> DeriveProjection(Schema& schema,
                                          const ProjectionSpec& spec,
                                          const ProjectionOptions& options) {
  TYDER_RETURN_IF_ERROR(ValidateSpec(schema, spec));
  TYDER_COUNT("projection.derivations");
  TYDER_TIMED("projection.derive_ns");

  // record_trace maps onto the tracer: install a thread-local one unless the
  // caller already did, run the pipeline under it, then render the legacy
  // string narration from the structured events.
  obs::Tracer local_tracer;
  std::optional<obs::ScopedTracer> install;
  if (options.record_trace && !obs::TracingActive()) {
    install.emplace(&local_tracer);
  }
  obs::Tracer* tracer = obs::CurrentTracer();
  size_t first_event = tracer != nullptr ? tracer->NumEvents() : 0;

  // All-or-nothing: any pipeline failure (including a verify rejection) rolls
  // the schema back to the transaction's snapshot before returning. The same
  // snapshot doubles as the verifier's pre-derivation reference.
  SchemaTransaction txn(schema);
  Result<DerivationResult> result =
      RunPipeline(schema, txn.snapshot(), spec, options);
  if (!result.ok()) return result;
  TYDER_RETURN_IF_ERROR(txn.Commit());
  if (options.record_trace && tracer != nullptr) {
    result->events.assign(tracer->events().begin() + first_event,
                          tracer->events().end());
    result->trace = obs::RenderNarration(result->events);
  }
  return result;
}

Result<DerivationResult> DeriveProjectionByName(
    Schema& schema, std::string_view source_type,
    const std::vector<std::string>& attribute_names, std::string_view view_name,
    const ProjectionOptions& options) {
  ProjectionSpec spec;
  TYDER_ASSIGN_OR_RETURN(spec.source, schema.types().FindType(source_type));
  for (const std::string& name : attribute_names) {
    TYDER_ASSIGN_OR_RETURN(AttrId a, schema.types().FindAttribute(name));
    spec.attributes.push_back(a);
  }
  spec.view_name = std::string(view_name);
  return DeriveProjection(schema, spec, options);
}

}  // namespace tyder
