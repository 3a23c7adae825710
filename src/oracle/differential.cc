#include "oracle/differential.h"

#include <algorithm>
#include <random>
#include <string>

#include "methods/applicability.h"
#include "methods/dispatch.h"
#include "methods/dispatch_index.h"
#include "obs/obs.h"
#include "oracle/reference.h"

namespace tyder::oracle {

namespace {

std::string TypeListNames(const Schema& schema,
                          const std::vector<TypeId>& types) {
  std::string out = "(";
  for (size_t i = 0; i < types.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.types().TypeName(types[i]);
  }
  return out + ")";
}

std::string MethodListNames(const Schema& schema,
                            const std::vector<MethodId>& methods) {
  std::string out = "[";
  for (size_t i = 0; i < methods.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.method(methods[i]).label.str();
  }
  return out + "]";
}

std::string AttrListNames(const Schema& schema,
                          const std::vector<AttrId>& attrs) {
  std::string out = "{";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.types().attribute(attrs[i]).name.str();
  }
  return out + "}";
}

Status Mismatch(std::string message) {
  TYDER_COUNT("oracle.mismatches");
  return Status::Internal("oracle mismatch: " + std::move(message));
}

// Checks every engine path that answers "applicable methods / dispatch order
// for this call" against the reference for one argument tuple.
Status CheckOneCall(const Schema& schema, GfId gf,
                    const std::vector<TypeId>& args) {
  TYDER_COUNT("oracle.dispatch_checks");
  const std::string gf_name = schema.gf(gf).name.str();

  std::vector<MethodId> ref_applicable = RefApplicableMethods(schema, gf, args);
  std::vector<MethodId> direct = ApplicableMethods(schema, gf, args);
  if (direct != ref_applicable) {
    return Mismatch("ApplicableMethods(" + gf_name + TypeListNames(schema, args) +
                    ") = " + MethodListNames(schema, direct) + ", oracle says " +
                    MethodListNames(schema, ref_applicable));
  }
  std::vector<MethodId> indexed =
      DispatchIndex::Of(schema).Applicable(schema, gf, args);
  if (indexed != ref_applicable) {
    return Mismatch("DispatchIndex::Applicable(" + gf_name +
                    TypeListNames(schema, args) + ") = " +
                    MethodListNames(schema, indexed) + ", oracle says " +
                    MethodListNames(schema, ref_applicable));
  }

  std::vector<MethodId> ref_order = RefDispatchOrder(schema, gf, args);
  std::vector<MethodId> order = DispatchOrder(schema, gf, args);
  if (order != ref_order) {
    return Mismatch("DispatchOrder(" + gf_name + TypeListNames(schema, args) +
                    ") = " + MethodListNames(schema, order) + ", oracle says " +
                    MethodListNames(schema, ref_order));
  }

  Result<MethodId> ref_target = RefDispatch(schema, gf, args);
  Result<MethodId> target = Dispatch(schema, gf, args);
  if (target.ok() != ref_target.ok() ||
      (target.ok() && *target != *ref_target)) {
    auto name = [&](const Result<MethodId>& r) {
      return r.ok() ? schema.method(*r).label.str() : std::string("<none>");
    };
    return Mismatch("Dispatch(" + gf_name + TypeListNames(schema, args) +
                    ") = " + name(target) + ", oracle says " + name(ref_target));
  }
  return Status::OK();
}

}  // namespace

Status CheckSubtypeOracle(const Schema& schema) {
  const TypeGraph& graph = schema.types();
  const size_t n = graph.NumTypes();
  TYDER_COUNT_N("oracle.subtype_checks", static_cast<int64_t>(n * n));
  for (TypeId a = 0; a < n; ++a) {
    std::vector<bool> row = RefReachableSet(graph, a);
    for (TypeId b = 0; b < n; ++b) {
      bool engine = graph.IsSubtype(a, b);
      bool ref = row[b];
      if (engine != ref) {
        return Mismatch("IsSubtype(" + graph.TypeName(a) + ", " +
                        graph.TypeName(b) + ") = " +
                        (engine ? "true" : "false") + ", oracle says " +
                        (ref ? "true" : "false"));
      }
    }
  }
  return Status::OK();
}

Status CheckCumulativeStateOracle(const Schema& schema) {
  const TypeGraph& graph = schema.types();
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    TYDER_COUNT("oracle.cumulative_checks");
    std::vector<AttrId> engine = graph.CumulativeAttributes(t);
    std::sort(engine.begin(), engine.end());
    std::vector<AttrId> ref = RefCumulativeState(graph, t);
    if (engine != ref) {
      return Mismatch("CumulativeAttributes(" + graph.TypeName(t) + ") = " +
                      AttrListNames(schema, engine) + ", oracle says " +
                      AttrListNames(schema, ref));
    }
  }
  return Status::OK();
}

Status CheckDispatchOracle(const Schema& schema,
                           const DifferentialOptions& options) {
  const size_t num_types = schema.types().NumTypes();
  if (num_types == 0) return Status::OK();
  std::mt19937 rng(options.seed);
  for (GfId gf = 0; gf < schema.NumGenericFunctions(); ++gf) {
    const int arity = schema.gf(gf).arity;
    size_t tuple_count = 1;
    for (int i = 0; i < arity && tuple_count <= options.exhaustive_tuple_limit;
         ++i) {
      tuple_count *= num_types;
    }
    if (tuple_count <= options.exhaustive_tuple_limit) {
      std::vector<TypeId> args(static_cast<size_t>(arity), 0);
      for (size_t k = 0; k < tuple_count; ++k) {
        size_t rem = k;
        for (int i = 0; i < arity; ++i) {
          args[static_cast<size_t>(i)] = static_cast<TypeId>(rem % num_types);
          rem /= num_types;
        }
        TYDER_RETURN_IF_ERROR(CheckOneCall(schema, gf, args));
      }
    } else {
      std::uniform_int_distribution<size_t> pick(0, num_types - 1);
      for (int s = 0; s < options.tuples_per_gf; ++s) {
        std::vector<TypeId> args;
        for (int i = 0; i < arity; ++i) {
          args.push_back(static_cast<TypeId>(pick(rng)));
        }
        TYDER_RETURN_IF_ERROR(CheckOneCall(schema, gf, args));
      }
    }
  }
  return Status::OK();
}

Status CheckDerivedState(const Schema& schema, TypeId derived,
                         const std::vector<AttrId>& projected) {
  TYDER_COUNT("oracle.derived_state_checks");
  std::vector<AttrId> expected = projected;
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  std::vector<AttrId> actual = RefCumulativeState(schema.types(), derived);
  if (actual != expected) {
    return Mismatch("cumulative state of derived type '" +
                    schema.types().TypeName(derived) + "' is " +
                    AttrListNames(schema, actual) +
                    ", projected attribute set is " +
                    AttrListNames(schema, expected));
  }
  // The engine's own cumulative query must agree as well (checked via the
  // general sweep too, but a derivation-time caller gets the direct answer).
  std::vector<AttrId> engine = schema.types().CumulativeAttributes(derived);
  std::sort(engine.begin(), engine.end());
  if (engine != expected) {
    return Mismatch("engine cumulative state of derived type '" +
                    schema.types().TypeName(derived) + "' is " +
                    AttrListNames(schema, engine) +
                    ", projected attribute set is " +
                    AttrListNames(schema, expected));
  }
  return Status::OK();
}

Status CheckSchemaAgainstOracle(const Schema& schema,
                                const DifferentialOptions& options) {
  TYDER_TIMED("oracle.check_schema_ns");
  TYDER_RETURN_IF_ERROR(CheckSubtypeOracle(schema));
  TYDER_RETURN_IF_ERROR(CheckCumulativeStateOracle(schema));
  TYDER_RETURN_IF_ERROR(CheckDispatchOracle(schema, options));
  return Status::OK();
}

}  // namespace tyder::oracle
