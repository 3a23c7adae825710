#include "core/factor_state.h"

#include <algorithm>
#include <limits>

#include "common/failpoint.h"
#include "obs/tracer.h"

namespace tyder {

namespace {

std::string AttrSetToString(const Schema& schema, const std::set<AttrId>& a) {
  std::vector<std::string> names;
  for (AttrId id : a) names.push_back(schema.types().attribute(id).name.str());
  std::sort(names.begin(), names.end());
  std::string out = "{";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    out += names[i];
  }
  out += "}";
  return out;
}

class Factorizer {
 public:
  Factorizer(Schema& schema, std::string_view view_name,
             SurrogateSet* surrogates, std::vector<std::string>* trace)
      : schema_(schema),
        view_name_(view_name),
        surrogates_(surrogates),
        trace_(trace) {}

  // The paper's FactorState(A, T, h, P). `h` is the caller's surrogate
  // (kInvalidType at top level), `rank` its precedence for the new edge.
  Result<TypeId> Run(const std::set<AttrId>& attrs, TypeId t, TypeId h,
                     int rank) {
    Trace("FactorState(" + AttrSetToString(schema_, attrs) + ", " +
          schema_.types().TypeName(t) + ", " +
          (h == kInvalidType ? std::string("-")
                             : schema_.types().TypeName(h)) +
          ", " + std::to_string(rank) + ")");

    // Idempotent re-factoring: an earlier projection of the same attribute
    // set left a surrogate directly above t whose cumulative state is exactly
    // `attrs`. Hang this derivation off that structure instead of factoring a
    // fresh copy — re-surrogating the already-factored region doubles the
    // type graph on every repetition of the same projection.
    if (surrogates_->Of(t) == kInvalidType) {
      TypeId reusable = ExactSurrogateAbove(t, attrs);
      if (reusable != kInvalidType) {
        if (h == kInvalidType) {
          // The top level still owes the caller a named view type.
          TYDER_ASSIGN_OR_RETURN(TypeId view, CreateSurrogate(t));
          InsertSupertypeRanked(schema_, surrogates_, view, reusable, 0);
          Trace("reuse " + schema_.types().TypeName(reusable) +
                " [already factors " + AttrSetToString(schema_, attrs) + "]");
          return view;
        }
        if (!schema_.types().type(h).HasDirectSupertype(reusable)) {
          InsertSupertypeRanked(schema_, surrogates_, h, reusable, rank);
        }
        Trace("reuse " + schema_.types().TypeName(reusable) +
              " [already factors " + AttrSetToString(schema_, attrs) + "]");
        return reusable;
      }
    }

    bool created = false;
    TypeId surrogate = surrogates_->Of(t);
    if (surrogate == kInvalidType) {
      TYDER_ASSIGN_OR_RETURN(surrogate, CreateSurrogate(t));
      created = true;
    }
    // Mid-recursion failure site: surrogates partially created, attributes
    // partially moved — the worst possible place to abandon the schema.
    TYDER_FAULT_POINT("factor_state.mid");
    if (h != kInvalidType &&
        !schema_.types().type(h).HasDirectSupertype(surrogate)) {
      InsertSupertypeRanked(schema_, surrogates_, h, surrogate, rank);
      Trace("make " + schema_.types().TypeName(surrogate) +
            " a supertype of " + schema_.types().TypeName(h) +
            " with precedence " + std::to_string(rank));
    }
    if (!created) return surrogate;

    // Move the projected local attributes of t onto the surrogate.
    std::vector<AttrId> local = schema_.types().type(t).local_attributes();
    for (AttrId a : local) {
      if (attrs.count(a) == 0) continue;
      TYDER_RETURN_IF_ERROR(schema_.types().MoveAttribute(a, surrogate));
      Trace("move " + schema_.types().attribute(a).name.str() + " to " +
            schema_.types().TypeName(surrogate));
    }

    // Recurse into the supertypes (other than the fresh surrogate, which sits
    // at rank 0) that still hold projected attributes, in precedence order.
    // The rank passed down is the supertype's position in t's current list,
    // which matches the paper's numbering (surrogate = 0, originals 1, 2, …).
    std::vector<TypeId> supers = schema_.types().type(t).supertypes();
    for (size_t i = 0; i < supers.size(); ++i) {
      TypeId s = supers[i];
      if (s == surrogate) continue;
      std::set<AttrId> available;
      for (AttrId a : attrs) {
        if (schema_.types().AttributeAvailableAt(s, a)) available.insert(a);
      }
      if (available.empty()) continue;
      TYDER_RETURN_IF_ERROR(
          Run(available, s, surrogate, static_cast<int>(i)).status());
    }
    return surrogate;
  }

 private:
  void Trace(std::string line) { obs::Narrate(trace_, std::move(line)); }

  // A direct supertype of t (from an earlier factoring) whose cumulative
  // attributes are exactly `attrs`, or kInvalidType. Only surrogate-kind
  // types qualify so first-time factorings over author-declared hierarchies
  // are never rerouted.
  TypeId ExactSurrogateAbove(TypeId t, const std::set<AttrId>& attrs) const {
    for (TypeId s : schema_.types().type(t).supertypes()) {
      if (schema_.types().type(s).kind() != TypeKind::kSurrogate) continue;
      std::vector<AttrId> cumulative = schema_.types().CumulativeAttributes(s);
      if (cumulative.size() != attrs.size()) continue;
      if (std::set<AttrId>(cumulative.begin(), cumulative.end()) == attrs) {
        return s;
      }
    }
    return kInvalidType;
  }

  Result<TypeId> CreateSurrogate(TypeId t) {
    std::string name;
    if (surrogates_->created.empty() && !view_name_.empty()) {
      name = std::string(view_name_);  // the derived type itself
    } else {
      name = UniqueSurrogateName(schema_.types(), schema_.types().TypeName(t));
    }
    TYDER_ASSIGN_OR_RETURN(TypeId surrogate,
                           schema_.types().DeclareSurrogate(name, t));
    // The source becomes a direct subtype of its surrogate at highest
    // precedence — this is what makes the split transparent.
    schema_.types().mutable_type(t).PrependSupertype(surrogate);
    surrogates_->of.emplace(t, surrogate);
    surrogates_->created.push_back(surrogate);
    Trace("create " + name + " [surrogate of " + schema_.types().TypeName(t) +
          "]");
    return surrogate;
  }

  Schema& schema_;
  std::string_view view_name_;
  SurrogateSet* surrogates_;
  std::vector<std::string>* trace_;
};

}  // namespace

void InsertSupertypeRanked(Schema& schema, SurrogateSet* surrogates,
                           TypeId sub_surrogate, TypeId super_surrogate,
                           int rank) {
  Type& sub = schema.types().mutable_type(sub_surrogate);
  const std::vector<TypeId>& supers = sub.supertypes();
  size_t pos = 0;
  while (pos < supers.size()) {
    auto it = surrogates->edge_rank.find({sub_surrogate, supers[pos]});
    int existing = it == surrogates->edge_rank.end()
                       ? std::numeric_limits<int>::max()
                       : it->second;
    if (existing > rank) break;
    ++pos;
  }
  sub.InsertSupertypeAt(pos, super_surrogate);
  surrogates->edge_rank[{sub_surrogate, super_surrogate}] = rank;
}

std::string UniqueSurrogateName(const TypeGraph& graph, std::string_view base) {
  std::string name = "~" + std::string(base);
  if (!graph.FindType(name).ok()) return name;
  for (int i = 2;; ++i) {
    std::string candidate = name + "#" + std::to_string(i);
    if (!graph.FindType(candidate).ok()) return candidate;
  }
}

Result<TypeId> FactorState(Schema& schema, TypeId source,
                           const std::set<AttrId>& projection,
                           std::string_view view_name, SurrogateSet* surrogates,
                           std::vector<std::string>* trace) {
  TYDER_FAULT_POINT("factor_state.before");
  if (source >= schema.types().NumTypes()) {
    return Status::InvalidArgument("source type id out of range");
  }
  if (projection.empty()) {
    return Status::InvalidArgument("projection list must be non-empty");
  }
  for (AttrId a : projection) {
    if (a >= schema.types().NumAttributes() ||
        !schema.types().AttributeAvailableAt(source, a)) {
      return Status::InvalidArgument(
          "projection attribute not available at source type");
    }
  }
  return Factorizer(schema, view_name, surrogates, trace)
      .Run(projection, source, kInvalidType, 0);
}

}  // namespace tyder
