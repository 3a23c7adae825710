#include "methods/schema.h"

namespace tyder {

Result<Schema> Schema::Create() {
  Schema schema;
  TYDER_ASSIGN_OR_RETURN(schema.builtins_, InstallBuiltins(schema.types_));
  return schema;
}

Result<GfId> Schema::DeclareGenericFunction(std::string_view name, int arity) {
  if (arity <= 0) {
    return Status::InvalidArgument("generic function '" + std::string(name) +
                                   "' must have positive arity");
  }
  Symbol sym = Symbol::Intern(name);
  if (gf_index_->count(sym) > 0) {
    return Status::AlreadyExists("generic function '" + std::string(name) +
                                 "' already declared");
  }
  GfId id = static_cast<GfId>(NumGenericFunctions());
  gfs_.Mutable().push_back(GenericFunction{sym, arity, {}});
  gf_index_.Mutable().emplace(sym, id);
  ++version_;
  return id;
}

Result<GfId> Schema::FindOrDeclareGenericFunction(std::string_view name,
                                                  int arity) {
  Symbol sym = Symbol::Intern(name);
  auto it = gf_index_->find(sym);
  if (it == gf_index_->end()) return DeclareGenericFunction(name, arity);
  if (gf(it->second).arity != arity) {
    return Status::InvalidArgument(
        "generic function '" + std::string(name) + "' has arity " +
        std::to_string(gf(it->second).arity) + ", not " +
        std::to_string(arity));
  }
  return it->second;
}

Result<GfId> Schema::FindGenericFunction(std::string_view name) const {
  auto it = gf_index_->find(Symbol::Intern(name));
  if (it == gf_index_->end()) {
    return Status::NotFound("no generic function named '" + std::string(name) +
                            "'");
  }
  return it->second;
}

Result<MethodId> Schema::AddMethod(Method m) {
  if (m.gf >= NumGenericFunctions()) {
    return Status::InvalidArgument("method references unknown generic function");
  }
  const GenericFunction& owner = gf(m.gf);
  if (static_cast<int>(m.sig.params.size()) != owner.arity) {
    return Status::InvalidArgument(
        "method '" + m.label.str() + "' has " +
        std::to_string(m.sig.params.size()) + " formals but '" +
        owner.name.str() + "' has arity " + std::to_string(owner.arity));
  }
  if (m.label.empty() || method_index_->count(m.label) > 0) {
    return Status::AlreadyExists("method label '" + m.label.str() +
                                 "' missing or already in use");
  }
  for (TypeId t : m.sig.params) {
    if (t >= types_.NumTypes()) {
      return Status::InvalidArgument("method '" + m.label.str() +
                                     "' references out-of-range formal type");
    }
  }
  if (!m.param_names.empty() &&
      m.param_names.size() != m.sig.params.size()) {
    return Status::InvalidArgument("method '" + m.label.str() +
                                   "' parameter-name count mismatch");
  }
  // Methods with identical formals are permitted (the paper's u1(A)/u2(A));
  // dispatch breaks the tie by registration order, the model's method
  // precedence mechanism.
  if (m.kind == MethodKind::kReader || m.kind == MethodKind::kMutator) {
    if (m.attr == kInvalidAttr || m.attr >= types_.NumAttributes()) {
      return Status::InvalidArgument("accessor '" + m.label.str() +
                                     "' has no attribute");
    }
    const AttributeDef& attr = types_.attribute(m.attr);
    size_t want_arity = m.kind == MethodKind::kReader ? 1 : 2;
    if (m.sig.params.size() != want_arity) {
      return Status::InvalidArgument("accessor '" + m.label.str() +
                                     "' has wrong arity");
    }
    if (!types_.AttributeAvailableAt(m.sig.params[0], m.attr)) {
      return Status::InvalidArgument(
          "accessor '" + m.label.str() + "': attribute '" + attr.name.str() +
          "' is not available at '" + types_.TypeName(m.sig.params[0]) + "'");
    }
    if (m.kind == MethodKind::kReader && m.sig.result != attr.value_type) {
      return Status::InvalidArgument("reader '" + m.label.str() +
                                     "' result type must match attribute");
    }
    if (m.kind == MethodKind::kMutator &&
        (m.sig.params[1] != attr.value_type ||
         m.sig.result != builtins_.void_type)) {
      return Status::InvalidArgument("mutator '" + m.label.str() +
                                     "' must be (T, V) -> Void");
    }
    if (m.body != nullptr) {
      return Status::InvalidArgument("accessor '" + m.label.str() +
                                     "' must not have a body");
    }
  }
  // Validated: the writes start here, and clone only the tables they touch.
  MethodId id = static_cast<MethodId>(NumMethods());
  if (m.kind == MethodKind::kReader) readers_.Mutable().emplace(m.attr, id);
  if (m.kind == MethodKind::kMutator) mutators_.Mutable().emplace(m.attr, id);
  gfs_.Mutable()[m.gf].methods.push_back(id);
  method_index_.Mutable().emplace(m.label, id);
  methods_.Mutable().push_back(std::make_shared<const Method>(std::move(m)));
  ++version_;
  return id;
}

void Schema::ReplaceMethod(MethodId id, Method edited) {
  ++version_;
  methods_.Mutable()[id] = std::make_shared<const Method>(std::move(edited));
}

Result<MethodId> Schema::FindMethod(std::string_view label) const {
  auto it = method_index_->find(Symbol::Intern(label));
  if (it == method_index_->end()) {
    return Status::NotFound("no method labeled '" + std::string(label) + "'");
  }
  return it->second;
}

MethodId Schema::ReaderOf(AttrId attr) const {
  auto it = readers_->find(attr);
  return it == readers_->end() ? kInvalidMethod : it->second;
}

MethodId Schema::MutatorOf(AttrId attr) const {
  auto it = mutators_->find(attr);
  return it == mutators_->end() ? kInvalidMethod : it->second;
}

std::vector<TypeId> Schema::RemoveTypes(const std::vector<bool>& removed) {
  std::vector<TypeId> new_id = types_.RemoveTypes(removed);
  // Ids outside the old table stay as they are: AddMethod range-checks
  // only formals, so a result type or a body declaration can hold one.
  auto renumber = [&new_id](TypeId t) {
    return t < new_id.size() ? new_id[t] : t;
  };
  auto renumber_decl = [&renumber](const ExprPtr& e) -> ExprPtr {
    if (e->kind != ExprKind::kDecl || renumber(e->decl_type) == e->decl_type) {
      return e;
    }
    auto copy = std::make_shared<Expr>(*e);
    copy->decl_type = renumber(e->decl_type);
    return copy;
  };
  for (std::shared_ptr<const Method>& entry : methods_.Mutable()) {
    Method m = *entry;
    for (TypeId& t : m.sig.params) t = renumber(t);
    m.sig.result = renumber(m.sig.result);
    if (m.body != nullptr) m.body = RewriteBottomUp(m.body, renumber_decl);
    entry = std::make_shared<const Method>(std::move(m));
  }
  ++version_;
  return new_id;
}

Status Schema::Validate() const {
  TYDER_RETURN_IF_ERROR(types_.Validate());
  for (GfId g = 0; g < NumGenericFunctions(); ++g) {
    for (MethodId m : gf(g).methods) {
      if (m >= NumMethods() || method(m).gf != g) {
        return Status::Internal("generic function '" + gf(g).name.str() +
                                "' lists a method it does not own");
      }
    }
  }
  for (MethodId id = 0; id < NumMethods(); ++id) {
    const Method& m = method(id);
    if (m.gf >= NumGenericFunctions()) {
      return Status::Internal("method '" + m.label.str() + "' has bad gf id");
    }
    if (static_cast<int>(m.sig.params.size()) != gf(m.gf).arity) {
      return Status::Internal("method '" + m.label.str() +
                              "' arity drifted from its generic function");
    }
    if (m.kind != MethodKind::kGeneral) {
      if (m.attr >= types_.NumAttributes()) {
        return Status::Internal("accessor '" + m.label.str() +
                                "' has bad attribute id");
      }
      if (!types_.AttributeAvailableAt(m.sig.params[0], m.attr)) {
        return Status::Internal(
            "accessor '" + m.label.str() +
            "': attribute no longer available at its formal type");
      }
    }
  }
  return Status::OK();
}

}  // namespace tyder
