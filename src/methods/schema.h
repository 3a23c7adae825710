// Schema: the complete unit the derivation algorithms operate on — a type
// hierarchy plus the generic functions and methods defined over it. Schemas
// are value types: copying one snapshots it, which is how the
// behavior-preservation verifier compares the hierarchy before and after a
// projection. A copy shares every table with the original — the type graph's
// four and the method table, the generic-function table and their four
// indexes here (common/cow.h) — so it costs ten reference counts; each
// mutator clones only the tables it writes, on its first write after a copy.
// The method table's entries are immutable and shared too: cloning it copies
// pointers, and a method write replaces one entry with an edited copy.
// A reference from method(), gf() or the type graph's accessors must not be
// held across a mutator: that first write moves the live table.

#ifndef TYDER_METHODS_SCHEMA_H_
#define TYDER_METHODS_SCHEMA_H_

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "common/status.h"
#include "methods/dispatch_index.h"
#include "methods/generic_function.h"
#include "methods/method.h"
#include "objmodel/builtin_types.h"
#include "objmodel/type_graph.h"

namespace tyder {

class Schema {
 public:
  // Builds an empty schema with the builtin types installed. A
  // default-constructed Schema has no builtins and exists only as a
  // moved-into target; always start from Create().
  Schema() = default;
  static Result<Schema> Create();

  TypeGraph& types() { return types_; }
  const TypeGraph& types() const { return types_; }
  const BuiltinTypes& builtins() const { return builtins_; }

  // --- generic functions ---------------------------------------------------

  // Declares generic function `name` with the given arity; fails on duplicate
  // name or non-positive arity.
  Result<GfId> DeclareGenericFunction(std::string_view name, int arity);

  // Finds `name`, declaring it with `arity` if absent; fails if it exists
  // with a different arity.
  Result<GfId> FindOrDeclareGenericFunction(std::string_view name, int arity);

  Result<GfId> FindGenericFunction(std::string_view name) const;

  size_t NumGenericFunctions() const { return gfs_->size(); }
  const GenericFunction& gf(GfId id) const { return (*gfs_)[id]; }

  // --- methods ---------------------------------------------------------------

  // Registers `m` under its generic function. Validates: gf exists, arity
  // matches, label unique, accessor shape (reader (T)->V, mutator (T,V)->Void,
  // attribute available at the formal type), duplicate signatures rejected.
  Result<MethodId> AddMethod(Method m);

  size_t NumMethods() const { return methods_->size(); }
  const Method& method(MethodId id) const { return *(*methods_)[id]; }
  Result<MethodId> FindMethod(std::string_view label) const;

  // FactorMethods rewrites signatures/bodies; these are the only mutators of
  // a registered method.
  void SetMethodSignature(MethodId id, Signature sig) {
    Method edited = method(id);
    edited.sig = std::move(sig);
    ReplaceMethod(id, std::move(edited));
  }
  void SetMethodBody(MethodId id, ExprPtr body) {
    Method edited = method(id);
    edited.body = std::move(body);
    ReplaceMethod(id, std::move(edited));
  }

  // Registered reader/mutator for an attribute (kInvalidMethod if none).
  MethodId ReaderOf(AttrId attr) const;
  MethodId MutatorOf(AttrId attr) const;

  // Deletes every type t with removed[t] set and renumbers the others in
  // their old order (TypeGraph::RemoveTypes), rewriting method signatures
  // and body declarations to the new ids. No signature or declaration may
  // mention a deleted type, and no builtin may be deleted: builtins hold the
  // lowest ids, so theirs stand. Returns each old id's new id, kInvalidType
  // for a deleted type.
  std::vector<TypeId> RemoveTypes(const std::vector<bool>& removed);

  // Cross-checks the whole schema: type graph validity plus method/gf index
  // consistency and accessor well-formedness.
  Status Validate() const;

  // --- derived-structure caching --------------------------------------------

  // Monotone mutation counter covering both the method/gf tables (local
  // bumps) and the type hierarchy (TypeGraph::version). The dispatch index
  // keys its validity on this value, so any schema mutation invalidates it
  // on the next read; the catalog's op log records it to detect edits made
  // outside the log.
  uint64_t version() const { return version_ + types_.version(); }

  // Where the lazily built dispatch index lives. It is owned here so it
  // shares the schema's lifetime and copy semantics (copies and rollback
  // targets start cold); its content type lives with the code that builds
  // it (methods/dispatch_index.cc).
  DispatchIndexSlot& dispatch_index_slot() const {
    return dispatch_index_slot_;
  }

 private:
  // Entries may be shared with other schemas, so a write replaces one.
  void ReplaceMethod(MethodId id, Method edited);

  TypeGraph types_;
  BuiltinTypes builtins_;
  // The tables, shared copy-on-write between copies of the schema.
  CowTable<std::vector<GenericFunction>> gfs_;
  CowTable<std::vector<std::shared_ptr<const Method>>> methods_;
  CowTable<std::unordered_map<Symbol, GfId, SymbolHash>> gf_index_;
  CowTable<std::unordered_map<Symbol, MethodId, SymbolHash>> method_index_;
  CowTable<std::unordered_map<AttrId, MethodId>> readers_;
  CowTable<std::unordered_map<AttrId, MethodId>> mutators_;

  uint64_t version_ = 0;
  mutable DispatchIndexSlot dispatch_index_slot_;
};

}  // namespace tyder

#endif  // TYDER_METHODS_SCHEMA_H_
