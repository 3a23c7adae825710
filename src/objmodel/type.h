// Type: a node of the type hierarchy (paper Section 2). A type has a name,
// local attributes, and an *ordered* list of direct supertypes — the order is
// the inheritance precedence relation (index 0 = highest precedence). The
// refactoring algorithms of Sections 5–6 spin off *surrogate* types; a
// surrogate remembers its source type and the derivation it belongs to.

#ifndef TYDER_OBJMODEL_TYPE_H_
#define TYDER_OBJMODEL_TYPE_H_

#include <cstddef>
#include <vector>

#include "common/symbol.h"
#include "objmodel/attribute.h"

namespace tyder {

enum class TypeKind {
  kBuiltin,    // Object, Int, Float, String, Bool, Date, Void
  kUser,       // declared by the schema author
  kSurrogate,  // created by FactorState / Augment (includes derived view types)
};

class Type {
 public:
  Type(Symbol name, TypeKind kind) : name_(name), kind_(kind) {}

  Symbol name() const { return name_; }
  TypeKind kind() const { return kind_; }
  bool is_surrogate() const { return kind_ == TypeKind::kSurrogate; }

  // Direct supertypes in precedence order (front = highest precedence).
  const std::vector<TypeId>& supertypes() const { return supertypes_; }
  // Appends a supertype with lowest precedence.
  void AppendSupertype(TypeId t) { supertypes_.push_back(t); }
  // Inserts a supertype with highest precedence (used for surrogates, Sec 5).
  void PrependSupertype(TypeId t) { supertypes_.insert(supertypes_.begin(), t); }
  // Inserts a supertype at precedence rank `rank` (0 = highest). Ranks past
  // the end append.
  void InsertSupertypeAt(size_t rank, TypeId t);
  bool HasDirectSupertype(TypeId t) const;
  // Removes the first occurrence of `t` from the supertype list; returns
  // whether it was present.
  bool RemoveSupertype(TypeId t);

  // Locally defined attributes, in declaration order.
  const std::vector<AttrId>& local_attributes() const { return local_attrs_; }
  void AddLocalAttribute(AttrId a) { local_attrs_.push_back(a); }
  bool RemoveLocalAttribute(AttrId a);

  // Source type this surrogate was spun off from (kInvalidType otherwise).
  TypeId surrogate_source() const { return surrogate_source_; }
  void set_surrogate_source(TypeId t) { surrogate_source_ = t; }

  // Detached types have been spliced out of the hierarchy (empty-surrogate
  // collapse); they keep their id but participate in nothing.
  bool detached() const { return detached_; }
  void set_detached(bool detached) { detached_ = detached; }

 private:
  Symbol name_;
  TypeKind kind_;
  std::vector<TypeId> supertypes_;
  std::vector<AttrId> local_attrs_;
  TypeId surrogate_source_ = kInvalidType;
  bool detached_ = false;
};

}  // namespace tyder

#endif  // TYDER_OBJMODEL_TYPE_H_
