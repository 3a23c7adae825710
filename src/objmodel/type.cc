#include "objmodel/type.h"

#include <algorithm>

namespace tyder {

void Type::InsertSupertypeAt(size_t rank, TypeId t) {
  if (rank >= supertypes_.size()) {
    supertypes_.push_back(t);
  } else {
    supertypes_.insert(supertypes_.begin() + static_cast<ptrdiff_t>(rank), t);
  }
}

bool Type::HasDirectSupertype(TypeId t) const {
  return std::find(supertypes_.begin(), supertypes_.end(), t) !=
         supertypes_.end();
}

bool Type::RemoveSupertype(TypeId t) {
  auto it = std::find(supertypes_.begin(), supertypes_.end(), t);
  if (it == supertypes_.end()) return false;
  supertypes_.erase(it);
  return true;
}

void Type::RenumberSupertypes(const std::vector<TypeId>& new_id) {
  for (TypeId& s : supertypes_) s = new_id[s];
}

bool Type::RemoveLocalAttribute(AttrId a) {
  auto it = std::find(local_attrs_.begin(), local_attrs_.end(), a);
  if (it == local_attrs_.end()) return false;
  local_attrs_.erase(it);
  return true;
}

}  // namespace tyder
