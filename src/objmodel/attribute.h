// Attributes: the state components of object types (paper Section 2). An
// attribute has a globally unique name (a paper simplification we enforce),
// a value type, and an owner — the type at which it is locally defined.
// Subtypes inherit attributes; diamond inheritance yields one copy.

#ifndef TYDER_OBJMODEL_ATTRIBUTE_H_
#define TYDER_OBJMODEL_ATTRIBUTE_H_

#include "common/ids.h"
#include "common/symbol.h"

namespace tyder {

struct AttributeDef {
  Symbol name;
  TypeId value_type = kInvalidType;
  // The type at which the attribute is locally defined. FactorState moves
  // attributes between a type and its surrogate by re-homing the owner.
  TypeId owner = kInvalidType;
};

}  // namespace tyder

#endif  // TYDER_OBJMODEL_ATTRIBUTE_H_
