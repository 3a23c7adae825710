// Method: one implementation of a generic function (paper Section 2).
// Methods are either accessors — readers return an attribute's value,
// mutators overwrite it; they are the only access path to state — or
// general methods with a MIR body that may invoke other generic functions.

#ifndef TYDER_METHODS_METHOD_H_
#define TYDER_METHODS_METHOD_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/symbol.h"
#include "methods/signature.h"
#include "mir/expr.h"

namespace tyder {

enum class MethodKind {
  kGeneral,
  kReader,   // unary: (T) -> value type of the attribute
  kMutator,  // binary: (T, V) -> Void
};

struct Method {
  // Display label, unique within a schema ("v1", "get_SSN", ...). The paper
  // names methods with subscripts on the generic-function name.
  Symbol label;
  GfId gf = kInvalidGf;
  MethodKind kind = MethodKind::kGeneral;
  Signature sig;
  // Accessors: the attribute accessed. kInvalidAttr for general methods.
  AttrId attr = kInvalidAttr;
  // General methods: the body; accessors have builtin behavior and no body.
  ExprPtr body;
  // Formal parameter names, parallel to sig.params (used by bodies & printing).
  std::vector<Symbol> param_names;
};

}  // namespace tyder

#endif  // TYDER_METHODS_METHOD_H_
