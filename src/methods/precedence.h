// Method precedence (paper Section 4 and ref [2], "Static Type Checking of
// Multi-Methods"). Two pieces:
//
//   1. Class precedence lists: a total order on the supertypes of each type,
//      derived from the local precedence order on direct supertypes via C3
//      linearization (the CLOS-family algorithm). When C3's merge fails —
//      legal in our model, since the paper only requires *some* deterministic
//      ordering mechanism — we fall back to the precedence-respecting BFS
//      order of the supertype closure.
//
//   2. Method specificity: methods applicable to a call are compared
//      left-to-right by argument position; at the first differing formal,
//      the formal that appears earlier in the CPL of the *actual* argument
//      type is more specific.

#ifndef TYDER_METHODS_PRECEDENCE_H_
#define TYDER_METHODS_PRECEDENCE_H_

#include <vector>

#include "common/result.h"
#include "methods/schema.h"
#include "objmodel/linearize.h"

namespace tyder {

// Applicable methods of `gf` for the call, most specific first. Methods with
// identical formals tie and keep their registration order.
std::vector<MethodId> SortBySpecificity(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types);

// The most specific applicable method; NotFound if no method applies.
Result<MethodId> MostSpecificApplicable(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types);

}  // namespace tyder

#endif  // TYDER_METHODS_PRECEDENCE_H_
