// Run-time method selection: given a generic-function call with actual
// argument types, pick the most specific applicable method (multi-method
// dispatch, paper Section 2), or list every applicable method most specific
// first. Both read the schema's dispatch index (methods/dispatch_index.h),
// built once per schema version: the interpreter's calls, tyderd's `query
// dispatch` and the oracle differential go through here. Analyses of a
// schema in the middle of a derivation use ApplicableMethods and
// SortBySpecificity (methods/precedence.h) instead.

#ifndef TYDER_METHODS_DISPATCH_H_
#define TYDER_METHODS_DISPATCH_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "methods/schema.h"

namespace tyder {

// The method a call m(arg_types...) dispatches to. InvalidArgument on an
// arity mismatch, NotFound when no method applies. Every argument type must
// be a type id of `schema`. The span form reads the caller's buffer, so an
// interpreter call allocates nothing.
Result<MethodId> Dispatch(const Schema& schema, GfId gf,
                          std::span<const TypeId> arg_types);
inline Result<MethodId> Dispatch(const Schema& schema, GfId gf,
                                 const std::vector<TypeId>& arg_types) {
  return Dispatch(schema, gf, std::span<const TypeId>(arg_types));
}

// Convenience: dispatch by generic-function name.
Result<MethodId> DispatchByName(const Schema& schema, std::string_view gf_name,
                                const std::vector<TypeId>& arg_types);

// Full dispatch order (most specific first) — what call-next-method would
// walk in a CLOS-style system. Identical-formal twins keep registration
// order; empty when nothing applies or the arity is wrong.
std::vector<MethodId> DispatchOrder(const Schema& schema, GfId gf,
                                    const std::vector<TypeId>& arg_types);

}  // namespace tyder

#endif  // TYDER_METHODS_DISPATCH_H_
