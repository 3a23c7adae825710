// Deliberately-naive reference implementations of every relation the
// optimized engine answers through a cache or precomputed structure. Each
// function here recomputes its answer from the primary schema data (direct
// supertype edges, local attribute lists, method registration order) on
// every call — no bitsets, no rank tables, no memoization — so the fast
// paths in objmodel/ and methods/ have an independent implementation to be
// differentially tested against (oracle/differential.h, tests/fuzz/).
//
// The price of that independence is asymptotics: RefIsSubtype is a full BFS
// per query where the engine does one word-test, RefClassPrecedenceList
// re-linearizes every supertype on every path where the engine memoizes, and
// RefDispatchOrder re-linearizes inside every comparison. That is the point;
// keep these slow and obvious.

#ifndef TYDER_ORACLE_REFERENCE_H_
#define TYDER_ORACLE_REFERENCE_H_

#include <vector>

#include "common/result.h"
#include "methods/schema.h"
#include "objmodel/type_graph.h"

namespace tyder::oracle {

// a ≼ b by breadth-first search over the direct supertype edges. Mirrors the
// paper's definition of the reflexive-transitive subtype relation directly;
// never touches the ancestor-bitset closure.
bool RefIsSubtype(const TypeGraph& graph, TypeId a, TypeId b);

// One row of the subtype relation from a single BFS: result[b] == a ≼ b.
// Same walk as RefIsSubtype; lets the exhaustive all-pairs sweep in
// differential.cc stay naive without paying n² full traversals per schema.
std::vector<bool> RefReachableSet(const TypeGraph& graph, TypeId a);

// The cumulative state of `t` from first principles: walk every supertype
// reachable from `t` (each visited once, so diamonds contribute once) and
// collect its local attributes. Returned sorted by AttrId — callers compare
// state as a set; the engine's closure-order guarantee is checked elsewhere.
std::vector<AttrId> RefCumulativeState(const TypeGraph& graph, TypeId t);

// Section 4's call-applicability rule, checked per-position with
// RefIsSubtype: m(T₁…Tₙ) is applicable to the call iff ∀i argᵢ ≼ Tᵢ.
bool RefApplicableToCall(const Schema& schema, MethodId m,
                         const std::vector<TypeId>& arg_types);

// Linear scan of the gf's methods in registration order — the exact contract
// ApplicableMethods and the dispatch index's applicable set must both honor.
std::vector<MethodId> RefApplicableMethods(const Schema& schema, GfId gf,
                                           const std::vector<TypeId>& arg_types);

// The class precedence list of `t` by the recursive C3 merge, with no memo:
// every supertype is re-linearized on every path that reaches it. When C3
// fails for `t` or any supertype, a breadth-first walk of the supertype edges
// in precedence order. The reference for objmodel/linearize.h.
std::vector<TypeId> RefClassPrecedenceList(const TypeGraph& graph, TypeId t);

// Method specificity by the paper's rule, with the CPL rank looked up by a
// linear std::find in RefClassPrecedenceList on every comparison (no rank
// tables): at the first argument position whose formals differ, the method
// whose formal appears earlier in the CPL of the actual argument type wins.
// Ties (identical formals) are not ordered either way.
bool RefMoreSpecific(const Schema& schema, MethodId a, MethodId b,
                     const std::vector<TypeId>& arg_types);

// Applicable methods most-specific-first: the linear scan above followed by
// a stable sort on RefMoreSpecific, so ties stay in registration order —
// exactly the contract of SortBySpecificity / DispatchOrder.
std::vector<MethodId> RefDispatchOrder(const Schema& schema, GfId gf,
                                       const std::vector<TypeId>& arg_types);

// The method the call dispatches to; NotFound when no method applies.
Result<MethodId> RefDispatch(const Schema& schema, GfId gf,
                             const std::vector<TypeId>& arg_types);

}  // namespace tyder::oracle

#endif  // TYDER_ORACLE_REFERENCE_H_
