// Class precedence lists: a total order on each type's supertype closure,
// derived from the local precedence order on direct supertypes via C3
// linearization (the CLOS-family algorithm). When C3's merge fails — legal
// in this model, since the paper only requires *some* deterministic ordering
// mechanism — the precedence-respecting BFS order of the closure is used
// instead. Method specificity (methods/precedence.h) builds on this.
//
// Each call memoizes: every ancestor's linearization is merged once and
// shared by all paths that reach it. oracle/reference.h keeps the recursive,
// unmemoized C3 as the reference these are tested against.

#ifndef TYDER_OBJMODEL_LINEARIZE_H_
#define TYDER_OBJMODEL_LINEARIZE_H_

#include <vector>

#include "objmodel/type_graph.h"

namespace tyder {

// The class precedence list of `t`: t first, then every proper supertype,
// each exactly once, in precedence order.
std::vector<TypeId> ClassPrecedenceList(const TypeGraph& graph, TypeId t);

// ClassPrecedenceList of every type, indexed by TypeId, from one memo.
std::vector<std::vector<TypeId>> AllClassPrecedenceLists(
    const TypeGraph& graph);

// True iff C3's merge succeeds for `t` (no BFS fallback needed).
bool HasC3Linearization(const TypeGraph& graph, TypeId t);

}  // namespace tyder

#endif  // TYDER_OBJMODEL_LINEARIZE_H_
