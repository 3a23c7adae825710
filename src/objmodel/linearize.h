// Class precedence lists: a total order on each type's supertype closure,
// derived from the local precedence order on direct supertypes via C3
// linearization (the CLOS-family algorithm). When C3's merge fails — legal
// in this model, since the paper only requires *some* deterministic ordering
// mechanism — the precedence-respecting BFS order of the closure is used
// instead. Method specificity (methods/precedence.h) builds on this.
//
// CplMemo merges every ancestor's linearization once and shares it with all
// paths that reach it; the free functions below are thin users of one memo.
// oracle/reference.h keeps the recursive, unmemoized C3 as the reference
// these are tested against.

#ifndef TYDER_OBJMODEL_LINEARIZE_H_
#define TYDER_OBJMODEL_LINEARIZE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "objmodel/type_graph.h"

namespace tyder {

// Class precedence lists of one graph, computed on demand: a type's C3
// linearization is merged once, from its direct supertypes' memoized ones,
// the first time it or a subtype is asked for. The graph must not change
// while the memo is in use.
class CplMemo {
 public:
  explicit CplMemo(const TypeGraph& graph)
      : graph_(graph), memo_(graph.NumTypes()) {}

  // ClassPrecedenceList(graph, t). The span is valid until the next call on
  // this memo.
  std::span<const TypeId> Cpl(TypeId t);

  // HasC3Linearization(graph, t).
  bool HasC3(TypeId t);

 private:
  enum State : uint8_t { kUnknown, kActive, kDone, kFailed };
  struct Entry {
    // kDone: the C3 linearization is buf_[begin, end). kFailed: the BFS
    // fallback is, once asked for (a stored list is never empty).
    uint32_t begin = 0, end = 0;
    State state = kUnknown;
  };

  bool Merge(const std::vector<TypeId>& supers);

  const TypeGraph& graph_;
  std::vector<Entry> memo_;
  std::vector<TypeId> buf_;
};

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
