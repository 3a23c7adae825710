#include "oracle/reference.h"

#include <algorithm>
#include <deque>

namespace tyder::oracle {

bool RefIsSubtype(const TypeGraph& graph, TypeId a, TypeId b) {
  if (a >= graph.NumTypes() || b >= graph.NumTypes()) return false;
  if (a == b) return true;
  std::vector<bool> seen(graph.NumTypes(), false);
  std::deque<TypeId> queue{a};
  seen[a] = true;
  while (!queue.empty()) {
    TypeId t = queue.front();
    queue.pop_front();
    for (TypeId super : graph.type(t).supertypes()) {
      if (super == b) return true;
      if (!seen[super]) {
        seen[super] = true;
        queue.push_back(super);
      }
    }
  }
  return false;
}

std::vector<bool> RefReachableSet(const TypeGraph& graph, TypeId a) {
  std::vector<bool> seen(graph.NumTypes(), false);
  if (a >= graph.NumTypes()) return seen;
  std::deque<TypeId> queue{a};
  seen[a] = true;
  while (!queue.empty()) {
    TypeId t = queue.front();
    queue.pop_front();
    for (TypeId super : graph.type(t).supertypes()) {
      if (!seen[super]) {
        seen[super] = true;
        queue.push_back(super);
      }
    }
  }
  return seen;
}

std::vector<AttrId> RefCumulativeState(const TypeGraph& graph, TypeId t) {
  std::vector<AttrId> attrs;
  if (t >= graph.NumTypes()) return attrs;
  std::vector<bool> seen(graph.NumTypes(), false);
  std::deque<TypeId> queue{t};
  seen[t] = true;
  while (!queue.empty()) {
    TypeId cur = queue.front();
    queue.pop_front();
    for (AttrId a : graph.type(cur).local_attributes()) attrs.push_back(a);
    for (TypeId super : graph.type(cur).supertypes()) {
      if (!seen[super]) {
        seen[super] = true;
        queue.push_back(super);
      }
    }
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

bool RefApplicableToCall(const Schema& schema, MethodId m,
                         const std::vector<TypeId>& arg_types) {
  const Method& method = schema.method(m);
  if (method.sig.params.size() != arg_types.size()) return false;
  for (size_t i = 0; i < arg_types.size(); ++i) {
    if (!RefIsSubtype(schema.types(), arg_types[i], method.sig.params[i])) {
      return false;
    }
  }
  return true;
}

std::vector<MethodId> RefApplicableMethods(
    const Schema& schema, GfId gf, const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> applicable;
  if (gf >= schema.NumGenericFunctions()) return applicable;
  for (MethodId m : schema.gf(gf).methods) {
    if (RefApplicableToCall(schema, m, arg_types)) applicable.push_back(m);
  }
  return applicable;
}

namespace {

// C3 merge on copied lists: repeatedly take the head of some input list that
// appears in no other list's tail and erase it everywhere. False if stuck.
bool RefC3Merge(std::vector<std::vector<TypeId>> inputs,
                std::vector<TypeId>* out) {
  auto in_a_tail = [&inputs](TypeId t) {
    for (const auto& list : inputs) {
      for (size_t i = 1; i < list.size(); ++i) {
        if (list[i] == t) return true;
      }
    }
    return false;
  };
  for (;;) {
    inputs.erase(std::remove_if(inputs.begin(), inputs.end(),
                                [](const auto& l) { return l.empty(); }),
                 inputs.end());
    if (inputs.empty()) return true;
    bool progressed = false;
    for (const auto& list : inputs) {
      TypeId head = list.front();
      if (in_a_tail(head)) continue;
      out->push_back(head);
      for (auto& l : inputs) {
        auto it = std::find(l.begin(), l.end(), head);
        if (it != l.end()) l.erase(it);
      }
      progressed = true;
      break;
    }
    if (!progressed) return false;
  }
}

// C3 of `t`, re-linearizing every supertype recursively on every path.
bool RefC3(const TypeGraph& graph, TypeId t, std::vector<TypeId>* out) {
  out->push_back(t);
  const std::vector<TypeId>& supers = graph.type(t).supertypes();
  if (supers.empty()) return true;
  std::vector<std::vector<TypeId>> inputs;
  for (TypeId s : supers) {
    std::vector<TypeId> sub;
    if (!RefC3(graph, s, &sub)) return false;
    inputs.push_back(std::move(sub));
  }
  inputs.emplace_back(supers);  // local precedence order
  return RefC3Merge(std::move(inputs), out);
}

// Rank of `formal` in the CPL of `actual`, recomputed from scratch: the
// full recursive C3 (or its BFS fallback), then a linear scan.
size_t NaiveCplRank(const TypeGraph& graph, TypeId actual, TypeId formal) {
  std::vector<TypeId> cpl = RefClassPrecedenceList(graph, actual);
  auto it = std::find(cpl.begin(), cpl.end(), formal);
  return static_cast<size_t>(it - cpl.begin());  // == cpl.size() if absent
}

}  // namespace

std::vector<TypeId> RefClassPrecedenceList(const TypeGraph& graph, TypeId t) {
  std::vector<TypeId> cpl;
  if (RefC3(graph, t, &cpl)) return cpl;
  // Fallback: breadth-first over the direct supertype edges in precedence
  // order, each type once.
  cpl.clear();
  std::vector<bool> seen(graph.NumTypes(), false);
  std::deque<TypeId> queue{t};
  seen[t] = true;
  while (!queue.empty()) {
    TypeId cur = queue.front();
    queue.pop_front();
    cpl.push_back(cur);
    for (TypeId super : graph.type(cur).supertypes()) {
      if (!seen[super]) {
        seen[super] = true;
        queue.push_back(super);
      }
    }
  }
  return cpl;
}

bool RefMoreSpecific(const Schema& schema, MethodId a, MethodId b,
                     const std::vector<TypeId>& arg_types) {
  const Method& ma = schema.method(a);
  const Method& mb = schema.method(b);
  for (size_t i = 0; i < arg_types.size(); ++i) {
    TypeId fa = ma.sig.params[i];
    TypeId fb = mb.sig.params[i];
    if (fa == fb) continue;
    size_t rank_a = NaiveCplRank(schema.types(), arg_types[i], fa);
    size_t rank_b = NaiveCplRank(schema.types(), arg_types[i], fb);
    return rank_a < rank_b;
  }
  return false;  // identical formals: a tie
}

std::vector<MethodId> RefDispatchOrder(const Schema& schema, GfId gf,
                                       const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> order = RefApplicableMethods(schema, gf, arg_types);
  std::stable_sort(order.begin(), order.end(),
                   [&](MethodId a, MethodId b) {
                     return RefMoreSpecific(schema, a, b, arg_types);
                   });
  return order;
}

Result<MethodId> RefDispatch(const Schema& schema, GfId gf,
                             const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> order = RefDispatchOrder(schema, gf, arg_types);
  if (order.empty()) {
    return Status::NotFound("oracle: no applicable method for call");
  }
  return order.front();
}

}  // namespace tyder::oracle
