#include "objmodel/hierarchy_analysis.h"

#include <algorithm>
#include <sstream>

#include "objmodel/linearize.h"

namespace tyder {

namespace {

// Longest path length (in edges) from `t` upward, memoized.
size_t DepthOf(const TypeGraph& graph, TypeId t, std::vector<int>& memo) {
  if (memo[t] >= 0) return static_cast<size_t>(memo[t]);
  size_t best = 0;
  for (TypeId s : graph.type(t).supertypes()) {
    best = std::max(best, 1 + DepthOf(graph, s, memo));
  }
  memo[t] = static_cast<int>(best);
  return best;
}

// A type sits on a diamond when two distinct direct supertypes share an
// ancestor.
bool OnDiamond(const TypeGraph& graph, TypeId t) {
  const std::vector<TypeId>& supers = graph.type(t).supertypes();
  for (size_t i = 0; i < supers.size(); ++i) {
    std::vector<TypeId> closure_i = graph.SupertypeClosure(supers[i]);
    for (size_t j = i + 1; j < supers.size(); ++j) {
      for (TypeId a : closure_i) {
        if (graph.IsSubtype(supers[j], a)) return true;
      }
    }
  }
  return false;
}

}  // namespace

HierarchyStats AnalyzeHierarchy(const TypeGraph& graph) {
  HierarchyStats stats;
  std::vector<int> depth_memo(graph.NumTypes(), -1);
  std::vector<size_t> fan_out(graph.NumTypes(), 0);

  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    const Type& type = graph.type(t);
    ++stats.types;
    switch (type.kind()) {
      case TypeKind::kBuiltin: ++stats.builtin_types; break;
      case TypeKind::kUser: ++stats.user_types; break;
      case TypeKind::kSurrogate: ++stats.surrogate_types; break;
    }
    stats.edges += type.supertypes().size();
    if (type.supertypes().empty()) ++stats.roots;
    stats.max_fan_in = std::max(stats.max_fan_in, type.supertypes().size());
    for (TypeId s : type.supertypes()) ++fan_out[s];
    stats.max_depth = std::max(stats.max_depth, DepthOf(graph, t, depth_memo));
    if (OnDiamond(graph, t)) ++stats.diamond_types;
    if (type.local_attributes().empty()) ++stats.empty_types;
  }
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    stats.max_fan_out = std::max(stats.max_fan_out, fan_out[t]);
  }
  stats.attributes = graph.NumAttributes();
  return stats;
}

std::string HierarchyStatsToString(const HierarchyStats& stats) {
  std::ostringstream out;
  out << "types: " << stats.types << " (" << stats.builtin_types
      << " builtin, " << stats.user_types << " user, "
      << stats.surrogate_types << " surrogate)\n";
  out << "edges: " << stats.edges << ", roots: " << stats.roots
      << ", max depth: " << stats.max_depth << "\n";
  out << "max fan-in: " << stats.max_fan_in
      << ", max fan-out: " << stats.max_fan_out
      << ", diamond types: " << stats.diamond_types << "\n";
  out << "attributes: " << stats.attributes
      << ", state-less types: " << stats.empty_types << "\n";
  return out.str();
}

std::vector<TypeId> TypesWithoutC3Order(const TypeGraph& graph) {
  std::vector<TypeId> out;
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    if (!HasC3Linearization(graph, t)) out.push_back(t);
  }
  return out;
}

}  // namespace tyder
