// Structural analysis of type hierarchies: the measurements a schema
// designer (or the views-over-views experiments) wants about a DAG —
// depth, fan-in/out, diamonds, surrogate counts — plus a linearization
// feasibility report (which types C3 can order and which fall back to BFS,
// a precedence-consistency smell).

#ifndef TYDER_OBJMODEL_HIERARCHY_ANALYSIS_H_
#define TYDER_OBJMODEL_HIERARCHY_ANALYSIS_H_

#include <string>
#include <vector>

#include "objmodel/type_graph.h"

namespace tyder {

struct HierarchyStats {
  size_t types = 0;
  size_t builtin_types = 0;
  size_t user_types = 0;
  size_t surrogate_types = 0;
  size_t edges = 0;            // direct supertype links
  size_t roots = 0;            // types with no supertypes
  size_t max_depth = 0;        // longest subtype->supertype path
  size_t max_fan_in = 0;       // most direct supertypes on one type
  size_t max_fan_out = 0;      // most direct subtypes under one type
  size_t diamond_types = 0;    // types with >= 2 distinct paths to some ancestor
  size_t attributes = 0;
  size_t empty_types = 0;      // types with no local attributes
};

HierarchyStats AnalyzeHierarchy(const TypeGraph& graph);

// Human-readable one-line-per-metric rendering.
std::string HierarchyStatsToString(const HierarchyStats& stats);

// Types whose supertype structure C3 linearization rejects (the dispatch
// order falls back to precedence-respecting BFS for them). Empty on
// well-behaved hierarchies — including everything FactorState produces from
// a C3-clean source, which tests assert.
std::vector<TypeId> TypesWithoutC3Order(const TypeGraph& graph);

}  // namespace tyder

#endif  // TYDER_OBJMODEL_HIERARCHY_ANALYSIS_H_
