#include "objmodel/schema_printer.h"

#include <sstream>

namespace tyder {

namespace {

bool SkipType(const TypeGraph& graph, TypeId t, const PrintOptions& opts) {
  return !opts.include_builtins && graph.type(t).kind() == TypeKind::kBuiltin;
}

void AppendAttrList(const TypeGraph& graph, const std::vector<AttrId>& attrs,
                    std::ostringstream& out) {
  out << "{";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out << ", ";
    const AttributeDef& a = graph.attribute(attrs[i]);
    out << a.name.view() << ": " << graph.TypeName(a.value_type);
  }
  out << "}";
}

}  // namespace

std::string PrintType(const TypeGraph& graph, TypeId t,
                      const PrintOptions& opts) {
  std::ostringstream out;
  const Type& type = graph.type(t);
  out << type.name().view();
  if (type.is_surrogate() && type.surrogate_source() != kInvalidType) {
    out << " [surrogate of " << graph.TypeName(type.surrogate_source()) << "]";
  }
  out << " ";
  AppendAttrList(graph, type.local_attributes(), out);
  if (opts.show_cumulative) {
    out << " cumulative=";
    AppendAttrList(graph, graph.CumulativeAttributes(t), out);
  }
  if (!type.supertypes().empty()) {
    out << " <- ";
    for (size_t i = 0; i < type.supertypes().size(); ++i) {
      if (i > 0) out << ", ";
      out << graph.TypeName(type.supertypes()[i]) << "(" << i << ")";
    }
  }
  return out.str();
}

std::string PrintHierarchy(const TypeGraph& graph, const PrintOptions& opts) {
  std::ostringstream out;
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    if (SkipType(graph, t, opts)) continue;
    out << PrintType(graph, t, opts) << "\n";
  }
  return out.str();
}

std::string ToDot(const TypeGraph& graph, const PrintOptions& opts) {
  std::ostringstream out;
  out << "digraph types {\n  rankdir=BT;\n";
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    if (SkipType(graph, t, opts)) continue;
    const Type& type = graph.type(t);
    out << "  \"" << type.name().view() << "\"";
    out << " [shape=box";
    if (type.is_surrogate()) out << ", style=dashed";
    out << "];\n";
  }
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    if (SkipType(graph, t, opts)) continue;
    const Type& type = graph.type(t);
    for (size_t i = 0; i < type.supertypes().size(); ++i) {
      TypeId s = type.supertypes()[i];
      if (SkipType(graph, s, opts)) continue;
      out << "  \"" << type.name().view() << "\" -> \"" << graph.TypeName(s)
          << "\" [label=\"" << i << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace tyder
