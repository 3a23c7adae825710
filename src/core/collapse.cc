#include "core/collapse.h"

#include <algorithm>

#include "common/failpoint.h"
#include "core/transaction.h"
#include "mir/expr.h"

namespace tyder {

namespace {

// Types mentioned by any method signature or body declaration.
std::set<TypeId> ReferencedTypes(const Schema& schema) {
  std::set<TypeId> out;
  for (MethodId m = 0; m < schema.NumMethods(); ++m) {
    const Method& method = schema.method(m);
    for (TypeId t : method.sig.params) out.insert(t);
    out.insert(method.sig.result);
    if (method.body != nullptr) {
      VisitPreorder(method.body, [&out](const Expr& e) {
        if (e.kind == ExprKind::kDecl) out.insert(e.decl_type);
      });
    }
  }
  // Attribute value types are observable too.
  for (AttrId a = 0; a < schema.types().NumAttributes(); ++a) {
    out.insert(schema.types().attribute(a).value_type);
  }
  return out;
}

bool CollapsibleWith(const Schema& schema, TypeId t,
                     const std::set<TypeId>& keep,
                     const std::set<TypeId>& referenced) {
  const Type& type = schema.types().type(t);
  return type.kind() == TypeKind::kSurrogate &&
         type.local_attributes().empty() && keep.count(t) == 0 &&
         referenced.count(t) == 0;
}

// Splices `t` out: every direct subtype replaces its edge to `t` with `t`'s
// supertypes (in order, at the same precedence position, skipping ones it
// already has).
void Splice(Schema& schema, TypeId t) {
  std::vector<TypeId> supers = schema.types().type(t).supertypes();
  for (TypeId sub = 0; sub < schema.types().NumTypes(); ++sub) {
    if (sub == t || !schema.types().type(sub).HasDirectSupertype(t)) continue;
    Type& sub_type = schema.types().mutable_type(sub);
    // Find t's precedence position, remove it, insert t's supers there.
    const std::vector<TypeId>& list = sub_type.supertypes();
    size_t pos = static_cast<size_t>(
        std::find(list.begin(), list.end(), t) - list.begin());
    sub_type.RemoveSupertype(t);
    size_t insert_at = pos;
    for (TypeId s : supers) {
      if (sub_type.HasDirectSupertype(s)) continue;
      sub_type.InsertSupertypeAt(insert_at, s);
      ++insert_at;
    }
  }
}

}  // namespace

bool IsCollapsible(const Schema& schema, TypeId t,
                   const std::set<TypeId>& keep) {
  return CollapsibleWith(schema, t, keep, ReferencedTypes(schema));
}

Result<CollapseReport> CollapseEmptySurrogates(Schema& schema,
                                               const std::set<TypeId>& keep) {
  // A splice edits only edges, and collapsibility reads none, so one pass
  // finds every surrogate the collapse removes.
  std::set<TypeId> referenced = ReferencedTypes(schema);
  std::vector<bool> removed(schema.types().NumTypes(), false);
  bool any = false;
  for (TypeId t = 0; t < schema.types().NumTypes(); ++t) {
    if (CollapsibleWith(schema, t, keep, referenced)) removed[t] = any = true;
  }
  CollapseReport report;
  if (!any) return report;

  // All-or-nothing: a failure mid-splice (or a final validation failure)
  // rolls the schema back to its pre-call state.
  SchemaTransaction txn(schema);
  TYDER_FAULT_POINT("collapse.before");
  // In id order: a type spliced later sees the edges an earlier splice
  // rewired, so no surviving type is left listing a removed one.
  for (TypeId t = 0; t < schema.types().NumTypes(); ++t) {
    if (!removed[t]) continue;
    Splice(schema, t);
    report.collapsed.push_back(schema.types().TypeName(t));
    // Mid-phase failure site: this surrogate already spliced out.
    TYDER_FAULT_POINT("collapse.mid");
  }
  report.new_ids = schema.RemoveTypes(removed);
  TYDER_RETURN_IF_ERROR(schema.Validate());
  TYDER_RETURN_IF_ERROR(txn.Commit());
  return report;
}

}  // namespace tyder
