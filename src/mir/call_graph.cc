#include "mir/call_graph.h"

#include <algorithm>

#include "mir/dataflow.h"
#include "mir/type_check.h"

namespace tyder {

Result<std::vector<RelevantCall>> ExtractRelevantCalls(const Schema& schema,
                                                       MethodId m,
                                                       TypeId source) {
  std::vector<RelevantCall> out;
  const Method& method = schema.method(m);
  if (method.body == nullptr) return out;

  TYDER_ASSIGN_OR_RETURN(TypeAnnotations types, TypeCheckMethod(schema, m));
  TYDER_ASSIGN_OR_RETURN(FlowInfo flow, AnalyzeFlow(schema, m));

  const TypeGraph& graph = schema.types();
  Status failure = Status::OK();
  VisitPreorder(method.body, [&](const Expr& e) {
    if (!failure.ok() || e.kind != ExprKind::kCall) return;
    RelevantCall call;
    call.gf = e.callee;
    bool any_related = false;
    for (const ExprPtr& arg : e.children) {
      auto it = types.find(arg.get());
      if (it == types.end()) {
        failure = Status::Internal("call argument missing type annotation");
        return;
      }
      TypeId static_type = it->second;
      call.arg_static_types.push_back(static_type);
      // (b) the argument's static type admits instances of the source type.
      bool related = graph.IsSubtype(source, static_type);
      if (related) {
        // (a) the argument corresponds to a formal of m whose type admits T.
        related = false;
        for (int p : ReachingParams(flow, *arg)) {
          if (graph.IsSubtype(source, method.sig.params[p])) {
            related = true;
            break;
          }
        }
      }
      call.arg_source_related.push_back(related);
      any_related = any_related || related;
    }
    if (any_related) out.push_back(std::move(call));
  });
  if (!failure.ok()) return failure;
  return out;
}

std::vector<GfId> CalledGenericFunctions(const Method& m) {
  std::vector<GfId> out;
  VisitPreorder(m.body, [&out](const Expr& e) {
    if (e.kind == ExprKind::kCall) out.push_back(e.callee);
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace tyder
