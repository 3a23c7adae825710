#include "core/factor_methods.h"

#include "common/failpoint.h"
#include "mir/dataflow.h"
#include "obs/tracer.h"

namespace tyder {

namespace {

// True iff `surrogate` is a FactorState (state-carrying) surrogate.
bool IsXSurrogate(const SurrogateSet& surrogates, TypeId surrogate) {
  return surrogates.augment_created.count(surrogate) == 0;
}

}  // namespace

Result<std::vector<MethodRewrite>> FactorMethods(
    Schema& schema, TypeId source,
    const std::vector<MethodId>& applicable_methods,
    const SurrogateSet& surrogates, std::vector<std::string>* trace) {
  TYDER_FAULT_POINT("factor_methods.before");
  std::vector<MethodRewrite> rewrites;
  for (MethodId m : applicable_methods) {
    const Method& method = schema.method(m);
    MethodRewrite rw;
    rw.method = m;
    rw.old_sig = method.sig;
    rw.new_sig = method.sig;

    // Signature: Tᵢ → T̃ᵢ for every formal with an X surrogate. Track which
    // parameter positions were converted — they seed the body retyping.
    std::set<int> converted_params;
    for (size_t i = 0; i < rw.new_sig.params.size(); ++i) {
      TypeId formal = rw.new_sig.params[i];
      TypeId surrogate = surrogates.Of(formal);
      if (surrogate == kInvalidType) continue;
      bool substitute = IsXSurrogate(surrogates, surrogate) ||
                        schema.types().IsSubtype(source, formal);
      if (substitute) {
        rw.new_sig.params[i] = surrogate;
        converted_params.insert(static_cast<int>(i));
      }
    }

    // Body: retype declarations of locals reached by a converted parameter.
    // The flow analysis must run against the *old* signature (it only uses
    // parameter indices, so running it before the signature swap is safe).
    if (method.body != nullptr && !converted_params.empty()) {
      TYDER_ASSIGN_OR_RETURN(FlowInfo flow, AnalyzeFlow(schema, m));
      std::set<Symbol> retype;
      for (const auto& [var, reached_by] : flow.var_reached_by) {
        for (int p : reached_by) {
          if (converted_params.count(p) > 0) {
            retype.insert(var);
            break;
          }
        }
      }
      Status failure = Status::OK();
      ExprPtr new_body = RewriteBottomUp(
          method.body, [&](const ExprPtr& node) -> ExprPtr {
            if (node->kind != ExprKind::kDecl || retype.count(node->var) == 0) {
              return node;
            }
            TypeId surrogate = surrogates.Of(node->decl_type);
            if (surrogate == kInvalidType) {
              failure = Status::Internal(
                  "no surrogate for retyped local '" + node->var.str() +
                  ": " + schema.types().TypeName(node->decl_type) +
                  "' (Augment should have created it)");
              return node;
            }
            auto copy = std::make_shared<Expr>(*node);
            copy->decl_type = surrogate;
            return copy;
          });
      TYDER_RETURN_IF_ERROR(failure);
      if (new_body != method.body) {
        schema.SetMethodBody(m, new_body);
        rw.body_changed = true;
      }

      // Result type: processed the same way — retyped when a converted
      // parameter reaches a returned value.
      bool result_reached = false;
      for (int p : flow.return_reached_by) {
        if (converted_params.count(p) > 0) {
          result_reached = true;
          break;
        }
      }
      if (result_reached) {
        TypeId surrogate = surrogates.Of(rw.new_sig.result);
        if (surrogate != kInvalidType) rw.new_sig.result = surrogate;
      }
    }

    if (!(rw.new_sig == rw.old_sig)) {
      if (obs::NarrationRequested(trace)) {
        obs::Narrate(
            trace,
            method.label.str() + ": " +
                SignatureToString(schema.types(),
                                  schema.gf(method.gf).name.view(),
                                  rw.old_sig) +
                "  =>  " +
                SignatureToString(schema.types(),
                                  schema.gf(method.gf).name.view(),
                                  rw.new_sig));
      }
      schema.SetMethodSignature(m, rw.new_sig);
    }
    rewrites.push_back(std::move(rw));
    // Mid-phase failure site: this method's signature/body already rewritten
    // in place, later methods not yet visited.
    TYDER_FAULT_POINT("factor_methods.mid");
  }
  return rewrites;
}

}  // namespace tyder
