// FactorMethods (paper Sections 6.1–6.3): re-homes each applicable method
// onto the surrogate types. Because a surrogate is the highest-precedence
// direct supertype of its source, a method m(…, Tᵢ, …) applicable to the
// derived type can be treated as m(…, T̃ᵢ, …) — the original types keep the
// method through inheritance, and the derived type gains it.
//
// Signature rewriting alone can introduce type errors in bodies (assignments
// from a now-surrogate-typed parameter into a local of the original type);
// the declarations of every local in the reachability set of a converted
// parameter are therefore retyped to the corresponding surrogate (created by
// FactorState or Augment), and result types are processed the same way.

#ifndef TYDER_CORE_FACTOR_METHODS_H_
#define TYDER_CORE_FACTOR_METHODS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/factor_state.h"
#include "methods/schema.h"

namespace tyder {

struct MethodRewrite {
  MethodId method = kInvalidMethod;
  Signature old_sig;
  Signature new_sig;
  bool body_changed = false;
};

// Rewrites every method in `applicable_methods` in place (signature + body).
// Must run after FactorState and Augment so all needed surrogates exist.
// A formal type Tᵢ is substituted by its surrogate when it has a FactorState
// (X) surrogate — the paper's rule — or when it is source-related
// (source ≼ Tᵢ) with an Augment surrogate, which is what lets the derived
// type inherit methods whose formals carry no projected state. Local
// declarations and result types reached by converted parameters are retyped
// with X or Augment surrogates as available (Section 6.3).
Result<std::vector<MethodRewrite>> FactorMethods(
    Schema& schema, TypeId source,
    const std::vector<MethodId>& applicable_methods,
    const SurrogateSet& surrogates, std::vector<std::string>* trace);

}  // namespace tyder

#endif  // TYDER_CORE_FACTOR_METHODS_H_
