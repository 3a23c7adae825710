// Method applicability (paper Section 4):
//   - m_k(T₁ᵏ…Tₙᵏ) is applicable to a *type* T iff some i has T ≼ Tᵢᵏ.
//   - m_k is applicable to a *call* m(T¹…Tⁿ) iff ∀i Tⁱ ≼ Tᵢᵏ.
// Subtype polymorphism means several methods can be applicable to one call;
// methods/precedence.h orders them.
//
// These scan the schema directly, with no derived structure to build: the
// verifier, IsApplicable and the type checker call them on schemas in the
// middle of a derivation, where an index would be used once. Dispatch and
// DispatchOrder (methods/dispatch.h) read the per-version dispatch index.

#ifndef TYDER_METHODS_APPLICABILITY_H_
#define TYDER_METHODS_APPLICABILITY_H_

#include <span>
#include <vector>

#include "methods/schema.h"

namespace tyder {

bool ApplicableToType(const Schema& schema, MethodId m, TypeId t);

bool ApplicableToCall(const Schema& schema, MethodId m,
                      std::span<const TypeId> arg_types);
inline bool ApplicableToCall(const Schema& schema, MethodId m,
                             const std::vector<TypeId>& arg_types) {
  return ApplicableToCall(schema, m, std::span<const TypeId>(arg_types));
}

// Methods of `gf` applicable to the call, in registration order (a scan of
// the gf's methods with ApplicableToCall).
std::vector<MethodId> ApplicableMethods(const Schema& schema, GfId gf,
                                        const std::vector<TypeId>& arg_types);

// Methods (across all generic functions) applicable to type `t` — the input
// set of the IsApplicable algorithm (Section 4.1).
std::vector<MethodId> MethodsApplicableToType(const Schema& schema, TypeId t);

}  // namespace tyder

#endif  // TYDER_METHODS_APPLICABILITY_H_
