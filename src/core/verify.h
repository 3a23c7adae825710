// Behavior-preservation verification. The paper's central guarantee
// (Sections 1, 5): after a derivation, "existing types are not affected:
// they must have both the same state and the same behavior as before". This
// module checks that guarantee mechanically against a pre-derivation
// snapshot:
//
//   - structural validity of the refactored schema;
//   - static type-correctness of every (rewritten) method body;
//   - cumulative state of every pre-existing type unchanged;
//   - dispatch unchanged: every generic-function call over pre-existing
//     argument types selects the same method as before;
//   - the derived type's state is exactly the projection list, and its
//     behavior is exactly the Applicable set.
//
// State and dispatch are checked by a certificate that follows the paper's
// Section 5 argument, with inputs the verifier diffs out of `before` and
// `after` itself. A *touched* type is a new type or one whose direct
// supertypes or local attributes changed; D is the set of pre-existing types
// at or under a touched type in either schema. Only types in D can have a
// different supertype closure, so:
//
//   (i)   the subtype relation among pre-existing types is unchanged
//         (D's closure rows compared over the pre-existing prefix);
//   (ii)  every rewritten formal admits exactly the pre-existing types its
//         old formal admitted — with (i), every call over pre-existing
//         types has the same applicable methods, so a one-method generic
//         function needs no probes;
//   (iii) a generic function with two or more methods and no re-homed
//         formal compares only pre-existing formals' ranks, so it is
//         re-dispatched only for argument tuples with an argument of D
//         whose class precedence list, restricted to pre-existing types,
//         changed; one with a re-homed formal, for tuples with some
//         argument in D. Either way every argument is under some formal at
//         its position;
//   (iv)  cumulative state is compared only for types in D.
//
// Where the certificate cannot decide — a generic function's method list
// changed, a formal was rewritten to a pre-existing type or fails (ii), or
// (iii) finds a changed outcome — that generic function goes to the
// exhaustive sweep, CheckDispatchPreserved, which also words the issues.
// When (i) fails, every generic function is swept and every type's state is
// compared. The report is therefore the one a full sweep would give, line
// for line. verify.dispatch_probes counts re-dispatched tuples,
// verify.cpl_changed the types of D whose restricted precedence list
// changed and verify.gf_sweeps the generic functions handed to the sweep.

#ifndef TYDER_CORE_VERIFY_H_
#define TYDER_CORE_VERIFY_H_

#include <string>
#include <vector>

#include "core/projection.h"
#include "methods/schema.h"

namespace tyder {

struct VerifyReport {
  std::vector<std::string> issues;

  bool ok() const { return issues.empty(); }
  std::string ToString() const;
};

// `before` is a snapshot taken just before DeriveProjection mutated `after`.
VerifyReport VerifyDerivation(const Schema& before, const Schema& after,
                              const DerivationResult& result);

// The exhaustive dispatch-preservation sweep, the certificate's fallback and
// the reference tests compare it against: every call m(t1, …, tn) over
// types that exist in `before` dispatches identically in `after`. Each
// position ranges over the pre-existing types under some formal of m at that
// position in either schema; no method applies to a call outside them in
// either schema, so every argument tuple of every arity is covered.
void CheckDispatchPreserved(const Schema& before, const Schema& after,
                            std::vector<std::string>* issues);

}  // namespace tyder

#endif  // TYDER_CORE_VERIFY_H_
