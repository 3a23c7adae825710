// Empty-surrogate collapse — the paper's Section 7 open problem: "it needs to
// be investigated how the number of surrogate types with empty states can be
// reduced in the refactored type hierarchy, particularly when views are
// defined over views."
//
// A surrogate is collapsible when nothing observes it: it carries no local
// attributes, no method signature, body declaration or attribute mentions
// it, and the caller has not marked it protected (derived view types stay).
// Collapsing splices the surrogate out — each direct subtype inherits the
// surrogate's supertypes at the surrogate's precedence position — and then
// removes it from the schema: the surviving types are renumbered in their
// old order, so NumTypes counts only live types. Because nothing references
// a collapsed type, cumulative state and dispatch over all remaining types
// are unchanged (re-checked by tests and the views-over-views ablation
// bench).

#ifndef TYDER_CORE_COLLAPSE_H_
#define TYDER_CORE_COLLAPSE_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "methods/schema.h"

namespace tyder {

struct CollapseReport {
  // Names of the removed types, in their old id order.
  std::vector<std::string> collapsed;
  // Each old type id's new id, kInvalidType for a removed type. Empty when
  // nothing was removed: every id stands.
  std::vector<TypeId> new_ids;
};

// Collapses every collapsible surrogate. Types in `keep` are never collapsed
// (pass the derived view types the catalog still exposes). Whoever holds
// TypeIds across a collapse that removed types renumbers them with
// `new_ids`.
//
// When nothing is collapsible it returns at once: the schema is not copied,
// validated or changed, and its version stands. Otherwise it runs inside a
// SchemaTransaction — on any non-OK return the schema is rolled back to its
// pre-call state (no surrogate stays half-spliced) and serializes
// byte-identically to it.
Result<CollapseReport> CollapseEmptySurrogates(Schema& schema,
                                               const std::set<TypeId>& keep);

// True iff `t` could be collapsed right now (exposed for tests/benches).
bool IsCollapsible(const Schema& schema, TypeId t,
                   const std::set<TypeId>& keep);

}  // namespace tyder

#endif  // TYDER_CORE_COLLAPSE_H_
