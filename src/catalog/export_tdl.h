// TDL export: renders a schema (plus its catalog views) back into TDL
// source, closing the loop with lang/analyzer.h's loader. Only *unfactored*
// schemas can be exported — TDL has no syntax for surrogate types, and a
// factored hierarchy is an output of the derivation machinery, not an input
// (use catalog/serialize.h for full-fidelity persistence of factored
// schemas).
//
// Accessors are exported as the `accessors;` directive when they are exactly
// the standard owner-homed reader+mutator set; schemas with bespoke accessor
// formals are rejected (TDL cannot express them).

#ifndef TYDER_CATALOG_EXPORT_TDL_H_
#define TYDER_CATALOG_EXPORT_TDL_H_

#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "methods/schema.h"

namespace tyder {

// Schema only (no view statements).
Result<std::string> ExportTdl(const Schema& schema);

// The catalog's base schema plus one `view` statement per view in its op
// log, in definition order, so a reload replays the derivations. Collapse
// entries emit nothing (a collapse changes no state or dispatch); a base
// edit logged after a view is refused with FailedPrecondition.
Result<std::string> ExportTdl(const Catalog& catalog);

}  // namespace tyder

#endif  // TYDER_CATALOG_EXPORT_TDL_H_
