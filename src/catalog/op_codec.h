// Catalog op texts: the one textual form of every catalog mutation. The WAL
// records them (storage/durable_catalog.h), the catalog's op log keeps them
// (catalog.h), and snapshots store the log as them
// (storage/catalog_snapshot.h). ApplyCatalogOp is their one interpreter:
// WAL replay, snapshot load and a drop's re-fold all go through it.
//
//   project <view> <source> <attr,...|-> verify|no-verify
//   select <view> <source>
//   generalize <view> <type-a> <type-b> verify|no-verify
//   rename <view> <source> <attr=alias,...|-> verify|no-verify
//   drop <view>                        # WAL only: a drop leaves no log entry
//   collapse
//   type <name> <super,...|->          # base edits (Catalog::DeclareType,
//   attr <owner> <name> <value-type>   #   DeclareAttribute, AddSupertype)
//   edge <sub> <super>
//
// Every op text carries the verify flag its derivation ran with, since a
// no-verify derivation might not re-apply under verify.

#ifndef TYDER_CATALOG_OP_CODEC_H_
#define TYDER_CATALOG_OP_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/algebra.h"
#include "core/projection.h"

namespace tyder {

class Catalog;

std::string ProjectOpText(std::string_view view, std::string_view source,
                          const std::vector<std::string>& attributes,
                          const ProjectionOptions& options);
std::string SelectOpText(std::string_view view, std::string_view source);
std::string GeneralizeOpText(std::string_view view, std::string_view type_a,
                             std::string_view type_b,
                             const ProjectionOptions& options);
std::string RenameOpText(std::string_view view, std::string_view source,
                         const std::vector<AttributeRename>& renames,
                         const ProjectionOptions& options);
std::string DropOpText(std::string_view view);
inline constexpr std::string_view kCollapseOpText = "collapse";
std::string TypeOpText(std::string_view name,
                       const std::vector<std::string>& supers);
std::string AttrOpText(std::string_view owner, std::string_view name,
                       std::string_view value_type);
std::string EdgeOpText(std::string_view sub, std::string_view super);

// Applies one op text to `catalog` through the Catalog API (so a define
// appends its log entry exactly as the original call did). ParseError for
// a malformed text; otherwise the operation's own status.
Status ApplyCatalogOp(Catalog& catalog, std::string_view text);

}  // namespace tyder

#endif  // TYDER_CATALOG_OP_CODEC_H_
