// Catalog: the top-level container a database would expose — a Schema plus
// the registry of derived views over it (views are "simply added to the list
// of existing relations", paper Section 1). Views may be defined over views;
// the catalog tracks provenance, making the Section-7 views-over-views
// surrogate-growth experiment and the collapse ablation possible.
//
// The catalog is a fold of an ordered op log over a base schema. Every
// operation that built the schema from the base — the four view defines,
// Collapse, and the base edits DeclareType / DeclareAttribute /
// AddSupertype — is logged as its op text (catalog/op_codec.h); `schema()`
// is a cache of the fold. A view entry also keeps its checkpoint: the schema
// just before the view was defined. Dropping a view therefore leaves the
// catalog as if the view had never been defined: it restores the view's
// checkpoint and re-applies the entries after it.

#ifndef TYDER_CATALOG_CATALOG_H_
#define TYDER_CATALOG_CATALOG_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/algebra.h"
#include "core/collapse.h"
#include "core/projection.h"
#include "methods/schema.h"

namespace tyder {

class SchemaTransaction;

enum class ViewOpKind { kProjection, kSelection, kGeneralization, kRename };

struct ViewDef {
  std::string name;
  ViewOpKind op = ViewOpKind::kProjection;
  TypeId derived = kInvalidType;
  TypeId source = kInvalidType;          // primary source
  TypeId source2 = kInvalidType;         // generalization only
  std::vector<AttrId> attributes;        // projection list (if any)
  std::vector<AttributeRename> renames;  // rename views only
  // Methods IsApplicable found applicable to the derived type
  // (projection-family views; empty for selections).
  std::vector<MethodId> applicable;
};

// One entry of the op log.
struct CatalogLogEntry {
  std::string op;    // op text (catalog/op_codec.h)
  std::string view;  // the view a define entry defined; empty otherwise
  // View entries only: the schema just before the define. Shared by every
  // copy of the catalog (published epochs, pending publishes, scratch
  // copies); non-view entries keep none, since nothing drops them.
  std::shared_ptr<const Schema> checkpoint;
  // Schema versions the op started from and left. An edit made outside the
  // log, directly on schema(), shows up as a break in this chain.
  uint64_t version_before = 0;
  uint64_t version_after = 0;
};

// All-or-nothing guarantee: every mutating Catalog operation (the four
// Define*View methods, the base edits, DropView, and Collapse) either
// succeeds or returns non-OK with the schema serializing byte-identically to
// its pre-call state and the view registry and op log untouched.
class Catalog {
 public:
  static Result<Catalog> Create();
  // Wraps an already-built schema as the base of an empty log.
  explicit Catalog(Schema schema) : schema_(std::move(schema)) {}

  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }

  // The schema the log folds over: the first entry's checkpoint (the first
  // entry is always a view define), or the schema itself when the log is
  // empty.
  const Schema& base() const {
    return log_.empty() ? schema_ : *log_.front().checkpoint;
  }
  const std::vector<CatalogLogEntry>& log() const { return log_; }

  // Defines Π_attribute_names(source_type) as view `name` and records it.
  Result<const ViewDef*> DefineProjectionView(
      std::string_view name, std::string_view source_type,
      const std::vector<std::string>& attribute_names,
      const ProjectionOptions& options = {});

  // Defines a selection view (type-level part; the predicate applies at
  // materialization time).
  Result<const ViewDef*> DefineSelectionView(std::string_view name,
                                             std::string_view source_type);

  // Defines the generalization of two types over their common attributes.
  Result<const ViewDef*> DefineGeneralizationView(
      std::string_view name, std::string_view type_a, std::string_view type_b,
      const ProjectionOptions& options = {});

  // Defines a rename view: full-state projection plus alias accessors.
  Result<const ViewDef*> DefineRenameView(
      std::string_view name, std::string_view source_type,
      const std::vector<AttributeRename>& renames,
      const ProjectionOptions& options = {});

  const std::vector<ViewDef>& views() const { return views_; }
  Result<const ViewDef*> FindView(std::string_view name) const;

  // Base edits: a user type under `supers` (in precedence order), an
  // attribute, a supertype edge. With an empty log they edit the base and
  // log nothing; after a view they are logged so a drop's re-fold repeats
  // them.
  Result<TypeId> DeclareType(std::string_view name,
                             const std::vector<std::string>& supers);
  Result<AttrId> DeclareAttribute(std::string_view owner, std::string_view name,
                                  std::string_view value_type);
  Status AddSupertype(std::string_view sub, std::string_view super);

  // Drops view `name`: restores its checkpoint and re-applies, in order and
  // each with its recorded verify flag, every log entry after it. The
  // restored schema shares the checkpoint's tables (methods/schema.h), so
  // dropping the newest view copies no table; it frees the tables the view's
  // derivation cloned. The result is moved into the existing schema object,
  // so references to schema() stay valid.
  //
  // Refused with FailedPrecondition, the catalog untouched, when a later
  // entry does not re-apply without the view (the message names that entry's
  // view, or its op text, and the cause), or when the schema was edited
  // outside the log at or after the view (a re-fold cannot repeat that).
  //
  // Type ids: the types the view created are gone, the types that entries
  // after it created are re-created with new ids, and a Collapse after it
  // may renumber any type. A caller holding TypeIds (an ObjectStore, a
  // materialized view) re-resolves them by name after a drop. The catalog's
  // own ViewDefs always name their types in schema().
  Status DropView(std::string_view name);

  // Collapses empty surrogates, keeping every registered view's type and
  // source types. The collapsed types are removed and the others
  // renumbered in their old order, so a caller holding TypeIds re-resolves
  // them by name (or through the report's `new_ids`) after a Collapse that
  // removed types. A Collapse that finds nothing to collapse changes
  // nothing and logs nothing.
  Result<CollapseReport> Collapse();

  // Count of surrogate types — the metric of the views-over-views
  // experiment.
  size_t LiveSurrogateCount() const;

 private:
  Catalog() = default;

  Status CheckViewNameFree(std::string_view name) const;
  // Appends a committed define's entry, taking `txn`'s snapshot as the
  // checkpoint, and registers `def`.
  Result<const ViewDef*> CommitView(SchemaTransaction& txn, ViewDef def,
                                    std::string op);
  // Runs a non-view op and, when the log is non-empty and the op changed
  // the schema, appends its entry.
  template <typename Fn>
  auto Logged(std::string op, Fn&& apply) -> decltype(apply());

  Schema schema_;
  std::vector<ViewDef> views_;
  std::vector<CatalogLogEntry> log_;
};

}  // namespace tyder

#endif  // TYDER_CATALOG_CATALOG_H_
