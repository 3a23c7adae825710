#include "catalog/catalog.h"

#include <algorithm>
#include <set>
#include <utility>

#include "catalog/op_codec.h"
#include "common/failpoint.h"
#include "core/algebra.h"
#include "core/transaction.h"
#include "obs/obs.h"

namespace tyder {

namespace {

// A drop refusal names views and log entries, never a surrogate: the cause
// of a failed re-apply (say, a verifier report over the re-folded schema) is
// flattened to one line with each surrogate `~...~T` written as the type it
// stands in for.
std::string CauseWithoutSurrogates(const Status& cause) {
  std::string out;
  const std::string& text = cause.message();
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '~') {
      while (i + 1 < text.size() && text[i + 1] == '~') ++i;
      out += "surrogate of ";
    } else {
      out += text[i] == '\n' ? ' ' : text[i];
    }
  }
  return std::string(StatusCodeName(cause.code())) + ": " + out;
}

std::string DescribeEntry(const CatalogLogEntry& entry) {
  return entry.view.empty() ? "op '" + entry.op + "'"
                            : "view '" + entry.view + "'";
}

}  // namespace

Result<Catalog> Catalog::Create() {
  Catalog catalog;
  TYDER_ASSIGN_OR_RETURN(catalog.schema_, Schema::Create());
  return catalog;
}

Status Catalog::CheckViewNameFree(std::string_view name) const {
  if (FindView(name).ok()) {
    return Status::AlreadyExists("view '" + std::string(name) +
                                 "' already defined");
  }
  return Status::OK();
}

Result<const ViewDef*> Catalog::CommitView(SchemaTransaction& txn, ViewDef def,
                                           std::string op) {
  CatalogLogEntry entry;
  entry.op = std::move(op);
  entry.view = def.name;
  entry.checkpoint = txn.ReleaseSnapshot();
  entry.version_before = entry.checkpoint->version();
  entry.version_after = schema_.version();
  log_.push_back(std::move(entry));
  views_.push_back(std::move(def));
  return &views_.back();
}

template <typename Fn>
auto Catalog::Logged(std::string op, Fn&& apply) -> decltype(apply()) {
  uint64_t before = schema_.version();
  auto result = apply();
  if (result.ok() && !log_.empty()) {
    log_.push_back(
        CatalogLogEntry{std::move(op), "", nullptr, before, schema_.version()});
  }
  return result;
}

Result<const ViewDef*> Catalog::DefineProjectionView(
    std::string_view name, std::string_view source_type,
    const std::vector<std::string>& attribute_names,
    const ProjectionOptions& options) {
  TYDER_RETURN_IF_ERROR(CheckViewNameFree(name));
  TYDER_ASSIGN_OR_RETURN(TypeId source, schema_.types().FindType(source_type));
  SchemaTransaction txn(schema_);
  TYDER_ASSIGN_OR_RETURN(
      DerivationResult derivation,
      DeriveProjectionByName(schema_, source_type, attribute_names, name,
                             options));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kProjection;
  def.derived = derivation.derived;
  def.source = source;
  def.applicable = std::move(derivation.applicability.applicable);
  for (const std::string& attr : attribute_names) {
    TYDER_ASSIGN_OR_RETURN(AttrId a, schema_.types().FindAttribute(attr));
    def.attributes.push_back(a);
  }
  return CommitView(
      txn, std::move(def),
      ProjectOpText(name, source_type, attribute_names, options));
}

Result<const ViewDef*> Catalog::DefineSelectionView(
    std::string_view name, std::string_view source_type) {
  TYDER_RETURN_IF_ERROR(CheckViewNameFree(name));
  TYDER_ASSIGN_OR_RETURN(TypeId source, schema_.types().FindType(source_type));
  SchemaTransaction txn(schema_);
  TYDER_ASSIGN_OR_RETURN(TypeId derived,
                         DeriveSelection(schema_, source, name));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kSelection;
  def.derived = derived;
  def.source = source;
  return CommitView(txn, std::move(def), SelectOpText(name, source_type));
}

Result<const ViewDef*> Catalog::DefineGeneralizationView(
    std::string_view name, std::string_view type_a, std::string_view type_b,
    const ProjectionOptions& options) {
  TYDER_RETURN_IF_ERROR(CheckViewNameFree(name));
  TYDER_ASSIGN_OR_RETURN(TypeId a, schema_.types().FindType(type_a));
  TYDER_ASSIGN_OR_RETURN(TypeId b, schema_.types().FindType(type_b));
  SchemaTransaction txn(schema_);
  TYDER_ASSIGN_OR_RETURN(DerivationResult derivation,
                         DeriveGeneralization(schema_, a, b, name, options));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kGeneralization;
  def.derived = derivation.derived;
  def.source = a;
  def.source2 = b;
  def.applicable = std::move(derivation.applicability.applicable);
  return CommitView(txn, std::move(def),
                    GeneralizeOpText(name, type_a, type_b, options));
}

Result<const ViewDef*> Catalog::DefineRenameView(
    std::string_view name, std::string_view source_type,
    const std::vector<AttributeRename>& renames,
    const ProjectionOptions& options) {
  TYDER_RETURN_IF_ERROR(CheckViewNameFree(name));
  TYDER_ASSIGN_OR_RETURN(TypeId source, schema_.types().FindType(source_type));
  // The transaction covers the alias-accessor generation that DeriveRenameView
  // performs after its inner (already-committed) projection: a failed alias
  // must unwind the whole view, not leave a projected-but-unaliased type.
  SchemaTransaction txn(schema_);
  TYDER_ASSIGN_OR_RETURN(
      DerivationResult derivation,
      DeriveRenameView(schema_, source, renames, name, options));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kRename;
  def.derived = derivation.derived;
  def.source = source;
  def.renames = renames;
  def.applicable = std::move(derivation.applicability.applicable);
  return CommitView(txn, std::move(def),
                    RenameOpText(name, source_type, renames, options));
}

Result<const ViewDef*> Catalog::FindView(std::string_view name) const {
  for (const ViewDef& def : views_) {
    if (def.name == name) return &def;
  }
  return Status::NotFound("no view named '" + std::string(name) + "'");
}

Result<TypeId> Catalog::DeclareType(std::string_view name,
                                    const std::vector<std::string>& supers) {
  // Resolved up front, so the edges below cannot fail: a new type has no
  // subtypes to close a cycle through.
  std::vector<TypeId> super_ids;
  for (const std::string& super : supers) {
    TYDER_ASSIGN_OR_RETURN(TypeId s, schema_.types().FindType(super));
    if (std::find(super_ids.begin(), super_ids.end(), s) != super_ids.end()) {
      return Status::InvalidArgument("supertype '" + super +
                                     "' listed twice");
    }
    super_ids.push_back(s);
  }
  return Logged(TypeOpText(name, supers), [&]() -> Result<TypeId> {
    TYDER_ASSIGN_OR_RETURN(TypeId id,
                           schema_.types().DeclareType(name, TypeKind::kUser));
    for (TypeId s : super_ids) {
      TYDER_RETURN_IF_ERROR(schema_.types().AddSupertype(id, s));
    }
    return id;
  });
}

Result<AttrId> Catalog::DeclareAttribute(std::string_view owner,
                                         std::string_view name,
                                         std::string_view value_type) {
  TYDER_ASSIGN_OR_RETURN(TypeId owner_id, schema_.types().FindType(owner));
  TYDER_ASSIGN_OR_RETURN(TypeId type_id, schema_.types().FindType(value_type));
  return Logged(AttrOpText(owner, name, value_type), [&] {
    return schema_.types().DeclareAttribute(owner_id, name, type_id);
  });
}

Status Catalog::AddSupertype(std::string_view sub, std::string_view super) {
  TYDER_ASSIGN_OR_RETURN(TypeId sub_id, schema_.types().FindType(sub));
  TYDER_ASSIGN_OR_RETURN(TypeId super_id, schema_.types().FindType(super));
  return Logged(EdgeOpText(sub, super), [&] {
    return schema_.types().AddSupertype(sub_id, super_id);
  });
}

Status Catalog::DropView(std::string_view name) {
  size_t at = 0;
  while (at < log_.size() && log_[at].view != name) ++at;
  if (at == log_.size()) {
    return Status::NotFound("no view named '" + std::string(name) + "'");
  }
  auto refused = [&name](const std::string& why) {
    return Status::FailedPrecondition("view '" + std::string(name) +
                                      "' cannot be dropped: " + why);
  };
  // A re-fold repeats only what the log holds: an edit made directly on
  // schema() after the view would be lost.
  for (size_t i = at; i < log_.size(); ++i) {
    uint64_t next = i + 1 < log_.size() ? log_[i + 1].version_before
                                        : schema_.version();
    if (next != log_[i].version_after) {
      return refused("the schema was edited outside the catalog after " +
                     DescribeEntry(log_[i]));
    }
  }

  // Build the replacement off to the side: the view's checkpoint, the
  // entries before it, then every later entry re-applied in order.
  size_t view_index = 0;
  while (views_[view_index].name != name) ++view_index;
  Catalog rebuilt(Schema(*log_[at].checkpoint));
  rebuilt.log_.assign(log_.begin(), log_.begin() + at);
  rebuilt.views_.assign(views_.begin(), views_.begin() + view_index);
  {
    // Scopes the re-fold so that the first entry re-applied shares the
    // view's checkpoint as its own pre-state instead of copying it again.
    SchemaTransaction refold(rebuilt.schema_, log_[at].checkpoint);
    for (size_t i = at + 1; i < log_.size(); ++i) {
      Status applied = ApplyCatalogOp(rebuilt, log_[i].op);
      if (!applied.ok()) {
        (void)refold.Commit();  // `rebuilt` is discarded: nothing to undo
        return refused(DescribeEntry(log_[i]) +
                       " after it does not re-apply without it (" +
                       CauseWithoutSurrogates(applied) + ")");
      }
      TYDER_COUNT("catalog.drop_refold_entries");
    }
    (void)refold.Commit();
  }
  // Replacement built, nothing installed: a failure here leaves the catalog
  // exactly as it was.
  TYDER_FAULT_POINT("catalog.drop.mid");
  schema_ = std::move(rebuilt.schema_);
  log_ = std::move(rebuilt.log_);
  views_ = std::move(rebuilt.views_);
  return Status::OK();
}

Result<CollapseReport> Catalog::Collapse() {
  std::set<TypeId> keep;
  for (const ViewDef& def : views_) keep.insert(def.derived);
  return Logged(std::string(kCollapseOpText),
                [&] { return CollapseEmptySurrogates(schema_, keep); });
}

size_t Catalog::LiveSurrogateCount() const {
  size_t n = 0;
  for (TypeId t = 0; t < schema_.types().NumTypes(); ++t) {
    const Type& type = schema_.types().type(t);
    if (type.kind() == TypeKind::kSurrogate && !type.detached()) ++n;
  }
  return n;
}

}  // namespace tyder
