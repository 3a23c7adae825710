#include "catalog/op_codec.h"

#include <sstream>

#include "catalog/catalog.h"
#include "common/string_util.h"

namespace tyder {

namespace {

std::string JoinOrDash(const std::vector<std::string>& names) {
  return names.empty() ? "-" : Join(names, ",");
}

std::string_view VerifyFlag(const ProjectionOptions& options) {
  return options.verify ? "verify" : "no-verify";
}

}  // namespace

std::string ProjectOpText(std::string_view view, std::string_view source,
                          const std::vector<std::string>& attributes,
                          const ProjectionOptions& options) {
  return "project " + std::string(view) + ' ' + std::string(source) + ' ' +
         JoinOrDash(attributes) + ' ' + std::string(VerifyFlag(options));
}

std::string SelectOpText(std::string_view view, std::string_view source) {
  return "select " + std::string(view) + ' ' + std::string(source);
}

std::string GeneralizeOpText(std::string_view view, std::string_view type_a,
                             std::string_view type_b,
                             const ProjectionOptions& options) {
  return "generalize " + std::string(view) + ' ' + std::string(type_a) + ' ' +
         std::string(type_b) + ' ' + std::string(VerifyFlag(options));
}

std::string RenameOpText(std::string_view view, std::string_view source,
                         const std::vector<AttributeRename>& renames,
                         const ProjectionOptions& options) {
  std::vector<std::string> pairs;
  for (const AttributeRename& r : renames) {
    pairs.push_back(r.attribute + '=' + r.alias);
  }
  return "rename " + std::string(view) + ' ' + std::string(source) + ' ' +
         JoinOrDash(pairs) + ' ' + std::string(VerifyFlag(options));
}

std::string DropOpText(std::string_view view) {
  return "drop " + std::string(view);
}

std::string TypeOpText(std::string_view name,
                       const std::vector<std::string>& supers) {
  return "type " + std::string(name) + ' ' + JoinOrDash(supers);
}

std::string AttrOpText(std::string_view owner, std::string_view name,
                       std::string_view value_type) {
  return "attr " + std::string(owner) + ' ' + std::string(name) + ' ' +
         std::string(value_type);
}

std::string EdgeOpText(std::string_view sub, std::string_view super) {
  return "edge " + std::string(sub) + ' ' + std::string(super);
}

Status ApplyCatalogOp(Catalog& catalog, std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string op;
  in >> op;
  auto bad = [&text]() {
    return Status::ParseError("malformed catalog op '" + std::string(text) +
                              "'");
  };
  auto parse_options = [&](ProjectionOptions& options) {
    std::string flag;
    in >> flag;
    if (flag != "verify" && flag != "no-verify") return false;
    options.verify = flag == "verify";
    return true;
  };
  auto names = [](const std::string& list) {
    return list == "-" ? std::vector<std::string>{} : SplitAndTrim(list, ',');
  };

  if (op == "project") {
    std::string view, source, attrs;
    in >> view >> source >> attrs;
    ProjectionOptions options;
    if (in.fail() || !parse_options(options)) return bad();
    return catalog.DefineProjectionView(view, source, names(attrs), options)
        .status();
  }
  if (op == "select") {
    std::string view, source;
    in >> view >> source;
    if (in.fail()) return bad();
    return catalog.DefineSelectionView(view, source).status();
  }
  if (op == "generalize") {
    std::string view, a, b;
    in >> view >> a >> b;
    ProjectionOptions options;
    if (in.fail() || !parse_options(options)) return bad();
    return catalog.DefineGeneralizationView(view, a, b, options).status();
  }
  if (op == "rename") {
    std::string view, source, pairs;
    in >> view >> source >> pairs;
    ProjectionOptions options;
    if (in.fail() || !parse_options(options)) return bad();
    std::vector<AttributeRename> renames;
    for (const std::string& pair : names(pairs)) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos) return bad();
      renames.push_back(
          AttributeRename{pair.substr(0, eq), pair.substr(eq + 1)});
    }
    return catalog.DefineRenameView(view, source, renames, options).status();
  }
  if (op == "drop") {
    std::string view;
    in >> view;
    if (in.fail()) return bad();
    return catalog.DropView(view);
  }
  if (op == kCollapseOpText) return catalog.Collapse().status();
  if (op == "type") {
    std::string name, supers;
    in >> name >> supers;
    if (in.fail()) return bad();
    return catalog.DeclareType(name, names(supers)).status();
  }
  if (op == "attr") {
    std::string owner, name, value_type;
    in >> owner >> name >> value_type;
    if (in.fail()) return bad();
    return catalog.DeclareAttribute(owner, name, value_type).status();
  }
  if (op == "edge") {
    std::string sub, super;
    in >> sub >> super;
    if (in.fail()) return bad();
    return catalog.AddSupertype(sub, super);
  }
  return Status::ParseError("unknown catalog op '" + op + "' in '" +
                            std::string(text) + "'");
}

}  // namespace tyder
