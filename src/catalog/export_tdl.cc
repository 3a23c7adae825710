#include "catalog/export_tdl.h"

#include <charconv>
#include <sstream>

#include "catalog/op_codec.h"
#include "common/string_util.h"
#include "mir/expr.h"

namespace tyder {

namespace {

class TdlEmitter {
 public:
  explicit TdlEmitter(const Schema& schema) : schema_(schema) {}

  Result<std::string> Run() {
    TYDER_RETURN_IF_ERROR(CheckExportable());
    EmitTypes();
    TYDER_RETURN_IF_ERROR(EmitAccessorsDirective());
    EmitGenerics();
    TYDER_RETURN_IF_ERROR(EmitMethods());
    return out_.str();
  }

 private:
  bool IsBaseType(TypeId t) const {
    const Type& type = schema_.types().type(t);
    return type.kind() == TypeKind::kUser && !type.detached();
  }

  Status CheckExportable() {
    for (TypeId t = 0; t < schema_.types().NumTypes(); ++t) {
      const Type& type = schema_.types().type(t);
      if (type.is_surrogate() && !type.detached()) {
        return Status::FailedPrecondition(
            "schema contains surrogate '" + schema_.types().TypeName(t) +
            "'; TDL cannot express it");
      }
    }
    return Status::OK();
  }

  void EmitTypes() {
    const TypeGraph& graph = schema_.types();
    for (TypeId t = 0; t < graph.NumTypes(); ++t) {
      if (!IsBaseType(t)) continue;
      out_ << "type " << graph.TypeName(t);
      bool first = true;
      for (TypeId s : graph.type(t).supertypes()) {
        if (!IsBaseType(s)) continue;  // builtin roots are implicit
        out_ << (first ? " : " : ", ") << graph.TypeName(s);
        first = false;
      }
      out_ << " {";
      bool any = false;
      for (AttrId a = 0; a < graph.NumAttributes(); ++a) {
        const AttributeDef& attr = graph.attribute(a);
        if (attr.owner != t) continue;
        out_ << "\n  " << attr.name.view() << ": "
             << graph.TypeName(attr.value_type) << ";";
        any = true;
      }
      out_ << (any ? "\n}\n" : " }\n");
    }
  }

  // True when `m` is a standard owner-homed accessor of its attribute.
  bool IsStandardAccessor(MethodId m) const {
    const Method& method = schema_.method(m);
    if (method.kind == MethodKind::kGeneral) return false;
    const AttributeDef& attr = schema_.types().attribute(method.attr);
    std::string prefix = method.kind == MethodKind::kReader ? "get_" : "set_";
    std::string expect = prefix + attr.name.str();
    return schema_.gf(method.gf).name.str() == expect &&
           !method.sig.params.empty() && method.sig.params[0] == attr.owner;
  }

  Status EmitAccessorsDirective() {
    bool any_accessor = false;
    for (MethodId m = 0; m < schema_.NumMethods(); ++m) {
      if (schema_.method(m).kind == MethodKind::kGeneral) continue;
      if (!IsStandardAccessor(m)) {
        return Status::FailedPrecondition(
            "accessor '" + schema_.method(m).label.str() +
            "' is not the standard owner-homed form; TDL cannot express it");
      }
      any_accessor = true;
    }
    if (!any_accessor) return Status::OK();
    // The directive regenerates reader+mutator for every attribute; require
    // completeness so the reload matches.
    for (AttrId a = 0; a < schema_.types().NumAttributes(); ++a) {
      if (schema_.ReaderOf(a) == kInvalidMethod ||
          schema_.MutatorOf(a) == kInvalidMethod) {
        return Status::FailedPrecondition(
            "attribute '" + schema_.types().attribute(a).name.str() +
            "' lacks a standard reader/mutator pair; TDL's 'accessors;' "
            "directive cannot reproduce a partial set");
      }
    }
    out_ << "accessors;\n";
    return Status::OK();
  }

  void EmitGenerics() {
    // Explicit declarations for generic functions with no general methods to
    // imply them (and which are not accessor functions).
    for (GfId g = 0; g < schema_.NumGenericFunctions(); ++g) {
      const GenericFunction& gf = schema_.gf(g);
      bool has_general = false;
      bool has_accessor = false;
      for (MethodId m : gf.methods) {
        (schema_.method(m).kind == MethodKind::kGeneral ? has_general
                                                        : has_accessor) = true;
      }
      if (!has_general && !has_accessor) {
        out_ << "generic " << gf.name.view() << "/" << gf.arity << ";\n";
      }
    }
  }

  Status EmitMethods() {
    for (MethodId m = 0; m < schema_.NumMethods(); ++m) {
      const Method& method = schema_.method(m);
      if (method.kind != MethodKind::kGeneral) continue;
      std::string label = method.label.str();
      std::string gf_name = schema_.gf(method.gf).name.str();
      if (!IsIdentifier(label)) {
        return Status::FailedPrecondition("method label '" + label +
                                          "' is not a TDL identifier");
      }
      out_ << "method " << label;
      if (label != gf_name) out_ << " for " << gf_name;
      out_ << " (";
      for (size_t i = 0; i < method.sig.params.size(); ++i) {
        if (i > 0) out_ << ", ";
        out_ << ParamName(method, i) << ": "
             << schema_.types().TypeName(method.sig.params[i]);
      }
      out_ << ")";
      if (method.sig.result != schema_.builtins().void_type) {
        out_ << " -> " << schema_.types().TypeName(method.sig.result);
      }
      out_ << " ";
      TYDER_RETURN_IF_ERROR(EmitBlock(method, method.body, 0));
      out_ << "\n";
    }
    return Status::OK();
  }

  std::string ParamName(const Method& method, size_t i) const {
    if (i < method.param_names.size()) return method.param_names[i].str();
    return "p" + std::to_string(i);
  }

  Status EmitBlock(const Method& method, const ExprPtr& seq, int depth) {
    out_ << "{";
    for (const ExprPtr& stmt : seq->children) {
      out_ << "\n" << std::string(2 * (depth + 1), ' ');
      TYDER_RETURN_IF_ERROR(EmitStmt(method, stmt, depth + 1));
    }
    out_ << "\n" << std::string(2 * depth, ' ') << "}";
    return Status::OK();
  }

  Status EmitStmt(const Method& method, const ExprPtr& node, int depth) {
    const Expr& e = *node;
    switch (e.kind) {
      case ExprKind::kDecl:
        out_ << e.var.view() << ": " << schema_.types().TypeName(e.decl_type);
        if (!e.children.empty()) {
          out_ << " = ";
          TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[0]));
        }
        out_ << ";";
        return Status::OK();
      case ExprKind::kAssign:
        out_ << e.var.view() << " = ";
        TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[0]));
        out_ << ";";
        return Status::OK();
      case ExprKind::kReturn:
        out_ << "return";
        if (!e.children.empty()) {
          out_ << " ";
          TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[0]));
        }
        out_ << ";";
        return Status::OK();
      case ExprKind::kIf:
        out_ << "if (";
        TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[0]));
        out_ << ") ";
        TYDER_RETURN_IF_ERROR(EmitBlock(method, e.children[1], depth));
        if (e.children.size() > 2) {
          out_ << " else ";
          TYDER_RETURN_IF_ERROR(EmitBlock(method, e.children[2], depth));
        }
        return Status::OK();
      case ExprKind::kExprStmt:
        TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[0]));
        out_ << ";";
        return Status::OK();
      default:
        return Status::Internal("expression used as TDL statement");
    }
  }

  Status EmitExpr(const Method& method, const ExprPtr& node) {
    const Expr& e = *node;
    switch (e.kind) {
      case ExprKind::kParamRef:
        out_ << ParamName(method, static_cast<size_t>(e.param_index));
        return Status::OK();
      case ExprKind::kVarRef:
        out_ << e.var.view();
        return Status::OK();
      case ExprKind::kIntLit:
        out_ << e.int_val;
        return Status::OK();
      case ExprKind::kFloatLit: {
        // Shortest fixed-notation text that reads back as the same double:
        // the TDL lexer takes no exponent, and a float literal needs a
        // decimal point.
        char buf[400];
        char* end = std::to_chars(buf, buf + sizeof(buf), e.float_val,
                                  std::chars_format::fixed)
                        .ptr;
        std::string text(buf, end);
        if (text.find('.') == std::string::npos) text += ".0";
        out_ << text;
        return Status::OK();
      }
      case ExprKind::kBoolLit:
        out_ << (e.bool_val ? "true" : "false");
        return Status::OK();
      case ExprKind::kStringLit: {
        out_ << '"';
        for (char c : e.str_val) {
          if (c == '"' || c == '\\') out_ << '\\';
          if (c == '\n') {
            out_ << "\\n";
            continue;
          }
          out_ << c;
        }
        out_ << '"';
        return Status::OK();
      }
      case ExprKind::kCall: {
        out_ << schema_.gf(e.callee).name.view() << "(";
        for (size_t i = 0; i < e.children.size(); ++i) {
          if (i > 0) out_ << ", ";
          TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[i]));
        }
        out_ << ")";
        return Status::OK();
      }
      case ExprKind::kBinOp: {
        out_ << "(";
        TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[0]));
        out_ << " " << BinOpName(e.op) << " ";
        TYDER_RETURN_IF_ERROR(EmitExpr(method, e.children[1]));
        out_ << ")";
        return Status::OK();
      }
      default:
        return Status::Internal("statement used as TDL expression");
    }
  }

  const Schema& schema_;
  std::ostringstream out_;
};

// One `view` statement for `def`, with names from the folded schema.
void EmitView(const TypeGraph& graph, const ViewDef& def,
              std::ostringstream& out) {
  out << "view " << def.name << " = ";
  switch (def.op) {
    case ViewOpKind::kProjection: {
      out << "project " << graph.TypeName(def.source) << " on (";
      for (size_t i = 0; i < def.attributes.size(); ++i) {
        if (i > 0) out << ", ";
        out << graph.attribute(def.attributes[i]).name.view();
      }
      out << ")";
      break;
    }
    case ViewOpKind::kSelection:
      out << "select " << graph.TypeName(def.source);
      break;
    case ViewOpKind::kGeneralization:
      out << "generalize " << graph.TypeName(def.source) << ", "
          << graph.TypeName(def.source2);
      break;
    case ViewOpKind::kRename: {
      out << "rename " << graph.TypeName(def.source) << " (";
      for (size_t i = 0; i < def.renames.size(); ++i) {
        if (i > 0) out << ", ";
        out << def.renames[i].attribute << " as " << def.renames[i].alias;
      }
      out << ")";
      break;
    }
  }
  out << ";\n";
}

}  // namespace

Result<std::string> ExportTdl(const Schema& schema) {
  return TdlEmitter(schema).Run();
}

Result<std::string> ExportTdl(const Catalog& catalog) {
  for (const CatalogLogEntry& entry : catalog.log()) {
    if (entry.view.empty() && entry.op != kCollapseOpText) {
      return Status::FailedPrecondition(
          "catalog op '" + entry.op +
          "' edits the schema after a view; TDL declares every type before "
          "its views, so it cannot express it");
    }
  }
  TYDER_ASSIGN_OR_RETURN(std::string tdl, ExportTdl(catalog.base()));
  std::ostringstream out;
  out << tdl;
  for (const ViewDef& def : catalog.views()) {
    EmitView(catalog.schema().types(), def, out);
  }
  return out.str();
}

}  // namespace tyder
