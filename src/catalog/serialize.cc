#include "catalog/serialize.h"

#include <charconv>
#include <cstdint>
#include <sstream>

#include "common/string_util.h"
#include "mir/builder.h"
#include "storage/crc32c.h"

namespace tyder {

namespace {

const char* KindToken(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBuiltin: return "builtin";
    case TypeKind::kUser: return "user";
    case TypeKind::kSurrogate: return "surrogate";
  }
  return "?";
}

const char* MethodKindToken(MethodKind kind) {
  switch (kind) {
    case MethodKind::kGeneral: return "general";
    case MethodKind::kReader: return "reader";
    case MethodKind::kMutator: return "mutator";
  }
  return "?";
}

std::string EscapeString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

void WriteBody(const Schema& schema, const ExprPtr& node,
               std::ostringstream& out) {
  const Expr& e = *node;
  switch (e.kind) {
    case ExprKind::kParamRef:
      out << "(param " << e.param_index << ")";
      return;
    case ExprKind::kVarRef:
      out << "(var " << e.var.view() << ")";
      return;
    case ExprKind::kIntLit:
      out << "(int " << e.int_val << ")";
      return;
    case ExprKind::kFloatLit: {
      // Shortest text that reads back as the same double.
      char buf[64];
      char* end = std::to_chars(buf, buf + sizeof(buf), e.float_val).ptr;
      out << "(float " << std::string_view(buf, end - buf) << ")";
      return;
    }
    case ExprKind::kBoolLit:
      out << "(bool " << (e.bool_val ? "true" : "false") << ")";
      return;
    case ExprKind::kStringLit:
      out << "(str " << EscapeString(e.str_val) << ")";
      return;
    case ExprKind::kCall: {
      out << "(call " << schema.gf(e.callee).name.view();
      for (const ExprPtr& c : e.children) {
        out << " ";
        WriteBody(schema, c, out);
      }
      out << ")";
      return;
    }
    case ExprKind::kBinOp: {
      out << "(bin " << BinOpName(e.op) << " ";
      WriteBody(schema, e.children[0], out);
      out << " ";
      WriteBody(schema, e.children[1], out);
      out << ")";
      return;
    }
    case ExprKind::kSeq: {
      out << "(seq";
      for (const ExprPtr& c : e.children) {
        out << " ";
        WriteBody(schema, c, out);
      }
      out << ")";
      return;
    }
    case ExprKind::kDecl: {
      out << "(decl " << e.var.view() << " "
          << schema.types().TypeName(e.decl_type);
      if (!e.children.empty()) {
        out << " ";
        WriteBody(schema, e.children[0], out);
      }
      out << ")";
      return;
    }
    case ExprKind::kAssign: {
      out << "(assign " << e.var.view() << " ";
      WriteBody(schema, e.children[0], out);
      out << ")";
      return;
    }
    case ExprKind::kReturn: {
      out << "(return";
      if (!e.children.empty()) {
        out << " ";
        WriteBody(schema, e.children[0], out);
      }
      out << ")";
      return;
    }
    case ExprKind::kIf: {
      out << "(if";
      for (const ExprPtr& c : e.children) {
        out << " ";
        WriteBody(schema, c, out);
      }
      out << ")";
      return;
    }
    case ExprKind::kExprStmt: {
      out << "(stmt ";
      WriteBody(schema, e.children[0], out);
      out << ")";
      return;
    }
  }
}

// --- s-expression reader ----------------------------------------------------

struct SexprToken {
  enum Kind { kLParen, kRParen, kAtom, kString, kEnd } kind;
  std::string text;
};

class SexprLexer {
 public:
  explicit SexprLexer(std::string_view text) : text_(text) {}

  Result<SexprToken> Next() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size()) return SexprToken{SexprToken::kEnd, ""};
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      return SexprToken{SexprToken::kLParen, "("};
    }
    if (c == ')') {
      ++pos_;
      return SexprToken{SexprToken::kRParen, ")"};
    }
    if (c == '"') {
      ++pos_;
      std::string out;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
          ++pos_;
          out += text_[pos_] == 'n' ? '\n' : text_[pos_];
        } else {
          out += text_[pos_];
        }
        ++pos_;
      }
      if (pos_ >= text_.size()) {
        return Status::ParseError("unterminated string in body");
      }
      ++pos_;  // closing quote
      return SexprToken{SexprToken::kString, out};
    }
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '(' && text_[pos_] != ')' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return SexprToken{SexprToken::kAtom,
                      std::string(text_.substr(start, pos_ - start))};
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

class BodyReader {
 public:
  BodyReader(const Schema& schema, std::string_view text)
      : schema_(schema), lexer_(text) {}

  Result<ExprPtr> Read() {
    TYDER_ASSIGN_OR_RETURN(SexprToken tok, lexer_.Next());
    return ReadNode(tok);
  }

 private:
  Result<ExprPtr> ReadNode(const SexprToken& tok) {
    if (tok.kind != SexprToken::kLParen) {
      return Status::ParseError("expected '(' in body expression");
    }
    TYDER_ASSIGN_OR_RETURN(SexprToken head, lexer_.Next());
    if (head.kind != SexprToken::kAtom) {
      return Status::ParseError("expected node tag after '('");
    }
    const std::string& tag = head.text;
    if (tag == "param") {
      TYDER_ASSIGN_OR_RETURN(std::string idx, Atom());
      TYDER_ASSIGN_OR_RETURN(int index, ParseNumber<int>(idx));
      TYDER_RETURN_IF_ERROR(Close());
      return mir::Param(index);
    }
    if (tag == "var") {
      TYDER_ASSIGN_OR_RETURN(std::string name, Atom());
      TYDER_RETURN_IF_ERROR(Close());
      return mir::Var(name);
    }
    if (tag == "int") {
      TYDER_ASSIGN_OR_RETURN(std::string v, Atom());
      TYDER_ASSIGN_OR_RETURN(int64_t value, ParseNumber<int64_t>(v));
      TYDER_RETURN_IF_ERROR(Close());
      return mir::IntLit(value);
    }
    if (tag == "float") {
      TYDER_ASSIGN_OR_RETURN(std::string v, Atom());
      TYDER_ASSIGN_OR_RETURN(double value, ParseNumber<double>(v));
      TYDER_RETURN_IF_ERROR(Close());
      return mir::FloatLit(value);
    }
    if (tag == "bool") {
      TYDER_ASSIGN_OR_RETURN(std::string v, Atom());
      TYDER_RETURN_IF_ERROR(Close());
      return mir::BoolLit(v == "true");
    }
    if (tag == "str") {
      TYDER_ASSIGN_OR_RETURN(SexprToken v, lexer_.Next());
      if (v.kind != SexprToken::kString) {
        return Status::ParseError("expected string literal");
      }
      TYDER_RETURN_IF_ERROR(Close());
      return mir::StringLit(v.text);
    }
    if (tag == "call") {
      TYDER_ASSIGN_OR_RETURN(std::string gf_name, Atom());
      TYDER_ASSIGN_OR_RETURN(GfId gf, schema_.FindGenericFunction(gf_name));
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, Children());
      return mir::Call(gf, std::move(args));
    }
    if (tag == "bin") {
      TYDER_ASSIGN_OR_RETURN(std::string op_name, Atom());
      TYDER_ASSIGN_OR_RETURN(BinOpKind op, ParseOp(op_name));
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> kids, Children());
      if (kids.size() != 2) {
        return Status::ParseError("bin expects two operands");
      }
      return mir::BinOp(op, kids[0], kids[1]);
    }
    if (tag == "seq") {
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> kids, Children());
      return mir::Seq(std::move(kids));
    }
    if (tag == "decl") {
      TYDER_ASSIGN_OR_RETURN(std::string var, Atom());
      TYDER_ASSIGN_OR_RETURN(std::string type_name, Atom());
      TYDER_ASSIGN_OR_RETURN(TypeId type, schema_.types().FindType(type_name));
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> kids, Children());
      if (kids.size() > 1) return Status::ParseError("decl takes <= 1 init");
      return mir::Decl(var, type, kids.empty() ? nullptr : kids[0]);
    }
    if (tag == "assign") {
      TYDER_ASSIGN_OR_RETURN(std::string var, Atom());
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> kids, Children());
      if (kids.size() != 1) return Status::ParseError("assign takes 1 value");
      return mir::Assign(var, kids[0]);
    }
    if (tag == "return") {
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> kids, Children());
      if (kids.size() > 1) return Status::ParseError("return takes <= 1 value");
      return mir::Return(kids.empty() ? nullptr : kids[0]);
    }
    if (tag == "if") {
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> kids, Children());
      if (kids.size() != 2 && kids.size() != 3) {
        return Status::ParseError("if takes 2 or 3 children");
      }
      return mir::If(kids[0], kids[1], kids.size() == 3 ? kids[2] : nullptr);
    }
    if (tag == "stmt") {
      TYDER_ASSIGN_OR_RETURN(std::vector<ExprPtr> kids, Children());
      if (kids.size() != 1) return Status::ParseError("stmt takes 1 child");
      return mir::ExprStmt(kids[0]);
    }
    return Status::ParseError("unknown body node tag '" + tag + "'");
  }

  Result<std::string> Atom() {
    TYDER_ASSIGN_OR_RETURN(SexprToken tok, lexer_.Next());
    if (tok.kind != SexprToken::kAtom) {
      return Status::ParseError("expected atom in body expression");
    }
    return tok.text;
  }

  Status Close() {
    TYDER_ASSIGN_OR_RETURN(SexprToken tok, lexer_.Next());
    if (tok.kind != SexprToken::kRParen) {
      return Status::ParseError("expected ')' in body expression");
    }
    return Status::OK();
  }

  // Reads child nodes until the matching ')'.
  Result<std::vector<ExprPtr>> Children() {
    std::vector<ExprPtr> out;
    for (;;) {
      TYDER_ASSIGN_OR_RETURN(SexprToken tok, lexer_.Next());
      if (tok.kind == SexprToken::kRParen) return out;
      TYDER_ASSIGN_OR_RETURN(ExprPtr node, ReadNode(tok));
      out.push_back(std::move(node));
    }
  }

  Result<BinOpKind> ParseOp(const std::string& name) {
    for (BinOpKind op :
         {BinOpKind::kAdd, BinOpKind::kSub, BinOpKind::kMul, BinOpKind::kDiv,
          BinOpKind::kLt, BinOpKind::kLe, BinOpKind::kEq, BinOpKind::kAnd,
          BinOpKind::kOr}) {
      if (name == BinOpName(op)) return op;
    }
    return Status::ParseError("unknown operator '" + name + "'");
  }

  const Schema& schema_;
  SexprLexer lexer_;
};

// Parses the remainder of a "method" line:
//   <label> <gf> <kind> (<T>...) -> <R> [attr=<name>] [params=<p>,...]
Status ParseMethodLine(Schema& schema, std::istringstream& ls) {
  std::string label, gf_name, kind_tok;
  ls >> label >> gf_name >> kind_tok;
  std::string rest;
  std::getline(ls, rest);

  size_t open = rest.find('(');
  size_t close = rest.find(')');
  size_t arrow = rest.find("->");
  if (open == std::string::npos || close == std::string::npos ||
      arrow == std::string::npos || close < open || arrow < close) {
    return Status::ParseError("malformed method line for '" + label + "'");
  }

  Method m;
  m.label = Symbol::Intern(label);
  TYDER_ASSIGN_OR_RETURN(m.gf, schema.FindGenericFunction(gf_name));
  if (kind_tok == "reader") {
    m.kind = MethodKind::kReader;
  } else if (kind_tok == "mutator") {
    m.kind = MethodKind::kMutator;
  } else {
    m.kind = MethodKind::kGeneral;
  }

  for (const std::string& param :
       SplitAndTrim(rest.substr(open + 1, close - open - 1), ' ')) {
    TYDER_ASSIGN_OR_RETURN(TypeId t, schema.types().FindType(param));
    m.sig.params.push_back(t);
  }

  std::istringstream tail(rest.substr(arrow + 2));
  std::string result_name;
  tail >> result_name;
  TYDER_ASSIGN_OR_RETURN(m.sig.result, schema.types().FindType(result_name));

  std::string extra;
  while (tail >> extra) {
    if (extra.rfind("attr=", 0) == 0) {
      TYDER_ASSIGN_OR_RETURN(m.attr,
                             schema.types().FindAttribute(extra.substr(5)));
    } else if (extra.rfind("params=", 0) == 0) {
      for (const std::string& p : SplitAndTrim(extra.substr(7), ',')) {
        m.param_names.push_back(Symbol::Intern(p));
      }
    }
  }
  return schema.AddMethod(std::move(m)).status();
}

}  // namespace

std::string SerializeBody(const Schema& schema, const ExprPtr& body) {
  std::ostringstream out;
  WriteBody(schema, body, out);
  return out.str();
}

Result<ExprPtr> DeserializeBody(const Schema& schema, std::string_view text) {
  return BodyReader(schema, text).Read();
}

std::string SerializeSchema(const Schema& schema) {
  std::ostringstream out;
  out << "tyder-schema v1\n";
  const TypeGraph& graph = schema.types();
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    const Type& type = graph.type(t);
    out << "type " << type.name().view() << " " << KindToken(type.kind());
    if (type.surrogate_source() != kInvalidType) {
      out << " source=" << graph.TypeName(type.surrogate_source());
    }
    out << "\n";
  }
  for (TypeId t = 0; t < graph.NumTypes(); ++t) {
    for (TypeId s : graph.type(t).supertypes()) {
      out << "super " << graph.TypeName(t) << " " << graph.TypeName(s) << "\n";
    }
  }
  for (AttrId a = 0; a < graph.NumAttributes(); ++a) {
    const AttributeDef& attr = graph.attribute(a);
    out << "attr " << attr.name.view() << " " << graph.TypeName(attr.value_type)
        << " " << graph.TypeName(attr.owner) << "\n";
  }
  for (GfId g = 0; g < schema.NumGenericFunctions(); ++g) {
    out << "gf " << schema.gf(g).name.view() << " " << schema.gf(g).arity
        << "\n";
  }
  for (MethodId m = 0; m < schema.NumMethods(); ++m) {
    const Method& method = schema.method(m);
    out << "method " << method.label.view() << " "
        << schema.gf(method.gf).name.view() << " "
        << MethodKindToken(method.kind) << " (";
    for (size_t i = 0; i < method.sig.params.size(); ++i) {
      if (i > 0) out << " ";
      out << graph.TypeName(method.sig.params[i]);
    }
    out << ") -> " << graph.TypeName(method.sig.result);
    if (method.attr != kInvalidAttr) {
      out << " attr=" << graph.attribute(method.attr).name.view();
    }
    if (!method.param_names.empty()) {
      out << " params=";
      for (size_t i = 0; i < method.param_names.size(); ++i) {
        if (i > 0) out << ",";
        out << method.param_names[i].view();
      }
    }
    out << "\n";
  }
  for (MethodId m = 0; m < schema.NumMethods(); ++m) {
    const Method& method = schema.method(m);
    if (method.body == nullptr) continue;
    out << "body " << method.label.view() << " "
        << SerializeBody(schema, method.body) << "\n";
  }
  return out.str();
}

Result<Schema> DeserializeSchema(std::string_view text) {
  TYDER_ASSIGN_OR_RETURN(Schema schema, Schema::Create());
  size_t builtin_types = schema.types().NumTypes();

  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || Trim(line) != "tyder-schema v1") {
    return Status::ParseError("missing tyder-schema header");
  }
  size_t type_count = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string cmd;
    ls >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "type") {
      std::string name, kind;
      ls >> name >> kind;
      ++type_count;
      if (type_count <= builtin_types) continue;  // builtins pre-installed
      TypeKind k = kind == "surrogate" ? TypeKind::kSurrogate : TypeKind::kUser;
      TYDER_ASSIGN_OR_RETURN(TypeId id, schema.types().DeclareType(name, k));
      std::string extra;
      while (ls >> extra) {
        if (extra.rfind("source=", 0) == 0) {
          TYDER_ASSIGN_OR_RETURN(TypeId src,
                                 schema.types().FindType(extra.substr(7)));
          schema.types().mutable_type(id).set_surrogate_source(src);
        } else if (extra == "detached") {
          // Collapse removes the types it splices out, so this build cannot
          // reproduce such a schema's ids or its catalog's fold.
          return Status::ParseError(
              "type '" + name +
              "' is marked detached: this schema was written by a build "
              "whose Collapse kept the types it spliced out, and it is no "
              "longer read. To move the data, open the database with the "
              "previous build, run `tyderc --db <dir> --export`, and seed a "
              "new database from that TDL");
        }
      }
    } else if (cmd == "super") {
      std::string sub, super;
      ls >> sub >> super;
      TYDER_ASSIGN_OR_RETURN(TypeId sub_id, schema.types().FindType(sub));
      TYDER_ASSIGN_OR_RETURN(TypeId super_id, schema.types().FindType(super));
      if (sub_id >= builtin_types || super_id >= builtin_types) {
        TYDER_RETURN_IF_ERROR(schema.types().AddSupertype(sub_id, super_id));
      }
    } else if (cmd == "attr") {
      std::string name, value_type, owner;
      ls >> name >> value_type >> owner;
      TYDER_ASSIGN_OR_RETURN(TypeId vt, schema.types().FindType(value_type));
      TYDER_ASSIGN_OR_RETURN(TypeId ow, schema.types().FindType(owner));
      TYDER_RETURN_IF_ERROR(
          schema.types().DeclareAttribute(ow, name, vt).status());
    } else if (cmd == "gf") {
      std::string name;
      int arity = 0;
      ls >> name >> arity;
      TYDER_RETURN_IF_ERROR(
          schema.DeclareGenericFunction(name, arity).status());
    } else if (cmd == "method") {
      TYDER_RETURN_IF_ERROR(ParseMethodLine(schema, ls));
    } else if (cmd == "body") {
      std::string label;
      ls >> label;
      std::string rest;
      std::getline(ls, rest);
      TYDER_ASSIGN_OR_RETURN(MethodId m, schema.FindMethod(label));
      TYDER_ASSIGN_OR_RETURN(ExprPtr body, DeserializeBody(schema, rest));
      schema.SetMethodBody(m, std::move(body));
    } else {
      return Status::ParseError("unknown directive '" + cmd + "'");
    }
  }
  TYDER_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

// --- checksummed snapshot envelope ------------------------------------------

namespace {

constexpr char kSnapshotMagic[8] = {'t', 'y', 'd', 'r', 's', 'n', 'a', 'p'};
constexpr uint32_t kSnapshotVersion = 1;
constexpr size_t kSnapshotHeaderSize = 16;  // magic + version + payload length

void AppendLe32(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t ReadLe32(std::string_view bytes, size_t offset) {
  return static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset])) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 3]))
             << 24;
}

}  // namespace

std::string EncodeSnapshotEnvelope(std::string_view payload) {
  std::string out;
  out.reserve(kSnapshotHeaderSize + payload.size() + 4);
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendLe32(out, kSnapshotVersion);
  AppendLe32(out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  AppendLe32(out, storage::Crc32c(payload));
  return out;
}

Result<std::string> DecodeSnapshotEnvelope(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderSize) {
    return Status::ParseError(
        "truncated snapshot: " + std::to_string(bytes.size()) +
        " bytes is shorter than the " + std::to_string(kSnapshotHeaderSize) +
        "-byte header");
  }
  if (bytes.substr(0, sizeof(kSnapshotMagic)) !=
      std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic))) {
    return Status::ParseError("not a tyder snapshot (bad magic)");
  }
  uint32_t version = ReadLe32(bytes, 8);
  if (version == 0 || version > kSnapshotVersion) {
    return Status::ParseError(
        "snapshot format version " + std::to_string(version) +
        " is not supported by this build (newest supported: " +
        std::to_string(kSnapshotVersion) + ")");
  }
  uint64_t payload_len = ReadLe32(bytes, 12);
  uint64_t expected = kSnapshotHeaderSize + payload_len + 4;
  if (bytes.size() < expected) {
    return Status::ParseError(
        "truncated snapshot: header declares a " +
        std::to_string(payload_len) + "-byte payload but only " +
        std::to_string(bytes.size()) + " of " + std::to_string(expected) +
        " bytes are present");
  }
  if (bytes.size() > expected) {
    return Status::ParseError("snapshot has " +
                              std::to_string(bytes.size() - expected) +
                              " bytes of trailing garbage");
  }
  std::string_view payload = bytes.substr(kSnapshotHeaderSize, payload_len);
  uint32_t stored = ReadLe32(bytes, kSnapshotHeaderSize + payload_len);
  uint32_t actual = storage::Crc32c(payload);
  if (stored != actual) {
    std::ostringstream msg;
    msg << "snapshot checksum mismatch: stored 0x" << std::hex << stored
        << ", computed 0x" << actual;
    return Status::ParseError(msg.str());
  }
  return std::string(payload);
}

std::string SaveSchemaSnapshot(const Schema& schema) {
  return EncodeSnapshotEnvelope(SerializeSchema(schema));
}

Result<Schema> LoadSchemaSnapshot(std::string_view bytes) {
  TYDER_ASSIGN_OR_RETURN(std::string payload, DecodeSnapshotEnvelope(bytes));
  return DeserializeSchema(payload);
}

}  // namespace tyder
