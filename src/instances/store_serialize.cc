#include "instances/store_serialize.h"

#include <cstdio>
#include <sstream>

#include "common/string_util.h"

namespace tyder {

namespace {

std::string EncodeValue(const Value& v) {
  if (v.is_void()) return "v";
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_float()) {
    // Hexfloat: exact binary round trip.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "f:%a", v.AsFloat());
    return buf;
  }
  if (v.is_bool()) return v.AsBool() ? "b:1" : "b:0";
  if (v.is_object()) return "o:" + std::to_string(v.AsObject());
  std::string out = "s:\"";
  for (char c : v.AsString()) {
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

Result<Value> DecodeValue(std::string_view text) {
  if (text == "v") return Value::Void();
  if (text.size() < 2 || text[1] != ':') {
    return Status::ParseError("malformed value '" + std::string(text) + "'");
  }
  std::string payload(text.substr(2));
  switch (text[0]) {
    case 'i': {
      TYDER_ASSIGN_OR_RETURN(int64_t value, ParseNumber<int64_t>(payload));
      return Value::Int(value);
    }
    case 'f':
      return Value::Float(std::strtod(payload.c_str(), nullptr));
    case 'b':
      return Value::Bool(payload == "1");
    case 'o': {
      TYDER_ASSIGN_OR_RETURN(ObjectId id, ParseNumber<ObjectId>(payload));
      return Value::Object(id);
    }
    case 's': {
      if (payload.size() < 2 || payload.front() != '"' ||
          payload.back() != '"') {
        return Status::ParseError("malformed string value");
      }
      std::string out;
      for (size_t i = 1; i + 1 < payload.size(); ++i) {
        if (payload[i] == '\\' && i + 2 < payload.size()) {
          ++i;
          out += payload[i] == 'n' ? '\n' : payload[i];
        } else {
          out += payload[i];
        }
      }
      return Value::String(std::move(out));
    }
    default:
      return Status::ParseError("unknown value tag '" +
                                std::string(text.substr(0, 1)) + "'");
  }
}

}  // namespace

std::string SerializeStore(const Schema& schema, const ObjectStore& store) {
  std::ostringstream out;
  out << "tyder-store v1\n";
  for (ObjectId id = 0; id < store.NumObjects(); ++id) {
    const Object& obj = store.object(id);
    out << "obj " << schema.types().TypeName(obj.type);
    if (obj.base != kInvalidObject) out << " base=" << obj.base;
    out << "\n";
  }
  for (ObjectId id = 0; id < store.NumObjects(); ++id) {
    const Object& obj = store.object(id);
    // Deterministic order: cumulative attribute order of the object's type.
    for (AttrId a : schema.types().CumulativeAttributes(obj.type)) {
      auto it = obj.slots.find(a);
      if (it == obj.slots.end()) continue;
      out << "slot " << id << " " << schema.types().attribute(a).name.view()
          << " " << EncodeValue(it->second) << "\n";
    }
  }
  return out.str();
}

Result<ObjectStore> DeserializeStore(const Schema& schema,
                                     std::string_view text) {
  ObjectStore store;
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || Trim(line) != "tyder-store v1") {
    return Status::ParseError("missing tyder-store header");
  }
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string cmd;
    ls >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "obj") {
      std::string type_name;
      ls >> type_name;
      TYDER_ASSIGN_OR_RETURN(TypeId type, schema.types().FindType(type_name));
      Object obj;
      obj.type = type;
      std::string extra;
      if (ls >> extra && extra.rfind("base=", 0) == 0) {
        TYDER_ASSIGN_OR_RETURN(
            obj.base, ParseNumber<ObjectId>(std::string_view(extra).substr(5)));
      }
      store.RestoreObject(std::move(obj));
    } else if (cmd == "slot") {
      ObjectId id = 0;
      std::string attr_name;
      ls >> id >> attr_name;
      std::string rest;
      std::getline(ls, rest);
      TYDER_ASSIGN_OR_RETURN(AttrId attr,
                             schema.types().FindAttribute(attr_name));
      TYDER_ASSIGN_OR_RETURN(Value value, DecodeValue(Trim(rest)));
      TYDER_RETURN_IF_ERROR(store.RestoreSlot(id, attr, std::move(value)));
    } else {
      return Status::ParseError("unknown directive '" + cmd + "'");
    }
  }
  return store;
}

}  // namespace tyder
