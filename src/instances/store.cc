#include "instances/store.h"

namespace tyder {

Value DefaultValueFor(const Schema& schema, TypeId type) {
  const BuiltinTypes& b = schema.builtins();
  if (type == b.int_type || type == b.date_type) return Value::Int(0);
  if (type == b.float_type) return Value::Float(0.0);
  if (type == b.bool_type) return Value::Bool(false);
  if (type == b.string_type) return Value::String("");
  return Value::Void();
}

Result<ObjectId> ObjectStore::CreateObject(const Schema& schema, TypeId type) {
  if (type >= schema.types().NumTypes()) {
    return Status::InvalidArgument("type id out of range");
  }
  Object obj;
  obj.type = type;
  for (AttrId a : schema.types().CumulativeAttributes(type)) {
    obj.slots.emplace(a,
                      DefaultValueFor(schema, schema.types().attribute(a).value_type));
  }
  ObjectId id = static_cast<ObjectId>(objects_.size());
  objects_.push_back(std::move(obj));
  types_.push_back(type);
  return id;
}

Result<ObjectId> ObjectStore::CreateDelegatingObject(const Schema& schema,
                                                     TypeId type,
                                                     ObjectId base) {
  if (type >= schema.types().NumTypes()) {
    return Status::InvalidArgument("type id out of range");
  }
  if (base >= objects_.size()) {
    return Status::InvalidArgument("base object id out of range");
  }
  // Every attribute of the view type must resolve on the base chain.
  for (AttrId a : schema.types().CumulativeAttributes(type)) {
    if (!GetSlot(base, a).ok()) {
      return Status::FailedPrecondition(
          "base object cannot answer attribute '" +
          schema.types().attribute(a).name.str() + "' of the view type");
    }
  }
  Object obj;
  obj.type = type;
  obj.base = base;
  ObjectId id = static_cast<ObjectId>(objects_.size());
  objects_.push_back(std::move(obj));
  types_.push_back(type);
  return id;
}

Result<Value> ObjectStore::GetSlot(ObjectId id, AttrId attr) const {
  while (id < objects_.size()) {
    auto it = objects_[id].slots.find(attr);
    if (it != objects_[id].slots.end()) return it->second;
    if (objects_[id].base == kInvalidObject) break;
    id = objects_[id].base;
  }
  if (id >= objects_.size()) {
    return Status::InvalidArgument("object id out of range");
  }
  return Status::NotFound("object has no slot for the requested attribute");
}

void ObjectStore::Prefetch(ObjectId id, std::span<const AttrId> attrs) const {
  for (AttrId attr : attrs) {
    for (ObjectId at = id; at < objects_.size(); at = objects_[at].base) {
      auto it = objects_[at].slots.find(attr);
      if (it != objects_[at].slots.end()) {
        __builtin_prefetch(&it->second);
        break;
      }
    }
  }
}

Status ObjectStore::SetSlot(ObjectId id, AttrId attr, Value value) {
  while (id < objects_.size()) {
    auto it = objects_[id].slots.find(attr);
    if (it != objects_[id].slots.end()) {
      it->second = std::move(value);
      return Status::OK();
    }
    if (objects_[id].base == kInvalidObject) break;
    id = objects_[id].base;
  }
  if (id >= objects_.size()) {
    return Status::InvalidArgument("object id out of range");
  }
  return Status::NotFound("object has no slot for the requested attribute");
}

std::vector<ObjectId> ObjectStore::DirectExtent(TypeId type) const {
  std::vector<ObjectId> out;
  for (ObjectId id = 0; id < types_.size(); ++id) {
    if (types_[id] == type) out.push_back(id);
  }
  return out;
}

std::vector<ObjectId> ObjectStore::Extent(const Schema& schema,
                                          TypeId type) const {
  const std::vector<uint8_t> member = MembershipRow(schema, type);
  std::vector<ObjectId> out;
  for (ObjectId id = 0; id < types_.size(); ++id) {
    if (types_[id] < member.size() && member[types_[id]]) out.push_back(id);
  }
  return out;
}

std::vector<uint8_t> MembershipRow(const Schema& schema, TypeId type) {
  const TypeGraph& types = schema.types();
  std::vector<uint8_t> row(types.NumTypes(), 0);
  if (type >= row.size()) return row;
  for (TypeId t = 0; t < row.size(); ++t) row[t] = types.IsSubtype(t, type);
  return row;
}

}  // namespace tyder
