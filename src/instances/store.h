// ObjectStore: instances and per-type extents. The paper decouples types from
// extents (Section 1, ref [3]); the store keeps an explicit extent per type —
// the set of objects created with that type — and membership queries follow
// subtype semantics (an instance of A is an instance of every supertype).
//
// Beside the objects the store keeps a dense column of their creation types,
// so a scan decides membership from that column and one membership row per
// extent (MembershipRow) and touches an Object only when it is a member.

#ifndef TYDER_INSTANCES_STORE_H_
#define TYDER_INSTANCES_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "instances/object.h"
#include "methods/schema.h"

namespace tyder {

class ObjectStore {
 public:
  // Creates an instance of `type` with every cumulative attribute initialized
  // to a type-appropriate zero value.
  Result<ObjectId> CreateObject(const Schema& schema, TypeId type);

  // Creates an object-preserving view instance: an object of `type` with no
  // slots of its own that resolves every attribute against `base`
  // (transitively). Updates through the view are visible in the base and
  // vice versa. Every cumulative attribute of `type` must be resolvable on
  // the base chain.
  Result<ObjectId> CreateDelegatingObject(const Schema& schema, TypeId type,
                                          ObjectId base);

  size_t NumObjects() const { return objects_.size(); }
  const Object& object(ObjectId id) const { return objects_[id]; }

  // Creation types by object id (the column Object::type mirrors). A
  // creation type never changes; it may lie at or past the schema's
  // NumTypes once the view that defined it is dropped.
  const std::vector<TypeId>& creation_types() const { return types_; }
  // The creation type of `id`, or kInvalidType for an id out of range.
  TypeId creation_type(ObjectId id) const {
    return id < types_.size() ? types_[id] : kInvalidType;
  }

  // Appends a fully formed object as-is (deserialization); the caller owns
  // slot consistency. Returns the assigned id (always NumObjects()-1).
  ObjectId RestoreObject(Object obj) {
    types_.push_back(obj.type);
    objects_.push_back(std::move(obj));
    return static_cast<ObjectId>(objects_.size() - 1);
  }

  // Inserts a slot directly on `id` (no base-chain walk, creates the slot if
  // absent) — deserialization only; SetSlot is the behavioral write path.
  Status RestoreSlot(ObjectId id, AttrId attr, Value value) {
    if (id >= objects_.size()) {
      return Status::InvalidArgument("object id out of range");
    }
    objects_[id].slots[attr] = std::move(value);
    return Status::OK();
  }

  Result<Value> GetSlot(ObjectId id, AttrId attr) const;
  Status SetSlot(ObjectId id, AttrId attr, Value value);

  // Looks up the slots `attrs` of `id` the way GetSlot does, without
  // reading them out, so that they are in cache when GetSlot comes. A scan
  // calls it for a group of members before it evaluates them: the lookups
  // of different objects are independent, so their cache misses overlap
  // instead of following one another.
  void Prefetch(ObjectId id, std::span<const AttrId> attrs) const;

  // Objects whose creation type is exactly `type`.
  std::vector<ObjectId> DirectExtent(TypeId type) const;
  // Objects whose creation type is `type` or a subtype (the paper's notion of
  // instance-of under inclusion polymorphism), in ascending id order.
  std::vector<ObjectId> Extent(const Schema& schema, TypeId type) const;

 private:
  std::vector<Object> objects_;
  std::vector<TypeId> types_;  // creation type per object id
};

// The membership row of the extent of `type`: row[t] != 0 iff objects created
// with type t are instances of `type` (t ≼ type), for every type id t below
// the schema's NumTypes. One IsSubtype per type id. A creation type at or past
// NumTypes (a dropped view's) has no entry and belongs to no extent.
std::vector<uint8_t> MembershipRow(const Schema& schema, TypeId type);

// Zero value for a builtin value type; objects/unknowns default to Void.
Value DefaultValueFor(const Schema& schema, TypeId type);

}  // namespace tyder

#endif  // TYDER_INSTANCES_STORE_H_
