// Runtime values for the instance substrate. A Value is void, a primitive
// (Int/Float/Bool/String — Date is carried as an Int day number), or a
// reference to an object in an ObjectStore.

#ifndef TYDER_INSTANCES_VALUE_H_
#define TYDER_INSTANCES_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "common/ids.h"

namespace tyder {

using ObjectId = uint32_t;
inline constexpr ObjectId kInvalidObject = kInvalidId;

struct ObjectRef {
  ObjectId id = kInvalidObject;
  friend bool operator==(ObjectRef a, ObjectRef b) { return a.id == b.id; }
};

class Value {
 public:
  Value() : v_(std::monostate{}) {}  // void
  static Value Void() { return Value(); }
  // Each builds its alternative in place, with no temporary variant to move.
  static Value Int(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Float(double v) { return Value(std::in_place_type<double>, v); }
  static Value Bool(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value String(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }
  static Value Object(ObjectId id) {
    return Value(std::in_place_type<ObjectRef>, ObjectRef{id});
  }

  bool is_void() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_float() const { return std::holds_alternative<double>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_object() const { return std::holds_alternative<ObjectRef>(v_); }
  bool is_numeric() const { return is_int() || is_float(); }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsFloat() const { return std::get<double>(v_); }
  // Numeric widening for arithmetic.
  double AsDouble() const { return is_int() ? static_cast<double>(AsInt()) : AsFloat(); }
  bool AsBool() const { return std::get<bool>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }
  ObjectId AsObject() const { return std::get<ObjectRef>(v_).id; }

  friend bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }

  std::string ToString() const;

 private:
  using Repr =
      std::variant<std::monostate, int64_t, double, bool, std::string, ObjectRef>;
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> tag, Arg&& arg)
      : v_(tag, std::forward<Arg>(arg)) {}
  Repr v_;
};

}  // namespace tyder

#endif  // TYDER_INSTANCES_VALUE_H_
