// CowTable<T>: a shared, copy-on-write handle to one table of a schema (the
// type table, a name index, the method table, ...). Copying a handle shares
// the table and costs one reference count; the first Mutable() through a
// handle whose table another handle still holds clones the table and counts
// `schema.table_clones`, so a write never reaches a table that someone else
// reads. This is what makes a Schema copy — a transaction snapshot, a
// rollback, a view checkpoint, a published epoch — cost a handful of
// reference counts instead of a deep copy.
//
// Thread safety. Handles on different threads may share a table: a reader
// thread holding a published epoch reads it while the writer tip mutates its
// own handle. The uniqueness test therefore synchronizes with the other
// holders' releases (an acquire load that pairs with the acq_rel decrement,
// as Rust's Arc::make_mut does); std::shared_ptr::use_count() is a relaxed
// load and gives no such ordering. One handle is not thread-safe on its own.
//
// A reference obtained from a handle is valid only until the next Mutable()
// on it: when the table was shared, Mutable() moves the handle to its clone.
// A default-constructed or moved-from handle reads as an empty table.

#ifndef TYDER_COMMON_COW_H_
#define TYDER_COMMON_COW_H_

#include <atomic>
#include <cstddef>
#include <utility>

namespace tyder {

namespace cow_internal {
// Bumps the `schema.table_clones` counter (out of line, so this header does
// not pull in the metrics registry).
void CountTableClone();
}  // namespace cow_internal

template <typename T>
class CowTable {
 public:
  CowTable() : node_(Empty()) { Ref(node_); }
  CowTable(const CowTable& other) : node_(other.node_) { Ref(node_); }
  CowTable(CowTable&& other) noexcept : node_(other.node_) {
    other.node_ = Empty();
    Ref(other.node_);
  }
  CowTable& operator=(const CowTable& other) {
    Ref(other.node_);
    Unref(node_);
    node_ = other.node_;
    return *this;
  }
  // Swaps: the moved-from handle releases this one's old table when it dies.
  CowTable& operator=(CowTable&& other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~CowTable() { Unref(node_); }

  const T& operator*() const { return node_->value; }
  const T* operator->() const { return &node_->value; }

  // The table, cloned first if another handle holds it.
  T& Mutable() {
    if (node_->refs.load(std::memory_order_acquire) != 1) {
      // The shared empty table is not a clone of anything.
      if (node_ != Empty()) cow_internal::CountTableClone();
      Node* clone = new Node(node_->value);
      Unref(node_);
      node_ = clone;
    }
    return node_->value;
  }

 private:
  struct Node {
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<size_t> refs{1};
    T value;
  };

  // One empty table per T, shared by every default-constructed and
  // moved-from handle. It holds a reference of its own, so it is never freed.
  static Node* Empty() {
    static Node* const empty = new Node(T{});
    return empty;
  }
  static void Ref(Node* node) {
    node->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Unref(Node* node) {
    if (node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete node;
  }

  Node* node_;
};

}  // namespace tyder

#endif  // TYDER_COMMON_COW_H_
