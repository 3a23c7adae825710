// DispatchIndex: everything Dispatch and DispatchOrder need to pick a
// method, precomputed once per schema version and immutable afterwards.
//
//   - Rank rows: for every type T and every formal F of a generic function
//     (gf) with two or more methods, F's position in T's class precedence
//     list (objmodel/linearize.h), or "absent" when T is not a subtype of F.
//   - Applicability masks: for each such gf, argument position and type T, a
//     bitset over the gf's methods (registration order) with bit j set iff
//     T ≼ formal_j there. A call's applicable set is the AND of one mask per
//     position.
//   - Unary answers: for each such gf of arity 1, the method every type
//     dispatches to.
//
// The most specific applicable method is the first strict minimum under the
// ranks (paper Section 4: at the first position whose formals differ, the
// formal earlier in the actual's CPL wins), which is the front of
// SortBySpecificity's stable order: identical-formal twins resolve
// by registration order. A one-method gf needs no index, only one IsSubtype
// per position.
//
// A Schema owns its index through a DispatchIndexSlot. The first read at a
// version builds it; later reads reach it through an atomic pointer, with no
// lock, no reference count and no allocation.

#ifndef TYDER_METHODS_DISPATCH_INDEX_H_
#define TYDER_METHODS_DISPATCH_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/ids.h"

namespace tyder {

class Schema;

class DispatchIndex {
 public:
  // The index of `schema` at its current version, built on first use. The
  // queries below take that same schema, unmutated since.
  static const DispatchIndex& Of(const Schema& schema);

  // Methods of `gf` applicable to the call, in registration order; empty on
  // an arity mismatch.
  std::vector<MethodId> Applicable(const Schema& schema, GfId gf,
                                   const std::vector<TypeId>& args) const;

  // The most specific applicable method, or kInvalidMethod if none applies.
  // `args` must match the gf's arity.
  MethodId Select(const Schema& schema, GfId gf,
                  std::span<const TypeId> args) const;

  // Applicable methods, most specific first, ties in registration order.
  std::vector<MethodId> Order(const Schema& schema, GfId gf,
                              const std::vector<TypeId>& args) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Where one gf with two or more methods lives in the flat arrays below;
  // words == 0 for gfs with fewer methods.
  struct Gf {
    uint32_t arity = 0;
    uint32_t words = 0;  // mask words per (position, type)
    size_t masks = 0;    // masks_[masks + (pos * num_types_ + t) * words]
    size_t cols = 0;     // cols_[cols + j * arity + pos]
    size_t unary = 0;    // unary_[unary + t], arity 1 only
  };

  explicit DispatchIndex(const Schema& schema);

  // Index (registration order) of the first strict minimum among the
  // applicable methods, or kNone.
  uint32_t Best(const Gf& g, const TypeId* args) const;
  // Method a is more specific than method b for the call.
  bool MoreSpecific(const Gf& g, uint32_t a, uint32_t b,
                    const TypeId* args) const;
  // Calls fn(j) for the index j of each applicable method, ascending.
  template <typename Fn>
  void ForEachApplicable(const Gf& g, const TypeId* args, Fn&& fn) const;
  const uint64_t* Mask(const Gf& g, size_t pos, TypeId t) const {
    return masks_.data() + g.masks + (pos * num_types_ + t) * g.words;
  }

  uint64_t version_ = 0;
  size_t num_types_ = 0;
  size_t num_cols_ = 0;  // distinct formals of multi-method gfs
  std::vector<Gf> gfs_;
  std::vector<uint32_t> ranks_;  // [type][column]; kNone if absent
  std::vector<uint32_t> cols_;   // formal column per method and position
  std::vector<uint64_t> masks_;
  std::vector<MethodId> unary_;
};

// Holds a schema's index and publishes it the way TypeGraph publishes its
// closure: an atomic pointer read lock-free, builds serialized by a mutex,
// the replaced index parked until the next build. A build happens only after
// a mutation has changed the version, and mutation requires exclusive access,
// so by then no reader can still hold the parked index. Copies and moves
// start empty and assignment empties the slot: a copy-assign (a transaction
// rollback) can bring back a version number the slot has seen with other
// content.
class DispatchIndexSlot {
 public:
  DispatchIndexSlot() = default;
  DispatchIndexSlot(const DispatchIndexSlot&) {}
  DispatchIndexSlot(DispatchIndexSlot&& other) noexcept { other.Reset(); }
  DispatchIndexSlot& operator=(const DispatchIndexSlot&) {
    Reset();
    return *this;
  }
  DispatchIndexSlot& operator=(DispatchIndexSlot&& other) noexcept {
    Reset();
    other.Reset();
    return *this;
  }

 private:
  friend class DispatchIndex;

  void Reset();

  std::atomic<const DispatchIndex*> published_{nullptr};
  std::mutex mu_;
  std::unique_ptr<const DispatchIndex> owner_;
  std::unique_ptr<const DispatchIndex> retired_;
};

}  // namespace tyder

#endif  // TYDER_METHODS_DISPATCH_INDEX_H_
