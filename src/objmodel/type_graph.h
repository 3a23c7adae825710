// TypeGraph: the type hierarchy of a schema — a rooted DAG of Type nodes with
// ordered (precedence-carrying) supertype edges, plus the global attribute
// registry. Implements the subtype relation ≼, cumulative-state queries with
// once-only diamond inheritance, and the structural validation rules of the
// paper's model (Section 2).

#ifndef TYDER_OBJMODEL_TYPE_GRAPH_H_
#define TYDER_OBJMODEL_TYPE_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "common/status.h"
#include "common/symbol.h"
#include "objmodel/attribute.h"
#include "objmodel/type.h"

namespace tyder {

class TypeGraph {
 public:
  TypeGraph() = default;

  // A copy shares the type table, the attribute table and both name indexes
  // with the original (common/cow.h): it costs four reference counts, and
  // each mutator clones only the tables it writes, on its first write. The
  // ancestor closure is a derived cache, never copied or moved: a copy starts
  // cold and rebuilds on its first query (see SubtypeCacheTest.
  // CopiedGraphHasIndependentCache).
  //
  // A reference from type(), attribute() or mutable_type() must not be held
  // across a mutator: the first write after a copy moves the live table.
  TypeGraph(const TypeGraph& other);
  TypeGraph& operator=(const TypeGraph& other);
  TypeGraph(TypeGraph&& other) noexcept;
  TypeGraph& operator=(TypeGraph&& other) noexcept;

  // --- construction -------------------------------------------------------

  // Declares a new type with no supertypes and no attributes. Fails with
  // AlreadyExists on a duplicate name.
  Result<TypeId> DeclareType(std::string_view name, TypeKind kind);

  // Declares a surrogate type spun off from `source` (Sections 5–6).
  Result<TypeId> DeclareSurrogate(std::string_view name, TypeId source);

  // Appends `super` as the lowest-precedence direct supertype of `sub`.
  // Rejects self edges, duplicates, and edges that would create a cycle.
  Status AddSupertype(TypeId sub, TypeId super);

  // Declares attribute `name` of type `value_type`, locally owned by `owner`.
  // Attribute names are globally unique (paper Section 2.1 simplification).
  Result<AttrId> DeclareAttribute(TypeId owner, std::string_view name,
                                  TypeId value_type);

  // Re-homes attribute `a` so that `new_owner` defines it locally (used by
  // FactorState when moving state to a surrogate).
  Status MoveAttribute(AttrId a, TypeId new_owner);

  // Deletes every type t with removed[t] set and renumbers the others in
  // their old order. Returns each old id's new id, kInvalidType for a
  // deleted type. A deleted type must own no attribute, type no attribute
  // and be no surviving type's direct supertype (empty-surrogate collapse
  // splices it out first). A surviving surrogate whose source is deleted
  // takes that source's nearest surviving source instead.
  std::vector<TypeId> RemoveTypes(const std::vector<bool>& removed);

  // --- lookup --------------------------------------------------------------

  size_t NumTypes() const { return types_->size(); }
  size_t NumAttributes() const { return attrs_->size(); }

  const Type& type(TypeId t) const { return (*types_)[t]; }
  // Handing out a mutable node may change the edge structure, so this
  // conservatively invalidates the subtype closure.
  Type& mutable_type(TypeId t) {
    Invalidate();
    return types_.Mutable()[t];
  }

  const AttributeDef& attribute(AttrId a) const { return (*attrs_)[a]; }

  Result<TypeId> FindType(std::string_view name) const;
  Result<AttrId> FindAttribute(std::string_view name) const;
  std::string TypeName(TypeId t) const { return type(t).name().str(); }

  // Mutation counter. Any (possible) change to the node/edge structure or
  // the attributes bumps it; derived caches (the closure below, Schema's
  // dispatch index) key their validity on it.
  uint64_t version() const { return version_; }

  // --- relations -----------------------------------------------------------

  // a ≼ b: reflexive-transitive subtype relation, answered with a single
  // word-test against the packed ancestor bitset of `a`. The closure is
  // published atomically and its rows are built lazily — a mutation only
  // retires it, and each post-mutation query pays for the one row (plus its
  // ancestors) it touches — so a structurally frozen (read-only) graph may
  // be queried from many threads concurrently while mutation-heavy phases
  // never recompute more than they read. Mutation is NOT thread-safe and
  // must not overlap any query.
  bool IsSubtype(TypeId a, TypeId b) const;

  // The packed ancestor row of `t` that IsSubtype reads: bit b (word b / 64,
  // bit b % 64) is set iff t ≼ b, over NumTypes() bits. The row is built on
  // first use, as for IsSubtype, even with the cache disabled; the span stays
  // valid until the graph is next mutated.
  std::span<const uint64_t> AncestorRow(TypeId t) const;

  // Disables/enables the ancestor-closure cache (ablation benches; default
  // on). When disabled every query walks the DAG.
  void set_subtype_cache_enabled(bool enabled) {
    cache_enabled_ = enabled;
    Invalidate();
  }
  bool IsProperSubtype(TypeId a, TypeId b) const {
    return a != b && IsSubtype(a, b);
  }

  // All supertypes of `t` including `t` itself, in precedence-respecting BFS
  // order from `t` (deterministic; t first).
  std::vector<TypeId> SupertypeClosure(TypeId t) const;

  // All subtypes of `t` including `t` itself.
  std::vector<TypeId> SubtypeClosure(TypeId t) const;

  // Cumulative attributes of `t`: local attributes of every type in the
  // supertype closure, deduplicated (diamonds contribute once), in closure
  // order then declaration order. This is the "state" of `t`.
  std::vector<AttrId> CumulativeAttributes(TypeId t) const;

  // True iff attribute `a` is part of the cumulative state of `t` ("available
  // at" in the paper's FactorState).
  bool AttributeAvailableAt(TypeId t, AttrId a) const;

  // --- validation ----------------------------------------------------------

  // Checks global invariants: acyclicity, edge/owner index consistency, and
  // that each type's local attribute list matches attribute ownership.
  Status Validate() const;

 private:
  // Transitive-closure ancestor sets, one packed bitset row per type: bit b
  // of row a is set iff a ≼ b. Rows are filled lazily, supertypes-first
  // (topological order), so each row is the OR of its direct supertypes'
  // rows plus its own bit. A row is immutable once its `row_built` flag is
  // set; the flag is the publication point: BuildRow fills `bits` under
  // `closure_mu_` and release-stores the flag, readers acquire-load it
  // before touching the row, so warm-row queries stay lock-free.
  struct Closure {
    uint64_t version = 0;  // graph version the closure was allocated at
    size_t num_types = 0;
    size_t words = 0;     // words per row (row stride)
    size_t rows_cap = 0;  // rows the arrays can hold (≥ num_types; the
                          // allocation is recycled across rebuilds)
    // Allocated uninitialized; BuildRow zeroes each row before filling it,
    // so an allocation after a mutation costs O(num_types) flag bytes, not
    // O(num_types × words) bitset words.
    mutable std::unique_ptr<uint64_t[]> bits;
    mutable std::unique_ptr<std::atomic<uint8_t>[]> row_built;

    bool RowReady(TypeId a) const {
      return row_built[a].load(std::memory_order_acquire) != 0;
    }
    bool Test(TypeId a, TypeId b) const {
      return (bits[a * words + (b >> 6)] >> (b & 63)) & 1u;
    }
  };

  // Returns the closure for the current version, allocating an empty (no
  // rows built) one if stale. Row content is produced by BuildRow.
  const Closure* closure() const;
  const Closure* BuildClosure() const;
  // Fills one row with a single ancestor walk (cold-query path).
  void BuildRow(const Closure* c, TypeId root) const;
  bool UncachedWalk(TypeId a, TypeId b) const;

  // Marks every derived structure stale. Called from every mutator; mutation
  // requires exclusive access, so this may also free retired closures that
  // concurrent readers could otherwise still be dereferencing.
  void Invalidate();

  // The tables, shared copy-on-write between copies of the graph.
  CowTable<std::vector<Type>> types_;
  CowTable<std::vector<AttributeDef>> attrs_;
  CowTable<std::unordered_map<Symbol, TypeId, SymbolHash>> type_index_;
  CowTable<std::unordered_map<Symbol, AttrId, SymbolHash>> attr_index_;

  uint64_t version_ = 0;
  bool cache_enabled_ = true;

  // Lazily built closure, atomically published for lock-free reads. The
  // mutex serializes builds. Invalidate() runs with exclusive access, so it
  // reclaims the live closure into `closure_spare_` for the next build to
  // recycle (mutate→query loops would otherwise malloc a closure per
  // cycle). `closure_retired_` parks any closure replaced while readers
  // could still hold its raw pointer; it is freed on the next mutation.
  mutable std::atomic<const Closure*> closure_published_{nullptr};
  mutable std::mutex closure_mu_;
  mutable std::unique_ptr<Closure> closure_owner_;
  mutable std::unique_ptr<Closure> closure_spare_;
  mutable std::vector<std::unique_ptr<Closure>> closure_retired_;
};

}  // namespace tyder

#endif  // TYDER_OBJMODEL_TYPE_GRAPH_H_
