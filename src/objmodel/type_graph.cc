#include "objmodel/type_graph.h"

#include <algorithm>
#include <deque>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "obs/obs.h"

namespace tyder {

TypeGraph::TypeGraph(const TypeGraph& other)
    : types_(other.types_),
      attrs_(other.attrs_),
      type_index_(other.type_index_),
      attr_index_(other.attr_index_),
      version_(other.version_),
      cache_enabled_(other.cache_enabled_) {}

TypeGraph& TypeGraph::operator=(const TypeGraph& other) {
  if (this == &other) return *this;
  types_ = other.types_;
  attrs_ = other.attrs_;
  type_index_ = other.type_index_;
  attr_index_ = other.attr_index_;
  version_ = other.version_;
  cache_enabled_ = other.cache_enabled_;
  // The assigned-over graph may have published a closure for its old
  // structure; drop it. Assignment implies exclusive access (see Invalidate).
  std::lock_guard<std::mutex> lock(closure_mu_);
  closure_retired_.clear();
  closure_owner_.reset();
  closure_spare_.reset();
  closure_published_.store(nullptr, std::memory_order_release);
  return *this;
}

TypeGraph::TypeGraph(TypeGraph&& other) noexcept
    : types_(std::move(other.types_)),
      attrs_(std::move(other.attrs_)),
      type_index_(std::move(other.type_index_)),
      attr_index_(std::move(other.attr_index_)),
      version_(other.version_),
      cache_enabled_(other.cache_enabled_) {
  // The moved-from graph's closure no longer describes its (emptied)
  // structure.
  std::lock_guard<std::mutex> lock(other.closure_mu_);
  other.closure_retired_.clear();
  other.closure_owner_.reset();
  other.closure_spare_.reset();
  other.closure_published_.store(nullptr, std::memory_order_release);
}

TypeGraph& TypeGraph::operator=(TypeGraph&& other) noexcept {
  if (this == &other) return *this;
  types_ = std::move(other.types_);
  attrs_ = std::move(other.attrs_);
  type_index_ = std::move(other.type_index_);
  attr_index_ = std::move(other.attr_index_);
  version_ = other.version_;
  cache_enabled_ = other.cache_enabled_;
  {
    std::lock_guard<std::mutex> lock(closure_mu_);
    closure_retired_.clear();
    closure_owner_.reset();
    closure_spare_.reset();
    closure_published_.store(nullptr, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(other.closure_mu_);
    other.closure_retired_.clear();
    other.closure_owner_.reset();
    other.closure_spare_.reset();
    other.closure_published_.store(nullptr, std::memory_order_release);
  }
  return *this;
}

void TypeGraph::Invalidate() {
  ++version_;
  // Mutation requires exclusive access, so no reader can be holding a
  // retired closure pointer across this call; free everything eagerly
  // rather than letting rebuild churn accumulate. The live closure's
  // allocation is reclaimed, not freed: the next build recycles it, so a
  // mutate→query loop does not malloc per cycle.
  std::lock_guard<std::mutex> lock(closure_mu_);
  closure_retired_.clear();
  if (closure_owner_ != nullptr) closure_spare_ = std::move(closure_owner_);
  closure_published_.store(nullptr, std::memory_order_release);
}

Result<TypeId> TypeGraph::DeclareType(std::string_view name, TypeKind kind) {
  if (name.empty()) {
    return Status::InvalidArgument("type name must be non-empty");
  }
  Symbol sym = Symbol::Intern(name);
  if (type_index_.count(sym) > 0) {
    return Status::AlreadyExists("type '" + std::string(name) +
                                 "' already declared");
  }
  TypeId id = static_cast<TypeId>(types_.size());
  types_.emplace_back(sym, kind);
  type_index_.emplace(sym, id);
  Invalidate();  // new node: the closure has the wrong row count
  return id;
}

Result<TypeId> TypeGraph::DeclareSurrogate(std::string_view name,
                                           TypeId source) {
  if (source >= types_.size()) {
    return Status::InvalidArgument("surrogate source out of range");
  }
  TYDER_ASSIGN_OR_RETURN(TypeId id, DeclareType(name, TypeKind::kSurrogate));
  types_[id].set_surrogate_source(source);
  return id;
}

Status TypeGraph::AddSupertype(TypeId sub, TypeId super) {
  if (sub >= types_.size() || super >= types_.size()) {
    return Status::InvalidArgument("type id out of range");
  }
  if (sub == super) {
    return Status::InvalidArgument("type '" + TypeName(sub) +
                                   "' cannot be its own supertype");
  }
  if (types_[sub].HasDirectSupertype(super)) {
    return Status::AlreadyExists("'" + TypeName(super) +
                                 "' is already a direct supertype of '" +
                                 TypeName(sub) + "'");
  }
  // super ≼ sub would close a cycle. Checked with the exact walk (as in
  // Validate()) rather than IsSubtype so that bulk hierarchy construction
  // never allocates or populates closure state it immediately invalidates.
  if (UncachedWalk(super, sub)) {
    return Status::FailedPrecondition(
        "adding supertype '" + TypeName(super) + "' to '" + TypeName(sub) +
        "' would create a cycle");
  }
  types_[sub].AppendSupertype(super);
  // Chaos hook for the differential fuzzer (tests/fuzz): when armed, the
  // edge lands but the stale ancestor-bitset closure stays published — the
  // exact bug a forgotten Invalidate() would be. Memory-safe by construction
  // (no types were added, so every row stays in bounds); already-built rows
  // simply keep their pre-edge ancestor sets until the next real mutation.
  if (TYDER_FAULT_CONSUME("chaos.skip_closure_invalidation")) {
    return Status::OK();
  }
  Invalidate();
  return Status::OK();
}

Result<AttrId> TypeGraph::DeclareAttribute(TypeId owner, std::string_view name,
                                           TypeId value_type) {
  if (owner >= types_.size() || value_type >= types_.size()) {
    return Status::InvalidArgument("type id out of range");
  }
  if (name.empty()) {
    return Status::InvalidArgument("attribute name must be non-empty");
  }
  Symbol sym = Symbol::Intern(name);
  if (attr_index_.count(sym) > 0) {
    return Status::AlreadyExists("attribute '" + std::string(name) +
                                 "' already declared (attribute names are "
                                 "globally unique)");
  }
  AttrId id = static_cast<AttrId>(attrs_.size());
  attrs_.push_back(AttributeDef{sym, value_type, owner});
  attr_index_.emplace(sym, id);
  types_[owner].AddLocalAttribute(id);
  // No edge changed, but the version must still move: the catalog's op log
  // detects edits made outside it by a break in the version chain.
  Invalidate();
  return id;
}

Status TypeGraph::MoveAttribute(AttrId a, TypeId new_owner) {
  if (a >= attrs_.size() || new_owner >= types_.size()) {
    return Status::InvalidArgument("id out of range");
  }
  TypeId old_owner = attrs_[a].owner;
  if (old_owner == new_owner) return Status::OK();
  if (!types_[old_owner].RemoveLocalAttribute(a)) {
    return Status::Internal("attribute '" + attrs_[a].name.str() +
                            "' missing from owner's local list");
  }
  attrs_[a].owner = new_owner;
  types_[new_owner].AddLocalAttribute(a);
  return Status::OK();
}

Result<TypeId> TypeGraph::FindType(std::string_view name) const {
  auto it = type_index_.find(Symbol::Intern(name));
  if (it == type_index_.end()) {
    return Status::NotFound("no type named '" + std::string(name) + "'");
  }
  return it->second;
}

Result<AttrId> TypeGraph::FindAttribute(std::string_view name) const {
  auto it = attr_index_.find(Symbol::Intern(name));
  if (it == attr_index_.end()) {
    return Status::NotFound("no attribute named '" + std::string(name) + "'");
  }
  return it->second;
}

// Force-inlined into every (same-TU) caller: with the cache-hit counter in
// the body the compiler stops inlining this on its own, and the warm
// IsSubtype path — a single word-test — would eat an extra call per query.
// The `obs` overhead gate watches exactly this path.
__attribute__((always_inline)) inline const TypeGraph::Closure*
TypeGraph::closure() const {
  const Closure* c = closure_published_.load(std::memory_order_acquire);
  if (c != nullptr && c->version == version_) {
    TYDER_COUNT("subtype.cache_hit");
    return c;
  }
  return BuildClosure();
}

const TypeGraph::Closure* TypeGraph::BuildClosure() const {
  std::lock_guard<std::mutex> lock(closure_mu_);
  // Another thread may have finished the build while we waited on the lock.
  const Closure* current = closure_published_.load(std::memory_order_acquire);
  if (current != nullptr && current->version == version_) {
    TYDER_COUNT("subtype.cache_hit");
    return current;
  }
  TYDER_COUNT("subtype.cache_miss");
  if (current != nullptr || closure_spare_ != nullptr) {
    TYDER_COUNT("subtype.cache_invalidations");
  }

  // Allocation (or recycling) only: rows are filled on demand by BuildRow,
  // so a mutation followed by a handful of queries pays for those rows, not
  // for the whole O(types × edges) closure.
  const size_t n = types_.size();
  std::unique_ptr<Closure> built;
  if (closure_spare_ != nullptr && closure_spare_->rows_cap >= n) {
    built = std::move(closure_spare_);
    for (size_t i = 0; i < n; ++i) {
      built->row_built[i].store(0, std::memory_order_relaxed);
    }
  } else {
    built = std::make_unique<Closure>();
    // Headroom so that DeclareType-heavy phases (FactorState spinning off
    // surrogates) keep recycling instead of reallocating per declaration.
    built->rows_cap = n + n / 2 + 8;
    const size_t words_cap = (built->rows_cap + 63) / 64;
    built->bits = std::make_unique_for_overwrite<uint64_t[]>(built->rows_cap *
                                                             words_cap);
    built->row_built =
        std::make_unique<std::atomic<uint8_t>[]>(built->rows_cap);
  }
  built->version = version_;
  built->num_types = n;
  built->words = (n + 63) / 64;

  // Publish. The replaced closure is parked, not freed: a concurrent reader
  // may have loaded its pointer and still be checking its version.
  if (closure_owner_ != nullptr) {
    closure_retired_.push_back(std::move(closure_owner_));
  }
  closure_owner_ = std::move(built);
  closure_published_.store(closure_owner_.get(), std::memory_order_release);
  return closure_owner_.get();
}

void TypeGraph::BuildRow(const Closure* c, TypeId root) const {
  std::lock_guard<std::mutex> lock(closure_mu_);
  if (c->RowReady(root)) return;  // raced with another builder
  // One ancestor walk for just this row, using the row bits themselves as
  // the visited set — cold cost O(ancestors + edges) regardless of how many
  // other rows are stale, which is what mutation-heavy phases (FactorState)
  // hit between edits. Cycle-tolerant by construction (a revisited node's
  // bit is already set). `bits` writes happen under `closure_mu_`; the
  // release-store of the flag publishes the row to lock-free readers.
  uint64_t* row = c->bits.get() + root * c->words;
  std::fill_n(row, c->words, uint64_t{0});
  row[root >> 6] |= uint64_t{1} << (root & 63);
  std::vector<TypeId> queue{root};
  while (!queue.empty()) {
    TypeId t = queue.back();
    queue.pop_back();
    for (TypeId s : types_[t].supertypes()) {
      uint64_t& w = row[s >> 6];
      const uint64_t bit = uint64_t{1} << (s & 63);
      if ((w & bit) == 0) {
        w |= bit;
        queue.push_back(s);
      }
    }
  }
  c->row_built[root].store(1, std::memory_order_release);
}

bool TypeGraph::UncachedWalk(TypeId a, TypeId b) const {
  std::vector<bool> seen(types_.size(), false);
  std::deque<TypeId> queue{a};
  seen[a] = true;
  while (!queue.empty()) {
    TypeId t = queue.front();
    queue.pop_front();
    for (TypeId s : types_[t].supertypes()) {
      if (s == b) return true;
      if (!seen[s]) {
        seen[s] = true;
        queue.push_back(s);
      }
    }
  }
  return false;
}

bool TypeGraph::IsSubtype(TypeId a, TypeId b) const {
  TYDER_COUNT("subtype.queries");
  if (a == b) return true;
  if (!cache_enabled_) {
    TYDER_COUNT("subtype.uncached_walks");
    return UncachedWalk(a, b);
  }
  const Closure* c = closure();
  if (!c->RowReady(a)) BuildRow(c, a);
  return c->Test(a, b);
}

std::vector<TypeId> TypeGraph::SupertypeClosure(TypeId t) const {
  std::vector<bool> seen(types_.size(), false);
  std::vector<TypeId> order;
  std::deque<TypeId> queue{t};
  seen[t] = true;
  while (!queue.empty()) {
    TypeId cur = queue.front();
    queue.pop_front();
    order.push_back(cur);
    for (TypeId s : types_[cur].supertypes()) {
      if (!seen[s]) {
        seen[s] = true;
        queue.push_back(s);
      }
    }
  }
  return order;
}

std::vector<TypeId> TypeGraph::SubtypeClosure(TypeId t) const {
  // Supertype edges are stored sub -> super; with the bitset closure this is
  // one column scan (word-test per candidate).
  std::vector<TypeId> out;
  for (TypeId cand = 0; cand < types_.size(); ++cand) {
    if (IsSubtype(cand, t)) out.push_back(cand);
  }
  return out;
}

std::vector<AttrId> TypeGraph::CumulativeAttributes(TypeId t) const {
  std::vector<AttrId> out;
  for (TypeId s : SupertypeClosure(t)) {
    for (AttrId a : types_[s].local_attributes()) {
      // Diamond paths visit each type once (closure is deduplicated), and an
      // attribute has exactly one owner, so no further dedup is needed.
      out.push_back(a);
    }
  }
  return out;
}

bool TypeGraph::AttributeAvailableAt(TypeId t, AttrId a) const {
  return IsSubtype(t, attrs_[a].owner);
}

Status TypeGraph::Validate() const {
  // Edge indices in range and acyclic.
  for (TypeId t = 0; t < types_.size(); ++t) {
    for (TypeId s : types_[t].supertypes()) {
      if (s >= types_.size()) {
        return Status::Internal("supertype id out of range for '" +
                                TypeName(t) + "'");
      }
      // Exact DAG walk, not the closure: cycle detection must work even on
      // the malformed graphs the closure build skips over.
      if (s == t || UncachedWalk(s, t)) {
        return Status::Internal("cycle through '" + TypeName(t) + "' and '" +
                                TypeName(s) + "'");
      }
    }
    // Duplicate direct supertypes are ill-formed (precedence is a strict
    // order over direct supertypes).
    std::vector<TypeId> supers = types_[t].supertypes();
    std::sort(supers.begin(), supers.end());
    if (std::adjacent_find(supers.begin(), supers.end()) != supers.end()) {
      return Status::Internal("duplicate direct supertype on '" +
                              TypeName(t) + "'");
    }
  }
  // Attribute ownership consistent with local lists.
  for (AttrId a = 0; a < attrs_.size(); ++a) {
    const AttributeDef& def = attrs_[a];
    if (def.owner >= types_.size() || def.value_type >= types_.size()) {
      return Status::Internal("attribute '" + def.name.str() +
                              "' references out-of-range type");
    }
    const auto& local = types_[def.owner].local_attributes();
    if (std::find(local.begin(), local.end(), a) == local.end()) {
      return Status::Internal("attribute '" + def.name.str() +
                              "' not listed by its owner '" +
                              TypeName(def.owner) + "'");
    }
  }
  for (TypeId t = 0; t < types_.size(); ++t) {
    for (AttrId a : types_[t].local_attributes()) {
      if (a >= attrs_.size() || attrs_[a].owner != t) {
        return Status::Internal("type '" + TypeName(t) +
                                "' lists an attribute it does not own");
      }
    }
  }
  return Status::OK();
}

}  // namespace tyder
