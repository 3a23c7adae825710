#include "fuzz/fuzzer.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "core/verify.h"
#include "obs/obs.h"
#include "oracle/differential.h"
#include "oracle/reference.h"
#include "storage/catalog_snapshot.h"
#include "storage/crc32c.h"
#include "storage/durable_catalog.h"
#include "storage/faulty_env.h"
#include "testing/fixtures.h"

namespace tyder::fuzz {

namespace {

// ---------------------------------------------------------------------------
// The naive in-memory model: type names, direct-supertype names, local
// attribute names, and each view's projected attribute-name set. Cumulative
// state is recomputed from scratch on every query by a name-level BFS — a
// from-first-principles shadow of the paper's guarantee that derivation
// preserves every pre-existing type's cumulative state.
// ---------------------------------------------------------------------------

struct ModelType {
  std::vector<std::string> supers;  // direct supertypes, addition order
  // Derivation-implied edges: the projection operation makes the source a
  // subtype of the derived view (the view is more general), so a supertype
  // the view acquires later flows down into the source's cumulative state.
  // Kept apart from `supers` because dropping the view removes these, while
  // a real edge pointing at a view must make the engine refuse the drop.
  std::vector<std::string> view_supers;
  std::set<std::string> locals;  // locally declared attribute names
  bool is_view = false;
  std::set<std::string> view_attrs;  // projected set (views only)
};

struct Model {
  // std::map: iteration order is sorted, which keeps payload-modulo
  // candidate selection deterministic.
  std::map<std::string, ModelType> types;
  std::vector<std::string> view_order;  // mirrors the catalog registry order

  std::vector<std::string> TrackedNames() const {
    std::vector<std::string> names;
    names.reserve(types.size());
    for (const auto& [name, t] : types) names.push_back(name);
    return names;
  }

  std::vector<std::string> BaseNames() const {
    std::vector<std::string> names;
    for (const auto& [name, t] : types) {
      if (!t.is_view) names.push_back(name);
    }
    return names;
  }

  // Cumulative attribute names of `name`: BFS over supers, each tracked type
  // visited once. A view contributes its projected set (its surrogate
  // ancestry is the engine's business, not the model's); a base type
  // contributes its local attributes.
  std::set<std::string> Cumulative(const std::string& name) const {
    std::set<std::string> attrs;
    std::set<std::string> seen{name};
    std::vector<const std::string*> queue{&name};
    while (!queue.empty()) {
      const std::string& cur = *queue.back();
      queue.pop_back();
      auto it = types.find(cur);
      if (it == types.end()) continue;
      const ModelType& t = it->second;
      if (t.is_view) {
        attrs.insert(t.view_attrs.begin(), t.view_attrs.end());
      }
      attrs.insert(t.locals.begin(), t.locals.end());
      for (const std::string& super : t.supers) {
        if (seen.insert(super).second) queue.push_back(&super);
      }
      for (const std::string& super : t.view_supers) {
        if (seen.insert(super).second) queue.push_back(&super);
      }
    }
    return attrs;
  }

  // Reflexive-transitive reachability over direct supers (name level).
  bool Reaches(const std::string& from, const std::string& to) const {
    if (from == to) return true;
    std::set<std::string> seen{from};
    std::vector<const std::string*> queue{&from};
    while (!queue.empty()) {
      const std::string& cur = *queue.back();
      queue.pop_back();
      auto it = types.find(cur);
      if (it == types.end()) continue;
      for (const std::string& super : it->second.supers) {
        if (super == to) return true;
        if (seen.insert(super).second) queue.push_back(&super);
      }
      for (const std::string& super : it->second.view_supers) {
        if (super == to) return true;
        if (seen.insert(super).second) queue.push_back(&super);
      }
    }
    return false;
  }
};

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kDerive:   return "derive";
    case OpKind::kCollapse: return "collapse";
    case OpKind::kDrop:     return "drop";
    case OpKind::kQuery:    return "query";
    case OpKind::kNewType:  return "newtype";
    case OpKind::kNewAttr:  return "newattr";
    case OpKind::kNewEdge:  return "newedge";
    case OpKind::kSave:     return "save";
    case OpKind::kLoad:     return "load";
    case OpKind::kCrash:    return "crash";
    case OpKind::kEnvFault: return "envfault";
    case OpKind::kConCommit: return "concommit";
    case OpKind::kGeneralize: return "generalize";
  }
  return "?";
}

bool OpKindFromName(std::string_view name, OpKind* kind) {
  for (OpKind k : {OpKind::kDerive, OpKind::kCollapse, OpKind::kDrop,
                   OpKind::kQuery, OpKind::kNewType, OpKind::kNewAttr,
                   OpKind::kNewEdge, OpKind::kSave, OpKind::kLoad,
                   OpKind::kCrash, OpKind::kEnvFault, OpKind::kConCommit,
                   OpKind::kGeneralize}) {
    if (name == OpName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

Status Fail(std::string message) {
  TYDER_COUNT("fuzz.violations");
  return Status::Internal(std::move(message));
}

// ---------------------------------------------------------------------------
// TraceRunner: executes one trace against a real Catalog + the model.
// ---------------------------------------------------------------------------

class TraceRunner {
 public:
  explicit TraceRunner(Schema schema) : catalog_(std::move(schema)) {}

  Status Init() {
    const TypeGraph& graph = catalog_.schema().types();
    for (TypeId t = 0; t < graph.NumTypes(); ++t) {
      if (graph.type(t).kind() != TypeKind::kUser) continue;
      ModelType mt;
      for (TypeId super : graph.type(t).supertypes()) {
        mt.supers.push_back(graph.TypeName(super));
      }
      for (AttrId a : graph.type(t).local_attributes()) {
        mt.locals.insert(graph.attribute(a).name.str());
      }
      model_.types[graph.TypeName(t)] = std::move(mt);
    }
    return CheckStep();
  }

  Status Execute(const FuzzOp& op) {
    switch (op.kind) {
      case OpKind::kDerive:   return DoDerive(op);
      case OpKind::kCollapse: return DoCollapse();
      case OpKind::kDrop:     return DoDrop(op);
      case OpKind::kQuery:    return DoQuery(op);
      case OpKind::kNewType:  return DoNewType(op);
      case OpKind::kNewAttr:  return DoNewAttr(op);
      case OpKind::kNewEdge:  return DoNewEdge(op);
      case OpKind::kSave:     return DoSave();
      case OpKind::kLoad:     return DoLoad();
      case OpKind::kCrash:    return DoCrash(op);
      case OpKind::kEnvFault: return DoEnvFault(op);
      case OpKind::kConCommit: return DoConCommit(op);
      case OpKind::kGeneralize: return DoGeneralize(op);
    }
    return Fail("unknown op kind");
  }

  // engine==oracle (cheap exhaustive sweeps) + model==catalog + validity.
  Status CheckStep() {
    TYDER_RETURN_IF_ERROR(catalog_.schema().Validate());
    TYDER_RETURN_IF_ERROR(CheckModelAgainstCatalog());
    TYDER_RETURN_IF_ERROR(oracle::CheckSubtypeOracle(catalog_.schema()));
    TYDER_RETURN_IF_ERROR(
        oracle::CheckCumulativeStateOracle(catalog_.schema()));
    return Status::OK();
  }

  uint32_t FinalCrc() const { return storage::Crc32c(Serialized()); }

 private:
  // --- shared helpers -------------------------------------------------------

  Status CheckModelAgainstCatalog() {
    const auto& views = catalog_.views();
    if (views.size() != model_.view_order.size()) {
      return Fail("model tracks " + std::to_string(model_.view_order.size()) +
                  " views, catalog has " + std::to_string(views.size()));
    }
    const TypeGraph& graph = catalog_.schema().types();
    for (size_t i = 0; i < views.size(); ++i) {
      if (views[i].name != model_.view_order[i]) {
        return Fail("view registry order diverged at index " +
                    std::to_string(i) + ": catalog '" + views[i].name +
                    "', model '" + model_.view_order[i] + "'");
      }
      // A Collapse renumbers types; every ViewDef must follow.
      if (views[i].derived >= graph.NumTypes() ||
          graph.TypeName(views[i].derived) != views[i].name) {
        return Fail("view '" + views[i].name +
                    "' records a type id that does not name its type");
      }
    }
    for (const auto& [name, mt] : model_.types) {
      Result<TypeId> tid = graph.FindType(name);
      if (!tid.ok()) {
        return Fail("model type '" + name + "' is absent from the catalog");
      }
      std::set<std::string> engine;
      for (AttrId a : graph.CumulativeAttributes(*tid)) {
        engine.insert(graph.attribute(a).name.str());
      }
      std::set<std::string> expected = model_.Cumulative(name);
      if (engine != expected) {
        auto join = [](const std::set<std::string>& s) {
          std::string out;
          for (const std::string& x : s) out += (out.empty() ? "" : ",") + x;
          return out;
        };
        std::string supers;
        for (const std::string& s : mt.supers) supers += s + " ";
        return Fail("cumulative state of '" + name + "' diverged: engine {" +
                    join(engine) + "}, model {" + join(expected) +
                    "} [model supers: " + supers + "]");
      }
    }
    return Status::OK();
  }

  std::string Serialized() const {
    return storage::SerializeCatalog(catalog_);
  }

  Status CheckUnchanged(const std::string& pre, const std::string& what) {
    if (Serialized() != pre) {
      return Fail(what + " was refused but mutated the catalog "
                  "(all-or-nothing violated)");
    }
    return Status::OK();
  }

  void ApplyDeriveToModel(const std::string& vname, const std::string& src,
                          std::set<std::string> attr_set) {
    ModelType mt;
    mt.is_view = true;
    mt.view_attrs = std::move(attr_set);
    model_.types[vname] = std::move(mt);
    model_.view_order.push_back(vname);
    model_.types[src].view_supers.push_back(vname);
  }

  Status ApplyDropToModel(const std::string& vname) {
    for (auto& [name, mt] : model_.types) {
      for (const std::string& super : mt.supers) {
        if (super == vname) {
          return Fail("catalog dropped view '" + vname +
                      "' while model type '" + name + "' still subtypes it");
        }
      }
      auto it =
          std::find(mt.view_supers.begin(), mt.view_supers.end(), vname);
      if (it != mt.view_supers.end()) mt.view_supers.erase(it);
    }
    model_.types.erase(vname);
    model_.view_order.erase(std::find(model_.view_order.begin(),
                                      model_.view_order.end(), vname));
    return Status::OK();
  }

  // --- operations -----------------------------------------------------------

  Status DoDerive(const FuzzOp& op) {
    std::vector<std::string> names = model_.TrackedNames();
    const std::string& src = names[op.a % names.size()];
    std::set<std::string> cum_set = model_.Cumulative(src);
    if (cum_set.empty()) return Status::OK();  // nothing to project
    std::vector<std::string> cum(cum_set.begin(), cum_set.end());
    size_t n = cum.size();
    size_t count = 1 + op.b % n;
    size_t start = op.c % n;
    std::vector<std::string> attrs;
    std::set<std::string> attr_set;
    for (size_t k = 0; k < count; ++k) {
      attrs.push_back(cum[(start + k) % n]);
      attr_set.insert(attrs.back());
    }
    std::string vname = "FZV" + std::to_string(next_view_++);
    return DefineAndCheck(
        "DefineProjectionView(" + vname + ")", vname, src, std::move(attr_set),
        [&] { return catalog_.DefineProjectionView(vname, src, attrs); });
  }

  // A generalization is the projection of its first type onto the
  // attributes both types carry (core/algebra.h), and enters the model so.
  Status DoGeneralize(const FuzzOp& op) {
    std::vector<std::string> names = model_.TrackedNames();
    const std::string& first = names[op.a % names.size()];
    const std::string& second = names[op.b % names.size()];
    std::set<std::string> second_set = model_.Cumulative(second);
    std::set<std::string> common;
    for (const std::string& attr : model_.Cumulative(first)) {
      if (second_set.count(attr) != 0) common.insert(attr);
    }
    std::string vname = "FZV" + std::to_string(next_view_++);
    return DefineAndCheck(
        "DefineGeneralizationView(" + vname + ", " + first + ", " + second +
            ")",
        vname, first, std::move(common), [&] {
          return catalog_.DefineGeneralizationView(vname, first, second);
        });
  }

  // Runs `define`, which defines view `vname` over the attribute set
  // `attr_set` of `src`. A refusal is tolerated (the verifier may
  // legitimately reject exotic schemas) but must be invisible, and a view
  // over no attributes must be refused with FailedPrecondition. An accepted
  // view must leave dispatch over the pre-existing types unchanged and carry
  // exactly `attr_set`; it then enters the model as a projection of `src`.
  template <typename Define>
  Status DefineAndCheck(const std::string& what, const std::string& vname,
                        const std::string& src, std::set<std::string> attr_set,
                        Define define) {
    std::string pre = Serialized();
    Schema pre_schema = catalog_.schema();
    Result<const ViewDef*> r = define();
    if (!r.ok()) {
      TYDER_RETURN_IF_ERROR(CheckUnchanged(pre, what));
      if (attr_set.empty() &&
          r.status().code() != StatusCode::kFailedPrecondition) {
        return Fail(what + " over no attributes was refused with " +
                    r.status().ToString() + ", want FailedPrecondition");
      }
      return Status::OK();
    }
    if (attr_set.empty()) {
      return Fail(what + " over no attributes was accepted");
    }
    // The verifier accepted it by its certificate; the exhaustive sweep must
    // agree that no call over pre-existing types dispatches differently.
    std::vector<std::string> issues;
    CheckDispatchPreserved(pre_schema, catalog_.schema(), &issues);
    if (!issues.empty()) {
      return Fail(what + " was accepted but " + issues.front());
    }
    std::vector<AttrId> expected;
    for (const std::string& name : attr_set) {
      Result<AttrId> attr = catalog_.schema().types().FindAttribute(name);
      if (!attr.ok()) return Fail(what + ": no attribute '" + name + "'");
      expected.push_back(*attr);
    }
    ApplyDeriveToModel(vname, src, std::move(attr_set));
    // Section 5, from first principles: derived cumulative state == the
    // projected attribute set.
    return oracle::CheckDerivedState(catalog_.schema(), (*r)->derived,
                                     expected);
  }

  // Collapse removes exactly the types its report names, none of them a
  // view or a type the model tracks; CheckStep then finds tracked state
  // unchanged.
  Status DoCollapse() {
    size_t pre_types = catalog_.schema().types().NumTypes();
    Result<CollapseReport> r = catalog_.Collapse();
    if (!r.ok()) {
      return Fail("Collapse failed: " + r.status().ToString());
    }
    size_t post_types = catalog_.schema().types().NumTypes();
    if (pre_types - post_types != r->collapsed.size()) {
      return Fail("Collapse named " + std::to_string(r->collapsed.size()) +
                  " types but took NumTypes from " +
                  std::to_string(pre_types) + " to " +
                  std::to_string(post_types));
    }
    for (const std::string& name : r->collapsed) {
      if (model_.types.count(name) != 0 || catalog_.FindView(name).ok()) {
        return Fail("Collapse removed '" + name +
                    "', a view or a type the model tracks");
      }
    }
    return Status::OK();
  }

  Status DoDrop(const FuzzOp& op) {
    if (model_.view_order.empty()) return Status::OK();
    std::string vname = model_.view_order[op.a % model_.view_order.size()];
    std::string pre = Serialized();
    Catalog before = catalog_;
    Status s = catalog_.DropView(vname);
    TYDER_RETURN_IF_ERROR(CheckDropOutcome(before, catalog_, vname, s));
    if (!s.ok()) return CheckUnchanged(pre, "DropView(" + vname + ")");
    return ApplyDropToModel(vname);
  }

  // DropView(vname) turned `before` into `after` with status `s`.
  //
  // A drop is refused only when an entry after the view in the op log does
  // not re-apply without it, and the refusal must say so: FailedPrecondition
  // naming a view that the log lists after `vname`, or a later op's text. It
  // never names a surrogate.
  //
  // An accepted drop must not grow the type graph, unless it re-folds a
  // later view: without the dropped view's surrogates to reuse, a later
  // projection may factor into more types than it did the first time.
  static Status CheckDropOutcome(const Catalog& before, const Catalog& after,
                                 const std::string& vname, const Status& s) {
    const std::vector<CatalogLogEntry>& log = before.log();
    size_t at = 0;
    while (at < log.size() && log[at].view != vname) ++at;
    std::string what = "DropView(" + vname + ")";
    if (s.ok()) {
      bool refolds_a_view = false;
      for (size_t i = at + 1; i < log.size(); ++i) {
        refolds_a_view = refolds_a_view || !log[i].view.empty();
      }
      size_t pre_types = before.schema().types().NumTypes();
      size_t post_types = after.schema().types().NumTypes();
      if (!refolds_a_view && post_types > pre_types) {
        return Fail(what + " grew the type graph from " +
                    std::to_string(pre_types) + " to " +
                    std::to_string(post_types) + " types");
      }
      return Status::OK();
    }
    what += " refusal '" + s.ToString() + "'";
    if (s.code() != StatusCode::kFailedPrecondition) {
      return Fail(what + " is not FailedPrecondition");
    }
    if (s.message().find('~') != std::string::npos) {
      return Fail(what + " names a surrogate");
    }
    for (size_t i = at + 1; i < log.size(); ++i) {
      std::string named = log[i].view.empty() ? "op '" + log[i].op + "'"
                                              : "view '" + log[i].view + "'";
      if (s.message().find(named) != std::string::npos) return Status::OK();
    }
    return Fail(what + " names no entry after the view in the op log");
  }

  Status DoQuery(const FuzzOp& op) {
    oracle::DifferentialOptions dopts;
    dopts.seed = op.a * 2654435761u + op.b + 0x9e3779b9u;
    // Light per-op sampling: breadth comes from the campaign running
    // thousands of seeds, not from exhausting each schema on every query op.
    // Dispatch only — CheckStep repeats the subtype/cumulative sweeps anyway.
    dopts.tuples_per_gf = 3;
    dopts.exhaustive_tuple_limit = 16;
    return oracle::CheckDispatchOracle(catalog_.schema(), dopts);
  }

  Status DoNewType(const FuzzOp& op) {
    std::vector<std::string> names = model_.TrackedNames();
    std::string tname = "FZT" + std::to_string(next_type_++);
    std::vector<std::string> supers;
    uint32_t picks[2] = {op.b, op.c};
    int want = 1 + static_cast<int>(op.a % 2);
    for (int i = 0; i < want; ++i) {
      const std::string& cand = names[picks[i] % names.size()];
      if (std::find(supers.begin(), supers.end(), cand) == supers.end()) {
        supers.push_back(cand);
      }
    }
    Result<TypeId> tid = catalog_.DeclareType(tname, supers);
    if (!tid.ok()) {
      return Fail("DeclareType(" + tname + ") failed: " +
                  tid.status().ToString());
    }
    ModelType mt;
    mt.supers = std::move(supers);
    model_.types[tname] = std::move(mt);
    return Status::OK();
  }

  Status DoNewAttr(const FuzzOp& op) {
    std::vector<std::string> bases = model_.BaseNames();
    if (bases.empty()) return Status::OK();
    const std::string& owner = bases[op.a % bases.size()];
    std::string aname = "fza" + std::to_string(next_attr_++);
    Result<AttrId> r = catalog_.DeclareAttribute(owner, aname, "Int");
    if (!r.ok()) {
      return Fail("DeclareAttribute(" + owner + ", " + aname + ") failed: " +
                  r.status().ToString());
    }
    model_.types[owner].locals.insert(aname);
    return Status::OK();
  }

  Status DoNewEdge(const FuzzOp& op) {
    std::vector<std::string> names = model_.TrackedNames();
    const std::string& sub = names[op.a % names.size()];
    const std::string& super = names[op.b % names.size()];
    std::string pre = Serialized();
    Status s = catalog_.AddSupertype(sub, super);
    if (sub == super) {
      if (s.ok()) return Fail("self supertype edge on '" + sub + "' accepted");
      return CheckUnchanged(pre, "self-edge refusal");
    }
    if (model_.Reaches(super, sub)) {
      // Model reachability is a subset of engine reachability (derivation
      // preserves all pre-existing subtype relations), so the engine must
      // refuse this cycle too.
      if (s.ok()) {
        return Fail("cycle-closing edge " + sub + " -> " + super +
                    " accepted by the engine");
      }
      return CheckUnchanged(pre, "cycle refusal");
    }
    if (s.ok()) {
      model_.types[sub].supers.push_back(super);
      return Status::OK();
    }
    if (s.code() == StatusCode::kAlreadyExists) {
      // Post-factoring the engine can hold a direct edge the model tracks
      // only transitively. A duplicate refusal is fine if invisible.
      return CheckUnchanged(pre, "duplicate-edge refusal");
    }
    // A cycle the model cannot see must go through real engine reachability
    // (surrogate chains); cross-check with the naive oracle walk.
    const TypeGraph& graph = catalog_.schema().types();
    if (oracle::RefIsSubtype(graph, *graph.FindType(super),
                             *graph.FindType(sub))) {
      return CheckUnchanged(pre, "surrogate-cycle refusal");
    }
    return Fail("AddSupertype(" + sub + ", " + super +
                ") refused without cause: " + s.ToString());
  }

  Status DoSave() {
    saved_bytes_ = storage::SaveCatalogSnapshot(catalog_);
    saved_model_ = model_;
    has_save_ = true;
    Result<Catalog> rt = storage::LoadCatalogSnapshot(saved_bytes_);
    if (!rt.ok()) {
      return Fail("saved snapshot does not load back: " +
                  rt.status().ToString());
    }
    if (storage::SerializeCatalog(*rt) != Serialized()) {
      return Fail("snapshot round trip is not byte-identical");
    }
    return Status::OK();
  }

  Status DoLoad() {
    if (!has_save_) return Status::OK();
    Result<Catalog> r = storage::LoadCatalogSnapshot(saved_bytes_);
    if (!r.ok()) {
      return Fail("snapshot reload failed: " + r.status().ToString());
    }
    catalog_ = std::move(*r);
    model_ = saved_model_;  // name counters stay monotonic on purpose
    return Status::OK();
  }

  // The mutation a kCrash / kEnvFault op interrupts, resolved against the
  // model's current candidate lists at execution time.
  struct InterruptedOp {
    int variant = 0;  // 0 derive, 1 drop, 2 collapse, 3 compact
    std::string vname, src;
    std::vector<std::string> attrs;
    std::set<std::string> attr_set;
    bool skip = false;  // nothing projectable: the op is a no-op
  };

  InterruptedOp ResolveInterrupted(const FuzzOp& op) {
    InterruptedOp iop;
    iop.variant = static_cast<int>(op.a % 4);  // derive/drop/collapse/compact
    if (iop.variant == 1 && model_.view_order.empty()) iop.variant = 0;
    if (iop.variant == 0) {
      std::vector<std::string> names = model_.TrackedNames();
      iop.src = names[op.b % names.size()];
      std::set<std::string> cum_set = model_.Cumulative(iop.src);
      if (cum_set.empty()) {
        iop.skip = true;
        return iop;
      }
      std::vector<std::string> cum(cum_set.begin(), cum_set.end());
      size_t count = 1 + op.b % cum.size();
      for (size_t k = 0; k < count; ++k) {
        iop.attrs.push_back(cum[k % cum.size()]);
      }
      iop.attr_set.insert(iop.attrs.begin(), iop.attrs.end());
      iop.vname = "FZV" + std::to_string(next_view_++);
    } else if (iop.variant == 1) {
      iop.vname = model_.view_order[op.b % model_.view_order.size()];
    }
    return iop;
  }

  template <typename T>
  static bool ApplyInterrupted(const InterruptedOp& iop, T& target) {
    switch (iop.variant) {
      case 0:
        return target.DefineProjectionView(iop.vname, iop.src, iop.attrs).ok();
      case 1:
        return target.DropView(iop.vname).ok();
      default:
        return target.Collapse().ok();
    }
  }

  // What the catalog serializes to if the interrupted op commits (== `pre`
  // for compaction and for ops the engine refuses outright). A drop's
  // outcome must pass CheckDropOutcome.
  Result<std::string> PostState(const InterruptedOp& iop,
                                const std::string& pre) {
    if (iop.variant == 3) return pre;  // compaction never changes the catalog
    Catalog copy = catalog_;
    if (iop.variant == 1) {
      Status dropped = copy.DropView(iop.vname);
      TYDER_RETURN_IF_ERROR(
          CheckDropOutcome(catalog_, copy, iop.vname, dropped));
      return dropped.ok() ? storage::SerializeCatalog(copy) : pre;
    }
    return ApplyInterrupted(iop, copy) ? storage::SerializeCatalog(copy) : pre;
  }

  // The ephemeral store in `dir` has just "crashed" after `what` interrupted
  // `iop` (`op_ok`: the op was acknowledged). Simulates the power loss if
  // asked, recovers, and requires the recovered catalog to be byte-identical
  // to the pre- or post-state, and to the post-state if an acknowledged op
  // met a power loss. Then adopts it and syncs the model to whichever side
  // of the interrupted op it is.
  Status RecoverAndAdopt(const InterruptedOp& iop,
                         const std::filesystem::path& dir,
                         storage::FaultyEnv& env, const std::string& what,
                         bool op_ok, bool power_loss, const std::string& pre,
                         const std::string& post) {
    if (power_loss) env.PowerLoss();
    Result<storage::DurableCatalog> re =
        storage::DurableCatalog::Open(dir.string());
    std::error_code ec;
    if (!re.ok()) {
      std::filesystem::remove_all(dir, ec);
      return Fail("recovery after " + what +
                  " failed: " + re.status().ToString());
    }
    std::string recovered = storage::SerializeCatalog(re->catalog());
    std::filesystem::remove_all(dir, ec);
    if (recovered != pre && recovered != post) {
      return Fail("recovery after " + what +
                  " landed on neither the pre- nor the post-state of the "
                  "interrupted op");
    }
    if (op_ok && power_loss && recovered != post) {
      return Fail("acknowledged op did not survive the power loss after " +
                  what + " (durability violated)");
    }
    catalog_ = re->catalog();
    if (recovered == post && recovered != pre) {
      if (iop.variant == 0) {
        ApplyDeriveToModel(iop.vname, iop.src, iop.attr_set);
      } else if (iop.variant == 1) {
        TYDER_RETURN_IF_ERROR(ApplyDropToModel(iop.vname));
      }
    }
    return Status::OK();
  }

  // A failpoint "crash": the op runs against an ephemeral DurableCatalog
  // with one storage failpoint armed, then the handle drops, optionally
  // followed by a power loss that discards everything unsynced (b%2).
  Status DoCrash(const FuzzOp& op) {
    static const char* const kWalFaults[] = {
        "storage.wal.after_append", "storage.wal.after_sync",
        "storage.wal.mid_fsync", "storage.wal.torn_write"};
    static const char* const kCompactFaults[] = {
        "storage.compact.before_rename", "storage.compact.after_rename"};

    InterruptedOp iop = ResolveInterrupted(op);
    if (iop.skip) return Status::OK();
    const char* fault = iop.variant == 3 ? kCompactFaults[op.c % 2]
                                         : kWalFaults[op.c % 4];
    bool power_loss = (op.b % 2) != 0;

    std::string pre = Serialized();
    TYDER_ASSIGN_OR_RETURN(std::string post, PostState(iop, pre));

    std::filesystem::path dir = testing::UniqueTestDir("tyder-fuzz");
    storage::FaultyEnv env;  // injects nothing; records what was synced
    bool op_ok = false;
    {
      Result<storage::DurableCatalog> db =
          storage::DurableCatalog::Open(dir.string(), &env);
      if (!db.ok()) {
        return Fail("DurableCatalog::Open failed: " + db.status().ToString());
      }
      Status seeded = db->Seed(catalog_);
      if (!seeded.ok()) {
        return Fail("DurableCatalog::Seed failed: " + seeded.ToString());
      }
      failpoint::Activate(fault, 1);
      if (iop.variant == 3) {
        op_ok = db->Compact().ok();
      } else {
        op_ok = ApplyInterrupted(iop, *db);
      }
      failpoint::Deactivate(fault);
    }  // drop the handle: the "crash"
    return RecoverAndAdopt(iop, dir, env,
                           "fault '" + std::string(fault) + "'", op_ok,
                           power_loss, pre, post);
  }

  // An injected I/O error (rather than a simulated crash): the operation
  // runs against an ephemeral DurableCatalog whose Env fails one call.
  // Afterwards the instance must be consistent (pre- or post-state) or
  // provably read-only in degraded mode; then the instance "crashes"
  // (optionally with a power loss that drops everything unsynced) and
  // recovery must land byte-identical to pre or post — with an acknowledged
  // op surviving the power loss.
  Status DoEnvFault(const FuzzOp& op) {
    InterruptedOp iop = ResolveInterrupted(op);
    if (iop.skip) return Status::OK();

    static const storage::FaultyEnv::FaultKind kKinds[] = {
        storage::FaultyEnv::FaultKind::kError,
        storage::FaultyEnv::FaultKind::kShortWrite,
        storage::FaultyEnv::FaultKind::kSyncFail,
        storage::FaultyEnv::FaultKind::kEnospc};
    storage::FaultyEnv::FaultKind kind = kKinds[op.c % 4];
    // Compaction makes ~9 Env calls, a WAL append 2: indexes past the op's
    // last call simply never fire, which is a legitimate (clean) cell.
    int index = static_cast<int>((op.c / 4) % 10);
    bool power_loss = (op.b % 2) != 0;

    std::string pre = Serialized();
    TYDER_ASSIGN_OR_RETURN(std::string post, PostState(iop, pre));

    std::filesystem::path dir = testing::UniqueTestDir("tyder-fuzz-env");
    storage::FaultyEnv env;
    bool op_ok = false;
    {
      Result<storage::DurableCatalog> db =
          storage::DurableCatalog::Open(dir.string(), &env);
      if (!db.ok()) {
        return Fail("DurableCatalog::Open failed: " + db.status().ToString());
      }
      Status seeded = db->Seed(catalog_);
      if (!seeded.ok()) {
        return Fail("DurableCatalog::Seed failed: " + seeded.ToString());
      }
      env.ResetCounters();
      env.InjectAt(kind, index);
      if (iop.variant == 3) {
        op_ok = db->Compact().ok();
      } else {
        op_ok = ApplyInterrupted(iop, *db);
      }
      env.ClearFaults();

      std::string in_memory = storage::SerializeCatalog(db->catalog());
      if (db->degraded()) {
        // Provably read-only: reads serve the pre-state, mutations refuse.
        if (op_ok) {
          return Fail("degraded database reported the env-faulted op OK");
        }
        if (in_memory != pre) {
          return Fail("degraded database is not serving the pre-state");
        }
        Status refused = db->DropView("NoSuchView");
        if (refused.code() != StatusCode::kFailedPrecondition ||
            refused.message().find("degraded") == std::string::npos) {
          return Fail("degraded database accepted (or mislabeled) a "
                      "mutation: " + refused.ToString());
        }
      } else if (in_memory != (op_ok ? post : pre)) {
        return Fail(std::string("env-faulted op ") +
                    (op_ok ? "committed" : "failed") +
                    " but the live catalog matches neither side");
      }
    }  // crash: drop the handle
    return RecoverAndAdopt(iop, dir, env, "an injected env fault", op_ok,
                           power_loss, pre, post);
  }

  // Concurrent group commit: K threads each commit one projection view
  // through the group-committed WAL of an ephemeral DurableCatalog seeded
  // with the trace's catalog, optionally with an I/O fault injected into
  // the batch window and a power loss after the crash. The commit-ack
  // contract is checked from both sides:
  //
  //   acknowledged  => the view is visible in-memory AND survives
  //                    crash + power loss (durability),
  //   unacknowledged => the view is never visible, live or recovered
  //                    (all-or-nothing, even when the record died only
  //                    because an earlier record in its batch did).
  //
  // Recovery may additionally land on any subset of the attempted batch
  // that contains every acknowledged op (a whole-record WAL prefix of the
  // group append). The trace's own catalog and model are untouched: which
  // ops get acknowledged under a fault is timing-dependent, and adopting a
  // nondeterministic state would break trace determinism for the shrinker.
  Status DoConCommit(const FuzzOp& op) {
    const int k = 2 + static_cast<int>(op.a % 3);  // 2..4 committers
    const bool with_fault = (op.b % 4) == 0;
    const bool power_loss = (op.b % 2) != 0;

    // Resolve the K derivations up front against the model (deterministic;
    // the threads below only replay them).
    struct PlannedDerive {
      std::string vname, src;
      std::vector<std::string> attrs;
    };
    std::vector<PlannedDerive> plan;
    std::vector<std::string> names = model_.TrackedNames();
    for (int t = 0; t < k; ++t) {
      const std::string& src = names[(op.c + t) % names.size()];
      std::set<std::string> cum_set = model_.Cumulative(src);
      if (cum_set.empty()) continue;  // nothing to project from this source
      std::vector<std::string> cum(cum_set.begin(), cum_set.end());
      PlannedDerive d;
      d.src = src;
      d.vname = "FZV" + std::to_string(next_view_++);
      size_t count = 1 + (op.b + t) % cum.size();
      for (size_t i = 0; i < count; ++i) d.attrs.push_back(cum[i % cum.size()]);
      plan.push_back(std::move(d));
    }
    if (plan.empty()) return Status::OK();

    std::filesystem::path dir = testing::UniqueTestDir("tyder-fuzz-con");
    storage::FaultyEnv env;
    std::vector<char> acked(plan.size(), 0);
    std::error_code ec;
    bool degraded = false;
    {
      // A real batch window: max_batch covers the whole fleet and a short
      // linger lets late enqueuers join the leader's batch.
      storage::GroupCommitOptions group;
      group.max_batch = static_cast<size_t>(plan.size());
      group.max_wait_us = 200;
      Result<storage::DurableCatalog> db =
          storage::DurableCatalog::Open(dir.string(), &env, group);
      if (!db.ok()) {
        return Fail("DurableCatalog::Open failed: " + db.status().ToString());
      }
      Status seeded = db->Seed(catalog_);
      if (!seeded.ok()) {
        return Fail("DurableCatalog::Seed failed: " + seeded.ToString());
      }
      if (with_fault) {
        // All Env calls are serialized through the batch leader, so the
        // (single-threaded) FaultyEnv is safe under concurrent committers.
        env.ResetCounters();
        env.InjectAt(
            op.c % 2 == 0 ? storage::FaultyEnv::FaultKind::kSyncFail
                          : storage::FaultyEnv::FaultKind::kError,
            static_cast<int>(op.c % 6));
      }
      std::vector<std::thread> committers;
      for (size_t t = 0; t < plan.size(); ++t) {
        committers.emplace_back([&, t] {
          const PlannedDerive& d = plan[t];
          acked[t] =
              db->DefineProjectionView(d.vname, d.src, d.attrs).ok() ? 1 : 0;
        });
      }
      for (std::thread& thread : committers) thread.join();
      env.ClearFaults();
      degraded = db->degraded();

      // Converged in-memory state: visible exactly iff acknowledged.
      for (size_t t = 0; t < plan.size(); ++t) {
        bool visible = db->catalog().FindView(plan[t].vname).ok();
        if (visible != (acked[t] != 0)) {
          return Fail(std::string("concurrent commit '") + plan[t].vname +
                      "' is " + (visible ? "visible" : "missing") +
                      " in-memory but was " +
                      (acked[t] ? "acknowledged" : "refused"));
        }
      }
      if (with_fault && degraded) {
        Status refused = db->DropView("NoSuchView");
        if (refused.code() != StatusCode::kFailedPrecondition ||
            refused.message().find("degraded") == std::string::npos) {
          return Fail("degraded database accepted (or mislabeled) a "
                      "mutation after a group-commit fault: " +
                      refused.ToString());
        }
      }
    }  // crash: drop the handle
    if (power_loss) env.PowerLoss();

    Result<storage::DurableCatalog> re =
        storage::DurableCatalog::Open(dir.string());
    if (!re.ok()) {
      std::filesystem::remove_all(dir, ec);
      return Fail("recovery after a concurrent group commit failed: " +
                  re.status().ToString());
    }
    Status recovered_valid = re->catalog().schema().Validate();
    std::string detail;
    for (size_t t = 0; t < plan.size(); ++t) {
      bool recovered = re->catalog().FindView(plan[t].vname).ok();
      if (acked[t] && !recovered) {
        detail = "acknowledged commit '" + plan[t].vname +
                 "' was lost by crash recovery (durability violated)";
        break;
      }
      if (!with_fault && !power_loss && recovered != (acked[t] != 0)) {
        // No fault and no power loss: recovery must replay the batch
        // exactly — nothing beyond the acknowledged set can appear.
        detail = "clean recovery disagrees with the acknowledged set on '" +
                 plan[t].vname + "'";
        break;
      }
    }
    std::filesystem::remove_all(dir, ec);
    if (!recovered_valid.ok()) {
      return Fail("recovery after a concurrent group commit produced an "
                  "invalid schema: " + recovered_valid.ToString());
    }
    if (!detail.empty()) return Fail(std::move(detail));
    return Status::OK();
  }

  Catalog catalog_;
  Model model_;
  std::string saved_bytes_;
  Model saved_model_;
  bool has_save_ = false;
  int next_view_ = 0;
  int next_type_ = 0;
  int next_attr_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Trace plumbing
// ---------------------------------------------------------------------------

testing::RandomSchemaOptions SchemaParams::ToOptions() const {
  testing::RandomSchemaOptions options;
  options.seed = seed;
  options.num_types = types;
  options.max_supers = supers;
  options.attrs_per_type = attrs;
  options.num_general_methods = gfs;
  options.methods_per_gf = methods_per_gf;
  options.max_stmts_per_body = stmts;
  options.with_mutators = mutators;
  return options;
}

std::string FormatTrace(const FuzzTrace& trace) {
  std::ostringstream out;
  out << "tyder-fuzz-trace v1\n";
  if (trace.crc) out << "crc " << *trace.crc << "\n";
  out << "schema seed=" << trace.schema.seed << " types=" << trace.schema.types
      << " supers=" << trace.schema.supers << " attrs=" << trace.schema.attrs
      << " gfs=" << trace.schema.gfs << " mpg=" << trace.schema.methods_per_gf
      << " stmts=" << trace.schema.stmts
      << " mutators=" << (trace.schema.mutators ? 1 : 0) << "\n";
  for (const FuzzOp& op : trace.ops) {
    out << OpName(op.kind) << " " << op.a << " " << op.b << " " << op.c
        << "\n";
  }
  out << "end\n";
  return out.str();
}

Result<FuzzTrace> ParseTrace(std::string_view text) {
  FuzzTrace trace;
  std::istringstream in{std::string(text)};
  std::string line;
  int state = 0;  // 0: expect header, 1: expect schema, 2: ops, 3: done
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    size_t stop = line.find_last_not_of(" \t\r");
    std::string body = line.substr(start, stop - start + 1);
    if (body.empty() || body[0] == '#') continue;
    auto err = [&](const std::string& msg) {
      return Status::ParseError("trace line " + std::to_string(lineno) + ": " +
                                msg);
    };
    if (state == 0) {
      if (body != "tyder-fuzz-trace v1") {
        return err("expected 'tyder-fuzz-trace v1' header");
      }
      state = 1;
      continue;
    }
    if (state == 1) {
      std::istringstream fields(body);
      std::string tag;
      fields >> tag;
      if (tag == "crc" && !trace.crc) {
        std::string value, extra;
        fields >> value >> extra;
        uint32_t crc = 0;
        auto [end, ec] =
            std::from_chars(value.data(), value.data() + value.size(), crc);
        if (value.empty() || ec != std::errc() ||
            end != value.data() + value.size() || !extra.empty()) {
          return err("crc line needs one unsigned 32-bit number");
        }
        trace.crc = crc;
        continue;
      }
      if (tag != "schema") return err("expected schema line");
      std::string kv;
      while (fields >> kv) {
        size_t eq = kv.find('=');
        if (eq == std::string::npos) return err("malformed '" + kv + "'");
        std::string key = kv.substr(0, eq);
        long value = std::atol(kv.c_str() + eq + 1);
        if (key == "seed") trace.schema.seed = static_cast<uint32_t>(value);
        else if (key == "types") trace.schema.types = static_cast<int>(value);
        else if (key == "supers") trace.schema.supers = static_cast<int>(value);
        else if (key == "attrs") trace.schema.attrs = static_cast<int>(value);
        else if (key == "gfs") trace.schema.gfs = static_cast<int>(value);
        else if (key == "mpg")
          trace.schema.methods_per_gf = static_cast<int>(value);
        else if (key == "stmts") trace.schema.stmts = static_cast<int>(value);
        else if (key == "mutators") trace.schema.mutators = value != 0;
        else return err("unknown schema field '" + key + "'");
      }
      state = 2;
      continue;
    }
    if (state == 3) return err("content after 'end'");
    if (body == "end") {
      state = 3;
      continue;
    }
    std::istringstream fields(body);
    std::string name;
    fields >> name;
    FuzzOp op;
    if (!OpKindFromName(name, &op.kind)) {
      return err("unknown op '" + name + "'");
    }
    fields >> op.a >> op.b >> op.c;  // missing payloads stay 0
    trace.ops.push_back(op);
  }
  if (state != 3) {
    return Status::ParseError("trace has no 'end' terminator");
  }
  return trace;
}

FuzzTrace GenerateTrace(uint64_t seed, const FuzzProfile& profile) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  FuzzTrace trace;
  trace.schema = profile.schema;
  trace.schema.seed = static_cast<uint32_t>(rng() % 100000 + 1);
  int span = profile.max_ops - profile.min_ops + 1;
  int num_ops = profile.min_ops +
                (span > 1 ? static_cast<int>(rng() % span) : 0);
  struct Weighted {
    OpKind kind;
    int weight;
  };
  const Weighted kWeights[] = {
      {OpKind::kDerive, 20}, {OpKind::kQuery, 18},  {OpKind::kNewEdge, 16},
      {OpKind::kNewType, 10}, {OpKind::kNewAttr, 10}, {OpKind::kCollapse, 8},
      {OpKind::kDrop, 8},     {OpKind::kSave, 5},     {OpKind::kLoad, 4},
      {OpKind::kCrash, profile.with_crash_ops ? 1 : 0},
      {OpKind::kEnvFault, profile.with_crash_ops ? 1 : 0},
      {OpKind::kConCommit, profile.with_crash_ops ? 1 : 0},
  };
  int total = 0;
  for (const Weighted& w : kWeights) total += w.weight;
  for (int i = 0; i < num_ops; ++i) {
    int roll = static_cast<int>(rng() % total);
    FuzzOp op;
    for (const Weighted& w : kWeights) {
      roll -= w.weight;
      if (roll < 0) {
        op.kind = w.kind;
        break;
      }
    }
    op.a = static_cast<uint32_t>(rng());
    op.b = static_cast<uint32_t>(rng());
    op.c = static_cast<uint32_t>(rng());
    trace.ops.push_back(op);
  }
  return trace;
}

RunResult RunTrace(const FuzzTrace& trace) {
  TYDER_TIMED("fuzz.sequence_ns");
  RunResult result;
  Result<Schema> schema = testing::GenerateRandomSchema(trace.schema.ToOptions());
  if (!schema.ok()) {
    result.status =
        schema.status().WithContext("fuzz: random schema generation");
    return result;
  }
  TraceRunner runner(std::move(*schema));
  result.status = runner.Init();
  if (!result.status.ok()) {
    result.status = result.status.WithContext("fuzz: initial state");
    return result;
  }
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    const FuzzOp& op = trace.ops[i];
    auto at = [&](const Status& s) {
      return s.WithContext("fuzz: op " + std::to_string(i) + " (" +
                           OpName(op.kind) + ")");
    };
    Status s = runner.Execute(op);
    if (!s.ok()) {
      result.status = at(s);
      result.failing_step = i;
      return result;
    }
    s = runner.CheckStep();
    if (!s.ok()) {
      result.status = at(s);
      result.failing_step = i;
      return result;
    }
    ++result.ops_executed;
    TYDER_COUNT("fuzz.ops");
  }
  result.failing_step = trace.ops.size();
  result.final_crc = runner.FinalCrc();
  if (trace.crc && *trace.crc != result.final_crc) {
    result.status = Fail("fuzz: final catalog CRC32C is " +
                         std::to_string(result.final_crc) +
                         ", the trace's crc line records " +
                         std::to_string(*trace.crc));
  }
  return result;
}

FuzzTrace ShrinkTrace(const FuzzTrace& trace, int max_runs) {
  int runs = 0;
  auto fails = [&](const FuzzTrace& t) {
    ++runs;
    return !RunTrace(t).status.ok();
  };
  FuzzTrace current = trace;
  current.crc.reset();
  if (!fails(current)) return trace;
  size_t chunk = std::max<size_t>(1, current.ops.size() / 2);
  while (runs < max_runs) {
    bool removed_any = false;
    for (size_t start = 0;
         start < current.ops.size() && chunk <= current.ops.size() &&
         runs < max_runs;) {
      FuzzTrace candidate = current;
      size_t len = std::min(chunk, candidate.ops.size() - start);
      candidate.ops.erase(candidate.ops.begin() + static_cast<long>(start),
                          candidate.ops.begin() + static_cast<long>(start + len));
      if (fails(candidate)) {
        current = std::move(candidate);
        removed_any = true;  // retry same start against the shorter trace
      } else {
        start += chunk;
      }
    }
    if (!removed_any) {
      if (chunk == 1) break;
      chunk = std::max<size_t>(1, chunk / 2);
    }
  }
  TYDER_COUNT("fuzz.shrinks");
  return current;
}

CampaignResult RunCampaign(const CampaignOptions& options) {
  CampaignResult result;
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (uint64_t i = 0;; ++i) {
    if (options.max_sequences != 0 && i >= options.max_sequences) break;
    if (elapsed() >= options.budget_seconds) break;
    uint64_t seed = options.base_seed + i;
    FuzzTrace trace = GenerateTrace(seed, options.profile);
    RunResult run = RunTrace(trace);
    ++result.sequences;
    TYDER_COUNT("fuzz.sequences");
    result.ops += run.ops_executed;
    if (!run.status.ok()) {
      result.failed = true;
      result.failing_seed = seed;
      result.failing_trace = trace;
      result.failure = run.status;
      result.shrunk_trace =
          options.shrink_on_failure ? ShrinkTrace(trace) : trace;
      // Ship the black box with the failing seed: when $TYDER_FLIGHT_DIR is
      // set the recent-operation rings land next to the repro artifacts.
      TYDER_FLIGHT_DUMP("fuzz_failure:seed=" + std::to_string(seed));
      break;
    }
  }
  result.elapsed_seconds = elapsed();
  return result;
}

}  // namespace tyder::fuzz
