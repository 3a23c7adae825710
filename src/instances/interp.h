// MIR interpreter with multi-method dispatch. Executes generic-function
// calls against an ObjectStore: dispatch selects the most specific applicable
// method for the *runtime* types of the arguments, accessor methods read or
// write slots, and general methods evaluate their bodies.
//
// A call allocates nothing: its arguments and their types go in fixed
// buffers on the caller's stack (on the heap only past arity 4), and frame
// locals in one flat stack the interpreter reuses. Scans evaluate through the
// same loop with a CallPlan, which resolves each call on the candidate once
// per concrete type.
//
// Behavior preservation is observable here: the integration tests run the
// same calls on the same objects before and after a derivation and require
// identical results.

#ifndef TYDER_INSTANCES_INTERP_H_
#define TYDER_INSTANCES_INTERP_H_

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "instances/store.h"
#include "methods/schema.h"
#include "mir/expr.h"

namespace tyder {

// The call targets one scan has resolved for its candidates of one concrete
// type C (Query::Execute keeps one plan per creation type it meets).
//
// A *plan frame* is a scan's predicate or column body, or the body of a
// general method called from a plan frame with only parameter references as
// arguments. By induction every parameter of a plan frame is the candidate,
// so such a call has argument types (C, ..., C) for every candidate of type
// C. The plan resolves it through Dispatch the first time a candidate
// reaches it and reuses the target for the rest of the scan: a reader reads
// the slot, a general method runs as a plan frame. Any other call (one with a
// literal, a local or a call result as an argument) dispatches on every
// evaluation. An unreached call never resolves, and a call that no method
// applies to fails, with Dispatch's error, for each candidate that reaches
// it.
class CallPlan {
 public:
  explicit CallPlan(TypeId type) : type_(type) {}

  // Calls resolved through Dispatch so far.
  size_t resolved() const { return resolved_; }
  // Attributes read by the readers resolved so far: what a candidate of
  // this type reads, for ObjectStore::Prefetch.
  std::span<const AttrId> reads() const { return reads_; }

 private:
  friend class Interpreter;

  struct Site {
    const Expr* call;
    MethodId target;  // kInvalidMethod: not a call on the candidate
  };

  // The site of `call`, or nullptr. Candidates of one type mostly reach
  // their calls in the same order, so the search starts after the last hit.
  const Site* Find(const Expr* call) {
    const size_t n = sites_.size();
    size_t i = next_ < n ? next_ : 0;
    for (size_t k = 0; k < n; ++k) {
      if (sites_[i].call == call) {
        next_ = i + 1;
        return &sites_[i];
      }
      if (++i == n) i = 0;
    }
    return nullptr;
  }

  TypeId type_;
  std::vector<Site> sites_;  // in the order candidates first reached them
  size_t next_ = 0;
  size_t resolved_ = 0;
  std::vector<AttrId> reads_;
};

class Interpreter {
 public:
  Interpreter(const Schema& schema, ObjectStore* store)
      : schema_(schema), store_(store) {}

  // Calls generic function `gf` with `args`, dispatching on runtime types.
  // InvalidArgument for a void argument, an object id out of range, or an
  // object whose creation type the schema no longer has (a dropped view's).
  Result<Value> Call(GfId gf, std::span<const Value> args);
  Result<Value> Call(GfId gf, std::initializer_list<Value> args) {
    return Call(gf, std::span<const Value>(args.begin(), args.size()));
  }
  Result<Value> CallByName(std::string_view gf_name,
                           std::span<const Value> args);
  Result<Value> CallByName(std::string_view gf_name,
                           std::initializer_list<Value> args) {
    return CallByName(gf_name,
                      std::span<const Value>(args.begin(), args.size()));
  }

  // Invokes a specific method, bypassing dispatch (used by tests).
  Result<Value> Invoke(MethodId m, std::span<const Value> args);
  Result<Value> Invoke(MethodId m, std::initializer_list<Value> args) {
    return Invoke(m, std::span<const Value>(args.begin(), args.size()));
  }

  // Evaluates a free-standing statement tree (e.g. a query predicate) with
  // the given parameter values; a hit `return` yields its value, otherwise
  // Void. The body must have passed TypeCheckBody. With a `plan`, `args` is
  // a scan's candidate alone and the body runs as a plan frame of `plan`,
  // the plan of the candidate's creation type.
  Result<Value> EvalBody(const ExprPtr& body, std::span<const Value> args,
                         CallPlan* plan = nullptr);
  Result<Value> EvalBody(const ExprPtr& body,
                         std::initializer_list<Value> args) {
    return EvalBody(body, std::span<const Value>(args.begin(), args.size()));
  }

  // Runtime type of a value under this schema (objects: their creation type,
  // kInvalidType for an id out of range; primitives: the builtin type; Void:
  // invalid).
  TypeId RuntimeTypeOf(const Value& v) const;

  // Maximum call depth before giving up (guards the paper's possibly-cyclic
  // call graphs, e.g. Example 1's x1/y1).
  static constexpr int kMaxDepth = 256;

 private:
  // One method activation. `plan` is set in a plan frame, where every
  // parameter is the candidate.
  struct Frame {
    std::span<const Value> args;
    size_t locals_base;  // this frame's locals are locals_[locals_base, end)
    CallPlan* plan;
  };

  Result<Value> Run(const Method& method, std::span<const Value> args,
                    CallPlan* plan);
  Result<Value> RunBody(const Expr& body, std::span<const Value> args,
                        CallPlan* plan);
  // Executes a statement; a populated optional means "return was hit".
  Result<std::optional<Value>> Exec(const Expr& e, Frame& frame);
  Result<Value> Eval(const Expr& e, Frame& frame);
  Result<Value> EvalCall(const Expr& e, Frame& frame);
  Result<Value> EvalPlannedCall(const Expr& e, Frame& frame);
  Result<Value> EvalBinOp(const Expr& e, Frame& frame);
  Value* FindLocal(const Frame& frame, Symbol var);

  const Schema& schema_;
  ObjectStore* store_;
  int depth_ = 0;
  // The locals of every active frame, innermost last; each frame truncates
  // the stack back to its base when it returns.
  std::vector<std::pair<Symbol, Value>> locals_;
};

}  // namespace tyder

#endif  // TYDER_INSTANCES_INTERP_H_
