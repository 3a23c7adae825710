#include "instances/interp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "methods/dispatch.h"

namespace tyder {

namespace {

// The n arguments (or argument types) of one call: on the stack up to
// kInline, which covers the arities methods have in practice, and on the
// heap beyond.
template <typename T>
class ArgBuffer {
 public:
  explicit ArgBuffer(size_t n) : n_(n) {
    if (n > kInline) heap_.resize(n);
  }
  T* data() { return n_ > kInline ? heap_.data() : inline_; }
  T& operator[](size_t i) { return data()[i]; }
  std::span<const T> span() { return {data(), n_}; }

 private:
  static constexpr size_t kInline = 4;
  size_t n_;
  T inline_[kInline] = {};
  std::vector<T> heap_;
};

// Why Call cannot dispatch on `v`, whose runtime type `type` is not a type
// id of the schema.
Status UndispatchableArgument(const Value& v, TypeId type) {
  if (!v.is_object()) {
    return Status::InvalidArgument("cannot dispatch on a void argument");
  }
  if (type == kInvalidType) {
    return Status::InvalidArgument("object id out of range");
  }
  return Status::InvalidArgument(
      "object " + v.ToString() + " has creation type " + std::to_string(type) +
      ", which the schema no longer has (its view was dropped)");
}

// Checked Int arithmetic: Float arithmetic cannot trap, Int arithmetic must
// not wrap or divide INT64_MIN by -1.
Result<Value> Arith(BinOpKind op, const Value& lhs, const Value& rhs) {
  if (op == BinOpKind::kDiv && rhs.is_numeric() && rhs.AsDouble() == 0.0) {
    return Status::InvalidArgument("division by zero");
  }
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::Internal("arithmetic on non-numeric values");
  }
  if (lhs.is_int() && rhs.is_int()) {
    const int64_t a = lhs.AsInt(), b = rhs.AsInt();
    int64_t out = 0;
    bool overflow = false;
    switch (op) {
      case BinOpKind::kAdd:
        overflow = __builtin_add_overflow(a, b, &out);
        break;
      case BinOpKind::kSub:
        overflow = __builtin_sub_overflow(a, b, &out);
        break;
      case BinOpKind::kMul:
        overflow = __builtin_mul_overflow(a, b, &out);
        break;
      default:
        overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
        if (!overflow) out = a / b;
        break;
    }
    if (overflow) {
      return Status::InvalidArgument("integer overflow in " +
                                     std::to_string(a) + " " + BinOpName(op) +
                                     " " + std::to_string(b));
    }
    return Value::Int(out);
  }
  const double a = lhs.AsDouble(), b = rhs.AsDouble();
  switch (op) {
    case BinOpKind::kAdd:
      return Value::Float(a + b);
    case BinOpKind::kSub:
      return Value::Float(a - b);
    case BinOpKind::kMul:
      return Value::Float(a * b);
    default:
      return Value::Float(a / b);
  }
}

}  // namespace

TypeId Interpreter::RuntimeTypeOf(const Value& v) const {
  const BuiltinTypes& b = schema_.builtins();
  if (v.is_int()) return b.int_type;
  if (v.is_float()) return b.float_type;
  if (v.is_bool()) return b.bool_type;
  if (v.is_string()) return b.string_type;
  if (v.is_object()) return store_->creation_type(v.AsObject());
  return kInvalidType;
}

Result<Value> Interpreter::Call(GfId gf, std::span<const Value> args) {
  if (gf >= schema_.NumGenericFunctions()) {
    return Status::InvalidArgument("generic function id out of range");
  }
  const size_t num_types = schema_.types().NumTypes();
  ArgBuffer<TypeId> arg_types(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    arg_types[i] = RuntimeTypeOf(args[i]);
    if (arg_types[i] >= num_types) {
      return UndispatchableArgument(args[i], arg_types[i]);
    }
  }
  TYDER_ASSIGN_OR_RETURN(MethodId target,
                         Dispatch(schema_, gf, arg_types.span()));
  return Run(schema_.method(target), args, nullptr);
}

Result<Value> Interpreter::CallByName(std::string_view gf_name,
                                      std::span<const Value> args) {
  TYDER_ASSIGN_OR_RETURN(GfId gf, schema_.FindGenericFunction(gf_name));
  return Call(gf, args);
}

Result<Value> Interpreter::Invoke(MethodId m, std::span<const Value> args) {
  return Run(schema_.method(m), args, nullptr);
}

Result<Value> Interpreter::EvalBody(const ExprPtr& body,
                                    std::span<const Value> args,
                                    CallPlan* plan) {
  if (body == nullptr) {
    return Status::InvalidArgument("cannot evaluate a null body");
  }
  if (depth_ >= kMaxDepth) {
    return Status::FailedPrecondition("call depth limit exceeded");
  }
  ++depth_;
  Result<Value> out = RunBody(*body, args, plan);
  --depth_;
  return out;
}

Result<Value> Interpreter::Run(const Method& method,
                               std::span<const Value> args, CallPlan* plan) {
  if (args.size() != method.sig.params.size()) {
    return Status::InvalidArgument("wrong argument count for method '" +
                                   method.label.str() + "'");
  }
  switch (method.kind) {
    case MethodKind::kReader: {
      if (!args[0].is_object()) {
        return Status::InvalidArgument("reader applied to a non-object");
      }
      return store_->GetSlot(args[0].AsObject(), method.attr);
    }
    case MethodKind::kMutator: {
      if (!args[0].is_object()) {
        return Status::InvalidArgument("mutator applied to a non-object");
      }
      TYDER_RETURN_IF_ERROR(
          store_->SetSlot(args[0].AsObject(), method.attr, args[1]));
      return Value::Void();
    }
    case MethodKind::kGeneral: {
      if (method.body == nullptr) {
        return Status::Internal("general method '" + method.label.str() +
                                "' has no body");
      }
      if (depth_ >= kMaxDepth) {
        return Status::FailedPrecondition("call depth limit exceeded in '" +
                                          method.label.str() + "'");
      }
      ++depth_;
      Result<Value> out = RunBody(*method.body, args, plan);
      --depth_;
      return out;
    }
  }
  return Status::Internal("unhandled method kind");
}

Result<Value> Interpreter::RunBody(const Expr& body,
                                   std::span<const Value> args,
                                   CallPlan* plan) {
  Frame frame{args, locals_.size(), plan};
  Result<std::optional<Value>> returned = Exec(body, frame);
  locals_.erase(locals_.begin() + frame.locals_base, locals_.end());
  if (!returned.ok()) return returned.status();
  // Statements may return; an off-the-end body yields Void.
  return returned->has_value() ? std::move(**returned) : Value::Void();
}

Value* Interpreter::FindLocal(const Frame& frame, Symbol var) {
  for (size_t i = frame.locals_base; i < locals_.size(); ++i) {
    if (locals_[i].first == var) return &locals_[i].second;
  }
  return nullptr;
}

Result<std::optional<Value>> Interpreter::Exec(const Expr& e, Frame& frame) {
  switch (e.kind) {
    case ExprKind::kSeq: {
      for (const ExprPtr& stmt : e.children) {
        TYDER_ASSIGN_OR_RETURN(std::optional<Value> r, Exec(*stmt, frame));
        if (r.has_value()) return r;
      }
      return std::optional<Value>{};
    }
    case ExprKind::kDecl:
    case ExprKind::kAssign: {
      Value v = Value::Void();
      if (!e.children.empty()) {
        TYDER_ASSIGN_OR_RETURN(v, Eval(*e.children[0], frame));
      }
      // Looked up after the initializer ran: a nested call may have grown
      // and shrunk the locals stack meanwhile.
      if (Value* local = FindLocal(frame, e.var)) {
        *local = std::move(v);
      } else {
        locals_.emplace_back(e.var, std::move(v));
      }
      return std::optional<Value>{};
    }
    case ExprKind::kReturn: {
      if (e.children.empty()) return std::optional<Value>{Value::Void()};
      TYDER_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], frame));
      return std::optional<Value>{std::move(v)};
    }
    case ExprKind::kIf: {
      TYDER_ASSIGN_OR_RETURN(Value cond, Eval(*e.children[0], frame));
      if (!cond.is_bool()) {
        return Status::Internal("if condition did not evaluate to Bool");
      }
      if (cond.AsBool()) return Exec(*e.children[1], frame);
      if (e.children.size() > 2) return Exec(*e.children[2], frame);
      return std::optional<Value>{};
    }
    case ExprKind::kExprStmt: {
      TYDER_RETURN_IF_ERROR(Eval(*e.children[0], frame).status());
      return std::optional<Value>{};
    }
    default:
      return Status::Internal("expression used as statement");
  }
}

Result<Value> Interpreter::Eval(const Expr& e, Frame& frame) {
  switch (e.kind) {
    case ExprKind::kParamRef:
      if (e.param_index < 0 ||
          e.param_index >= static_cast<int>(frame.args.size())) {
        return Status::Internal("parameter index out of range at runtime");
      }
      return frame.args[e.param_index];
    case ExprKind::kVarRef: {
      const Value* local = FindLocal(frame, e.var);
      if (local == nullptr) {
        return Status::Internal("local '" + e.var.str() +
                                "' read before declaration");
      }
      return *local;
    }
    case ExprKind::kIntLit:
      return Value::Int(e.int_val);
    case ExprKind::kFloatLit:
      return Value::Float(e.float_val);
    case ExprKind::kBoolLit:
      return Value::Bool(e.bool_val);
    case ExprKind::kStringLit:
      return Value::String(e.str_val);
    case ExprKind::kCall:
      return frame.plan != nullptr ? EvalPlannedCall(e, frame)
                                   : EvalCall(e, frame);
    case ExprKind::kBinOp:
      return EvalBinOp(e, frame);
    default:
      return Status::Internal("statement used as expression");
  }
}

Result<Value> Interpreter::EvalCall(const Expr& e, Frame& frame) {
  ArgBuffer<Value> args(e.children.size());
  for (size_t i = 0; i < e.children.size(); ++i) {
    TYDER_ASSIGN_OR_RETURN(args[i], Eval(*e.children[i], frame));
  }
  return Call(e.callee, args.span());
}

Result<Value> Interpreter::EvalPlannedCall(const Expr& e, Frame& frame) {
  CallPlan& plan = *frame.plan;
  const size_t arity = e.children.size();
  MethodId target = kInvalidMethod;
  if (const CallPlan::Site* site = plan.Find(&e)) {
    target = site->target;
  } else {
    const bool on_candidate =
        e.callee < schema_.NumGenericFunctions() && arity > 0 &&
        std::all_of(e.children.begin(), e.children.end(),
                    [&](const ExprPtr& arg) {
                      return arg->kind == ExprKind::kParamRef &&
                             arg->param_index >= 0 &&
                             arg->param_index <
                                 static_cast<int>(frame.args.size());
                    });
    if (on_candidate) {
      ArgBuffer<TypeId> arg_types(arity);
      std::fill_n(arg_types.data(), arity, plan.type_);
      TYDER_ASSIGN_OR_RETURN(target,
                             Dispatch(schema_, e.callee, arg_types.span()));
      ++plan.resolved_;
      const Method& method = schema_.method(target);
      if (method.kind == MethodKind::kReader &&
          std::find(plan.reads_.begin(), plan.reads_.end(), method.attr) ==
              plan.reads_.end()) {
        plan.reads_.push_back(method.attr);
      }
    }
    plan.sites_.push_back({&e, target});
  }
  if (target == kInvalidMethod) return EvalCall(e, frame);
  // Every parameter of this frame is the candidate, so every argument is.
  const Method& method = schema_.method(target);
  if (arity <= frame.args.size()) {
    return Run(method, frame.args.first(arity), &plan);
  }
  ArgBuffer<Value> args(arity);
  std::fill_n(args.data(), arity, frame.args[0]);
  return Run(method, args.span(), &plan);
}

Result<Value> Interpreter::EvalBinOp(const Expr& e, Frame& frame) {
  TYDER_ASSIGN_OR_RETURN(Value lhs, Eval(*e.children[0], frame));
  TYDER_ASSIGN_OR_RETURN(Value rhs, Eval(*e.children[1], frame));
  switch (e.op) {
    case BinOpKind::kAdd:
    case BinOpKind::kSub:
    case BinOpKind::kMul:
    case BinOpKind::kDiv:
      return Arith(e.op, lhs, rhs);
    case BinOpKind::kLt:
    case BinOpKind::kLe:
      if (!lhs.is_numeric() || !rhs.is_numeric()) {
        return Status::Internal("comparison on non-numeric values");
      }
      return Value::Bool(e.op == BinOpKind::kLt
                             ? lhs.AsDouble() < rhs.AsDouble()
                             : lhs.AsDouble() <= rhs.AsDouble());
    case BinOpKind::kEq:
      return Value::Bool(lhs == rhs);
    case BinOpKind::kAnd:
    case BinOpKind::kOr:
      if (!lhs.is_bool() || !rhs.is_bool()) {
        return Status::Internal(std::string(BinOpName(e.op)) +
                                " on non-Bool values");
      }
      return Value::Bool(e.op == BinOpKind::kAnd
                             ? lhs.AsBool() && rhs.AsBool()
                             : lhs.AsBool() || rhs.AsBool());
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace tyder
