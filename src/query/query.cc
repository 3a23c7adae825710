#include "query/query.h"

#include <cstdint>
#include <optional>
#include <span>

#include "instances/interp.h"
#include "lang/analyzer.h"
#include "lang/parser.h"
#include "mir/builder.h"
#include "mir/type_check.h"
#include "obs/obs.h"

namespace tyder {

Query::Query(const Schema& schema, std::string_view type_name)
    : schema_(schema) {
  Result<TypeId> from = schema.types().FindType(type_name);
  if (!from.ok()) {
    Defer(from.status());
    return;
  }
  from_ = *from;
}

Query& Query::Where(ExprPtr predicate) {
  if (predicate == nullptr) {
    Defer(Status::InvalidArgument("null predicate"));
    return *this;
  }
  // Without a valid extent type the predicate cannot be type-checked; the
  // constructor error is already recorded.
  if (from_ == kInvalidType) return *this;
  // Type-check as `(self: From) -> Bool { return <expr>; }`.
  Signature sig{{from_}, schema_.builtins().bool_type};
  std::vector<Symbol> params = {Symbol::Intern("self")};
  ExprPtr body = mir::Seq({mir::Return(predicate)});
  Result<TypeAnnotations> checked =
      TypeCheckBody(schema_, sig, params, body);
  if (!checked.ok()) {
    Defer(checked.status().WithContext("query predicate"));
    return *this;
  }
  predicates_.push_back(std::move(body));
  return *this;
}

Query& Query::WhereTdl(std::string_view expr) {
  Result<AstExprPtr> parsed = ParseTdlExpression(expr);
  if (!parsed.ok()) {
    Defer(parsed.status().WithContext("query predicate"));
    return *this;
  }
  if (from_ == kInvalidType) return *this;
  Result<ExprPtr> lowered =
      LowerExpression(schema_, *parsed, {{"self", from_}});
  if (!lowered.ok()) {
    Defer(lowered.status().WithContext("query predicate"));
    return *this;
  }
  return Where(*lowered);
}

Query& Query::Column(std::string_view gf_name) {
  Result<GfId> gf = schema_.FindGenericFunction(gf_name);
  if (!gf.ok()) {
    Defer(gf.status().WithContext("query column"));
    return *this;
  }
  if (schema_.gf(*gf).arity != 1) {
    Defer(Status::InvalidArgument("query column '" + std::string(gf_name) +
                                  "' must be a unary generic function"));
    return *this;
  }
  if (from_ == kInvalidType) return *this;
  // The column must be answerable by every candidate: check that the call is
  // at least dynamically plausible for the extent type, by type-checking
  // `gf(self)` as an expression statement.
  Signature sig{{from_}, schema_.builtins().void_type};
  std::vector<Symbol> params = {Symbol::Intern("self")};
  ExprPtr call = mir::Call(*gf, {mir::Param(0)});
  Result<TypeAnnotations> checked =
      TypeCheckBody(schema_, sig, params, mir::Seq({mir::ExprStmt(call)}));
  if (!checked.ok()) {
    Defer(checked.status().WithContext("query column '" +
                                       std::string(gf_name) + "'"));
    return *this;
  }
  columns_.push_back(mir::Seq({mir::Return(std::move(call))}));
  column_names_.emplace_back(gf_name);
  return *this;
}

Result<QueryResult> Query::Execute(ObjectStore& store) const {
  if (!deferred_.empty()) {
    if (deferred_.size() == 1) return deferred_.front();
    std::string all = "query construction failed with " +
                      std::to_string(deferred_.size()) + " errors:";
    for (const Status& s : deferred_) all += "\n  - " + s.ToString();
    return Status::InvalidArgument(std::move(all));
  }
  TYDER_COUNT("query.executions");
  TYDER_TIMED("query.execute_ns");
  obs::ScopedSpan span("Query::Execute");
  span.Attr("from", schema_.types().TypeName(from_));
  span.Attr("predicates", std::to_string(predicates_.size()));
  span.Attr("columns", std::to_string(columns_.size()));

  QueryResult result;
  result.columns = column_names_;
  Interpreter interp(schema_, &store);
  const std::vector<uint8_t> member = MembershipRow(schema_, from_);
  const std::vector<TypeId>& types = store.creation_types();
  // One plan per concrete type met, built when its first member arrives.
  std::vector<std::optional<CallPlan>> plans(member.size());
  uint64_t scanned = 0;
  uint64_t filtered_out = 0;
  uint64_t plans_built = 0;
  // Members are evaluated in groups of up to kGroup, in id order. The slots
  // a group's plans read are looked up for the whole group first, so that
  // the members' cache misses overlap instead of stalling one evaluation
  // after another.
  constexpr size_t kGroup = 16;
  for (ObjectId next = 0; next < types.size();) {
    ObjectId group[kGroup] = {};
    size_t size = 0;
    for (; next < types.size() && size < kGroup; ++next) {
      if (types[next] < member.size() && member[types[next]]) {
        group[size++] = next;
      }
    }
    for (size_t i = 0; i < size; ++i) {
      const std::optional<CallPlan>& plan = plans[types[group[i]]];
      if (plan.has_value()) store.Prefetch(group[i], plan->reads());
    }
    for (size_t i = 0; i < size; ++i) {
      const ObjectId id = group[i];
      std::optional<CallPlan>& plan = plans[types[id]];
      if (!plan.has_value()) {
        plan.emplace(types[id]);
        ++plans_built;
      }
      ++scanned;
      const Value candidate = Value::Object(id);
      const std::span<const Value> args(&candidate, 1);
      bool keep = true;
      for (const ExprPtr& predicate : predicates_) {
        TYDER_ASSIGN_OR_RETURN(Value verdict,
                               interp.EvalBody(predicate, args, &*plan));
        if (!verdict.is_bool()) {
          return Status::Internal("query predicate did not yield Bool");
        }
        if (!verdict.AsBool()) {
          keep = false;
          break;
        }
      }
      if (!keep) {
        ++filtered_out;
        continue;
      }
      result.objects.push_back(id);
      std::vector<Value> row;
      row.reserve(columns_.size());
      for (const ExprPtr& column : columns_) {
        TYDER_ASSIGN_OR_RETURN(Value v,
                               interp.EvalBody(column, args, &*plan));
        row.push_back(std::move(v));
      }
      result.rows.push_back(std::move(row));
    }
  }
  uint64_t resolved = 0;
  for (const std::optional<CallPlan>& plan : plans) {
    if (plan.has_value()) resolved += plan->resolved();
  }
  TYDER_COUNT_N("query.plans_built", plans_built);
  TYDER_COUNT_N("query.plan_calls_resolved", resolved);
  TYDER_COUNT_N("query.objects_scanned", scanned);
  TYDER_COUNT_N("query.objects_filtered_out", filtered_out);
  TYDER_COUNT_N("query.rows_emitted",
                static_cast<uint64_t>(result.objects.size()));
  span.Attr("scanned", std::to_string(scanned));
  span.Attr("filtered_out", std::to_string(filtered_out));
  span.Attr("rows", std::to_string(result.objects.size()));
  return result;
}

}  // namespace tyder
