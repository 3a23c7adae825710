// Queries over extents and views: the consumer-side of the paper's view
// machinery. A Query scans the extent of a type (or derived view type),
// filters with a Bool-typed MIR predicate over the candidate object, and
// projects columns by applying unary generic functions — so a query on a
// view can only use the behavior that survived the derivation, exactly the
// encapsulation views exist to provide.
//
// Execute walks the store's creation-type column against one membership row
// and touches only members, in ascending id order. Each member is evaluated
// through the CallPlan of its concrete type (instances/interp.h), so a call
// on the candidate dispatches once per type a scan meets, not once per
// object: the predicate is typed once per input type.
//
//   Query query(schema, "EmployeeView");
//   query.WhereTdl("get_pay_rate(self) < 100.0 and age(self) < 65")
//        .Column("get_SSN")
//        .Column("age");
//   QueryResult rows = *query.Execute(store);

#ifndef TYDER_QUERY_QUERY_H_
#define TYDER_QUERY_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "instances/store.h"
#include "methods/schema.h"
#include "mir/expr.h"

namespace tyder {

struct QueryResult {
  std::vector<std::string> columns;        // generic-function names
  std::vector<ObjectId> objects;           // matching objects
  std::vector<std::vector<Value>> rows;    // parallel to objects
};

class Query {
 public:
  // Targets the extent of `type_name` (instances of it or any subtype).
  Query(const Schema& schema, std::string_view type_name);

  // Filter by a Bool-typed MIR expression; parameter 0 is the candidate.
  // Multiple Where calls conjoin.
  Query& Where(ExprPtr predicate);

  // Filter by a TDL expression; the identifier `self` names the candidate.
  Query& WhereTdl(std::string_view expr);

  // Project a column: a unary generic function applied to the candidate
  // (accessor or general method). No columns -> objects only.
  Query& Column(std::string_view gf_name);

  // Runs the query. Construction-time errors (unknown type/function,
  // ill-typed predicate) surface here; every accumulated error is reported —
  // a single error keeps its own code/message, multiple errors are combined
  // into one InvalidArgument listing all of them.
  Result<QueryResult> Execute(ObjectStore& store) const;

 private:
  // Records a construction error; later builder calls still validate
  // whatever they can so Execute can report every problem at once.
  void Defer(Status status) { deferred_.push_back(std::move(status)); }

  const Schema& schema_;
  std::vector<Status> deferred_;  // all construction errors, in call order
  TypeId from_ = kInvalidType;
  std::vector<ExprPtr> predicates_;  // `return <predicate>;` bodies
  std::vector<ExprPtr> columns_;     // `return <gf>(self);` bodies
  std::vector<std::string> column_names_;
};

}  // namespace tyder

#endif  // TYDER_QUERY_QUERY_H_
