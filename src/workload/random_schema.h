// Seeded random schema generation for property-based testing: arbitrary
// multiple-inheritance DAGs, attributes, accessors, and general methods with
// type-correct bodies (accessor calls, nested generic-function calls, local
// declarations and assignments that exercise the Section 6.3/6.4 machinery).
//
// It is part of libtyder, not of the test tree, because repobench's evolve
// workload generates its schemas with it; the tests reach it through
// tests/testing/random_schema.h.

#ifndef TYDER_WORKLOAD_RANDOM_SCHEMA_H_
#define TYDER_WORKLOAD_RANDOM_SCHEMA_H_

#include <cstdint>
#include <random>

#include "common/result.h"
#include "methods/schema.h"

namespace tyder::workload {

struct RandomSchemaOptions {
  uint32_t seed = 1;
  int num_types = 12;
  int max_supers = 3;        // per type, drawn from earlier types (acyclic)
  int attrs_per_type = 2;
  int num_general_methods = 10;
  int max_stmts_per_body = 4;
  bool with_mutators = false;
  // Methods per general generic function. The default (1) reproduces the
  // historical one-method-per-gf schemas byte-for-byte (seeded draws are
  // unchanged). Values > 1 add extra multi-methods whose formals are drawn
  // from the supertype closures of the first method's formals — overlapping
  // applicability with varied specificity, so dispatch ordering is
  // non-trivial (multiple applicable methods, CPL-dependent winners).
  int methods_per_gf = 1;
};

// Always returns a schema that passes Validate() and TypeCheckSchema().
Result<Schema> GenerateRandomSchema(const RandomSchemaOptions& options);

// A random projection request over the generated schema: a non-builtin type
// with at least one cumulative attribute, plus a random non-empty subset of
// its cumulative attributes. Returns false if the schema has no such type.
bool PickRandomProjection(const Schema& schema, uint32_t seed, TypeId* source,
                          std::vector<AttrId>* attributes);

}  // namespace tyder::workload

#endif  // TYDER_WORKLOAD_RANDOM_SCHEMA_H_
