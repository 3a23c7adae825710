// Differential checking: cross-checks the optimized engine (bitset subtype
// closure, the per-version dispatch index, rank-table specificity sort)
// against the naive reference implementations in oracle/reference.h on
// an arbitrary schema. Every check returns OK or a Status::Internal whose
// message pinpoints the first divergence (the relation, the operands by name,
// and both answers) — the fuzzer (tests/fuzz/) treats any non-OK as a failing
// trace and shrinks it.
//
// CheckSubtypeOracle and CheckCumulativeStateOracle are exhaustive (all
// pairs / all types): at fuzzing scale (tens of types) that is cheap, and an
// exhaustive subtype sweep doubles as a forced build of every closure row,
// which is what makes missed-invalidation bugs deterministic to catch.
// CheckDispatchOracle enumerates all argument tuples per generic function
// when the tuple space is small, and falls back to a seeded sample otherwise.

#ifndef TYDER_ORACLE_DIFFERENTIAL_H_
#define TYDER_ORACLE_DIFFERENTIAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "methods/schema.h"

namespace tyder::oracle {

struct DifferentialOptions {
  // Seed for the sampled-tuple fallback of the dispatch check.
  uint32_t seed = 1;
  // Sampled argument tuples per generic function (fallback mode).
  int tuples_per_gf = 8;
  // Enumerate all |types|^arity tuples of a gf when that count is at most
  // this bound; sample otherwise.
  size_t exhaustive_tuple_limit = 2048;
};

// Exhaustive all-pairs IsSubtype vs RefIsSubtype.
Status CheckSubtypeOracle(const Schema& schema);

// CumulativeAttributes-as-a-set vs RefCumulativeState, for every type.
Status CheckCumulativeStateOracle(const Schema& schema);

// For each generic function and each (enumerated or sampled) argument tuple:
// ApplicableMethods, the dispatch index's applicable set, DispatchOrder, and
// Dispatch each vs their reference counterpart.
Status CheckDispatchOracle(const Schema& schema,
                           const DifferentialOptions& options = {});

// Section 5's guarantee, from first principles: the cumulative state of a
// derived type is exactly the projected attribute set.
Status CheckDerivedState(const Schema& schema, TypeId derived,
                         const std::vector<AttrId>& projected);

// All of the above (minus CheckDerivedState, which needs a derivation).
Status CheckSchemaAgainstOracle(const Schema& schema,
                                const DifferentialOptions& options = {});

}  // namespace tyder::oracle

#endif  // TYDER_ORACLE_DIFFERENTIAL_H_
