// Forwarder: the seeded random-schema generator lives in
// src/workload/random_schema.h, inside libtyder, so repobench's evolve
// workload can use it without depending on test code. Test sources keep
// their historical tyder::testing spelling via these aliases.

#ifndef TYDER_TESTS_TESTING_RANDOM_SCHEMA_H_
#define TYDER_TESTS_TESTING_RANDOM_SCHEMA_H_

#include "workload/random_schema.h"

namespace tyder::testing {

using workload::GenerateRandomSchema;
using workload::PickRandomProjection;
using workload::RandomSchemaOptions;

}  // namespace tyder::testing

#endif  // TYDER_TESTS_TESTING_RANDOM_SCHEMA_H_
