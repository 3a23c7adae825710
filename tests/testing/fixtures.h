// Shared schema fixtures reproducing the paper's running examples. Used by
// unit tests, integration tests, and the figure-reproduction benches.

#ifndef TYDER_TESTS_TESTING_FIXTURES_H_
#define TYDER_TESTS_TESTING_FIXTURES_H_

#include <set>
#include <string>
#include <string_view>

#include "common/result.h"
#include "methods/schema.h"

namespace tyder::testing {

// Section 3.1 / Figures 1–2: Person/Employee with age, income, promote and
// full accessors.
struct PersonEmployeeFixture {
  Schema schema;
  TypeId person = kInvalidType;
  TypeId employee = kInvalidType;
  AttrId ssn = kInvalidAttr, name = kInvalidAttr, date_of_birth = kInvalidAttr;
  AttrId pay_rate = kInvalidAttr, hrs_worked = kInvalidAttr;
  MethodId age = kInvalidMethod, income = kInvalidMethod,
           promote = kInvalidMethod;

  // The paper's projection list: SSN, date_of_birth, pay_rate.
  std::set<AttrId> Projection() const { return {ssn, date_of_birth, pay_rate}; }
};
Result<PersonEmployeeFixture> BuildPersonEmployee();

// Section 4.2 / Figure 3: the 8-type multiple-inheritance hierarchy with
// methods u1..u3, v1, v2, w1, w2, x1, y1 and accessors get_a1, get_b1,
// get_h2, get_g1. `with_z_methods` additionally defines the Section 6.5
// methods that make Z = {D, G} (z1 returns a G reached from its C parameter;
// z2 assigns its B parameter into a D local).
struct Example1Fixture {
  Schema schema;
  TypeId a{}, b{}, c{}, d{}, e{}, f{}, g{}, h{};
  AttrId a1{}, a2{}, b1{}, c1{}, d1{}, e1{}, e2{}, f1{}, g1{}, h1{}, h2{};
  MethodId u1{}, u2{}, u3{}, v1{}, v2{}, w1{}, w2{}, x1{}, y1{};
  MethodId get_a1{}, get_b1{}, get_h2{}, get_g1{};
  MethodId z1 = kInvalidMethod, z2 = kInvalidMethod;

  // The paper's projection list: a2, e2, h2.
  std::set<AttrId> Projection() const { return {a2, e2, h2}; }
};
Result<Example1Fixture> BuildExample1(bool with_z_methods = false);

// A directory path for one test's store that no other test process shares:
// under the system temp directory, named by `tag`, this process's id and a
// per-process counter. Anything already at the path is removed first, and
// the path is removed again when the process exits; the directory itself is
// not created.
std::string UniqueTestDir(std::string_view tag);

}  // namespace tyder::testing

#endif  // TYDER_TESTS_TESTING_FIXTURES_H_
