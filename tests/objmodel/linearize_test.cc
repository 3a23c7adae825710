#include "objmodel/linearize.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracle/reference.h"
#include "testing/random_schema.h"

namespace tyder {
namespace {

// Every type's CPL from one memo, asked for in ascending and in descending
// id order (so a type is linearized before and after its supertypes), must
// equal the recursive reference's, C3 or BFS fallback alike.
TEST(CplMemoTest, MatchesReferenceInEitherQueryOrder) {
  int types = 0, fallbacks = 0;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    for (int max_supers : {2, 3, 4}) {
      testing::RandomSchemaOptions gen;
      gen.seed = seed;
      gen.num_types = 30;
      gen.max_supers = max_supers;
      gen.num_general_methods = 0;
      Result<Schema> schema = testing::GenerateRandomSchema(gen);
      ASSERT_TRUE(schema.ok()) << schema.status();
      const TypeGraph& graph = schema->types();
      const TypeId n = static_cast<TypeId>(graph.NumTypes());
      std::vector<std::vector<TypeId>> ref;
      for (TypeId t = 0; t < n; ++t) {
        ref.push_back(oracle::RefClassPrecedenceList(graph, t));
      }
      std::string where = "seed " + std::to_string(seed) + ", max_supers " +
                          std::to_string(max_supers);
      CplMemo ascending(graph);
      for (TypeId t = 0; t < n; ++t) {
        std::span<const TypeId> cpl = ascending.Cpl(t);
        EXPECT_EQ(std::vector<TypeId>(cpl.begin(), cpl.end()), ref[t])
            << where << ", ascending, type " << graph.TypeName(t);
        ++types;
        if (!ascending.HasC3(t)) ++fallbacks;
      }
      CplMemo descending(graph);
      for (TypeId t = n; t-- > 0;) {
        std::span<const TypeId> cpl = descending.Cpl(t);
        EXPECT_EQ(std::vector<TypeId>(cpl.begin(), cpl.end()), ref[t])
            << where << ", descending, type " << graph.TypeName(t);
        EXPECT_EQ(descending.HasC3(t), HasC3Linearization(graph, t))
            << where << ", type " << graph.TypeName(t);
      }
    }
  }
  EXPECT_GT(types, 0);
  // C3 fails for some types, so the fallback order is covered too.
  EXPECT_GT(fallbacks, 0);
  EXPECT_LT(fallbacks, types);
}

}  // namespace
}  // namespace tyder
