// Unit tests for the synthetic bench schema generators (ISSUE 10 satellite).
//
// The scalability benches are only comparable across runs if these
// generators are deterministic in their parameters and produce the
// documented shapes; this pins both.

#include "workloads.h"

#include <string>

#include "gtest/gtest.h"
#include "methods/dispatch.h"
#include "objmodel/schema_printer.h"

namespace tyder::bench {
namespace {

TEST(BenchWorkloads, ChainSchemaShape) {
  const int depth = 8;
  Result<Schema> schema = BuildChainSchema(depth);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  const TypeGraph& graph = schema->types();
  // T0 is the deepest subtype: it must see every attribute along the chain.
  Result<TypeId> t0 = graph.FindType("T0");
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(graph.CumulativeAttributes(*t0).size(), static_cast<size_t>(depth));
  // The top of the chain owns exactly its own attribute.
  Result<TypeId> top = graph.FindType("T" + std::to_string(depth - 1));
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(graph.CumulativeAttributes(*top).size(), 1u);
  EXPECT_TRUE(graph.IsSubtype(*t0, *top));
  EXPECT_FALSE(graph.IsSubtype(*top, *t0));
  // One chained gf + one reader gf per level.
  EXPECT_EQ(schema->NumGenericFunctions(), static_cast<size_t>(2 * depth));
  // The method chain dispatches end to end on T0.
  Result<GfId> m0 = schema->FindGenericFunction("m0");
  ASSERT_TRUE(m0.ok());
  EXPECT_TRUE(Dispatch(*schema, *m0, {*t0}).ok());
}

TEST(BenchWorkloads, WideSchemaShape) {
  const int width = 12;
  Result<Schema> schema = BuildWideSchema(width);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  const TypeGraph& graph = schema->types();
  Result<TypeId> src = graph.FindType("Src");
  ASSERT_TRUE(src.ok());
  // Src inherits one attribute from each of its `width` unrelated supers.
  EXPECT_EQ(graph.CumulativeAttributes(*src).size(),
            static_cast<size_t>(width));
  for (int i = 0; i < width; ++i) {
    Result<TypeId> s = graph.FindType("S" + std::to_string(i));
    ASSERT_TRUE(s.ok());
    EXPECT_TRUE(graph.IsSubtype(*src, *s));
    EXPECT_EQ(graph.CumulativeAttributes(*s).size(), 1u);
  }
}

TEST(BenchWorkloads, CyclicSchemaRingDispatches) {
  const int n = 6;
  Result<Schema> schema = BuildCyclicSchema(n);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  Result<TypeId> t = schema->types().FindType("T");
  ASSERT_TRUE(t.ok());
  // Every ring gf has an applicable method on T despite the call cycle.
  for (int i = 0; i < n; ++i) {
    Result<GfId> gf = schema->FindGenericFunction("c" + std::to_string(i));
    ASSERT_TRUE(gf.ok()) << i;
    EXPECT_TRUE(Dispatch(*schema, *gf, {*t}).ok()) << i;
  }
}

TEST(BenchWorkloads, TreeSchemaShape) {
  const int depth = 5;
  Result<Schema> schema = BuildTreeSchema(depth);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  const TypeGraph& graph = schema->types();
  Result<TypeId> root = graph.FindType("N0_0");
  ASSERT_TRUE(root.ok());
  // The root reaches every leaf attribute: 2^(depth-1) of them.
  EXPECT_EQ(graph.CumulativeAttributes(*root).size(),
            static_cast<size_t>(1 << (depth - 1)));
  // Both leftmost and rightmost leaves are supertypes of the root.
  std::string last_level = std::to_string(depth - 1);
  Result<TypeId> left = graph.FindType("N" + last_level + "_0");
  Result<TypeId> right = graph.FindType(
      "N" + last_level + "_" + std::to_string((1 << (depth - 1)) - 1));
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE(graph.IsSubtype(*root, *left));
  EXPECT_TRUE(graph.IsSubtype(*root, *right));
  EXPECT_FALSE(graph.IsSubtype(*left, *right));
}

TEST(BenchWorkloads, GeneratorsAreDeterministic) {
  auto fingerprint = [](const Result<Schema>& schema) {
    EXPECT_TRUE(schema.ok());
    return PrintHierarchy(schema->types()) + "|gfs=" +
           std::to_string(schema->NumGenericFunctions());
  };
  EXPECT_EQ(fingerprint(BuildChainSchema(6)), fingerprint(BuildChainSchema(6)));
  EXPECT_EQ(fingerprint(BuildWideSchema(9)), fingerprint(BuildWideSchema(9)));
  EXPECT_EQ(fingerprint(BuildCyclicSchema(5)),
            fingerprint(BuildCyclicSchema(5)));
  EXPECT_EQ(fingerprint(BuildTreeSchema(4)), fingerprint(BuildTreeSchema(4)));
  // And parameter changes actually change the shape.
  EXPECT_NE(fingerprint(BuildChainSchema(6)), fingerprint(BuildChainSchema(7)));
}

TEST(BenchWorkloads, FirstAttributesClampsToCumulativeSet) {
  Result<Schema> schema = BuildWideSchema(5);
  ASSERT_TRUE(schema.ok());
  Result<TypeId> src = schema->types().FindType("Src");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(FirstAttributes(*schema, *src, 3).size(), 3u);
  EXPECT_EQ(FirstAttributes(*schema, *src, 5).size(), 5u);
  // Asking for more than exist returns them all, no padding.
  EXPECT_EQ(FirstAttributes(*schema, *src, 99).size(), 5u);
  // A prefix really is a prefix of the full cumulative list.
  std::vector<AttrId> all = FirstAttributes(*schema, *src, 99);
  std::vector<AttrId> three = FirstAttributes(*schema, *src, 3);
  for (size_t i = 0; i < three.size(); ++i) EXPECT_EQ(three[i], all[i]);
}

}  // namespace
}  // namespace tyder::bench
