#include "catalog/serialize.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/projection.h"
#include "instances/interp.h"
#include "mir/builder.h"
#include "mir/printer.h"
#include "mir/type_check.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

TEST(SerializeTest, RoundTripPlainSchema) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  std::string text = SerializeSchema(fx->schema);
  auto restored = DeserializeSchema(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // Stable re-serialization: the round trip is a fixed point.
  EXPECT_EQ(SerializeSchema(*restored), text);
  EXPECT_TRUE(TypeCheckSchema(*restored).ok());
}

TEST(SerializeTest, RoundTripFactoredSchema) {
  auto fx = testing::BuildExample1(/*with_z_methods=*/true);
  ASSERT_TRUE(fx.ok());
  ProjectionSpec spec;
  spec.source = fx->a;
  spec.attributes = {fx->a2, fx->e2, fx->h2};
  spec.view_name = "ProjA";
  ASSERT_TRUE(DeriveProjection(fx->schema, spec).ok());

  std::string text = SerializeSchema(fx->schema);
  auto restored = DeserializeSchema(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializeSchema(*restored), text);

  // Structure is preserved: surrogates, moved attributes, rewritten sigs.
  auto proj = restored->types().FindType("ProjA");
  ASSERT_TRUE(proj.ok());
  EXPECT_TRUE(restored->types().type(*proj).is_surrogate());
  auto v1 = restored->FindMethod("v1");
  ASSERT_TRUE(v1.ok());
  EXPECT_NE(PrintMethod(*restored, *v1).find("v(ProjA, ~C)"),
            std::string::npos);
}

TEST(SerializeTest, RestoredSchemaExecutesIdentically) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  auto restored = DeserializeSchema(SerializeSchema(fx->schema));
  ASSERT_TRUE(restored.ok()) << restored.status();
  ObjectStore store;
  auto employee = restored->types().FindType("Employee");
  ASSERT_TRUE(employee.ok());
  auto obj = store.CreateObject(*restored, *employee);
  ASSERT_TRUE(obj.ok());
  auto dob = restored->types().FindAttribute("date_of_birth");
  ASSERT_TRUE(dob.ok());
  ASSERT_TRUE(store.SetSlot(*obj, *dob, Value::Int(1990)).ok());
  Interpreter interp(*restored, &store);
  auto age = interp.CallByName("age", {Value::Object(*obj)});
  ASSERT_TRUE(age.ok()) << age.status();
  EXPECT_EQ(*age, Value::Int(36));
}

TEST(SerializeTest, BodyRoundTripCoversEveryNodeKind) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Schema& s = fx->schema;
  auto u = s.DeclareGenericFunction("u_probe", 1);
  ASSERT_TRUE(u.ok());
  ExprPtr body = mir::Seq(
      {mir::Decl("v0", fx->person, mir::Param(0)),
       mir::Assign("v0", mir::Param(0)),
       mir::ExprStmt(mir::Call(
           *u, {mir::Param(0)})),
       mir::If(mir::BinOp(BinOpKind::kAnd, mir::BoolLit(true),
                          mir::BinOp(BinOpKind::kLe, mir::IntLit(1),
                                     mir::FloatLit(2.5))),
               mir::Seq({mir::Return()}),
               mir::Seq({mir::ExprStmt(mir::StringLit("a \"quoted\" str"))})),
       mir::Return()});
  std::string text = SerializeBody(s, body);
  auto restored = DeserializeBody(s, text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializeBody(s, *restored), text);
}

TEST(SerializeTest, MissingHeaderRejected) {
  EXPECT_FALSE(DeserializeSchema("type A user\n").ok());
}

TEST(SerializeTest, UnknownDirectiveRejected) {
  EXPECT_FALSE(DeserializeSchema("tyder-schema v1\nbogus line\n").ok());
}

TEST(SerializeTest, MalformedBodyRejected) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  EXPECT_FALSE(DeserializeBody(fx->schema, "(unknown_tag)").ok());
  EXPECT_FALSE(DeserializeBody(fx->schema, "(seq").ok());
  EXPECT_FALSE(DeserializeBody(fx->schema, "(call no_such_gf)").ok());
}

// Numbers in a body are parsed whole with std::from_chars: text that is not a
// number, or a number that does not fit, is a ParseError naming it — never
// an uncaught exception that aborts the process.
TEST(SerializeTest, MalformedBodyNumbersRejected) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  const std::pair<const char*, const char*> kBodies[] = {
      {"(param x)", "x"},
      {"(param 99999999999)", "99999999999"},
      {"(int 99999999999999999999)", "99999999999999999999"},
      {"(int 12abc)", "12abc"},
      {"(float 1e999)", "1e999"},
      {"(float fast)", "fast"},
  };
  for (const auto& [body, number] : kBodies) {
    auto parsed = DeserializeBody(fx->schema, body);
    ASSERT_FALSE(parsed.ok()) << body;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << body;
    EXPECT_NE(parsed.status().message().find(std::string("'") + number + "'"),
              std::string::npos)
        << parsed.status();
  }
  // The printed forms WriteBody emits for extreme values still parse.
  for (const char* body : {"(int -9223372036854775808)", "(float -inf)",
                           "(float nan)", "(float 1e+300)"}) {
    EXPECT_TRUE(DeserializeBody(fx->schema, body).ok()) << body;
  }
}

// ---------------------------------------------------------------------------
// Checksummed snapshot envelope (the durable catalog's on-disk framing).

TEST(SnapshotEnvelopeTest, EncodeDecodeRoundTrip) {
  std::string payload = "tyder-schema v1\ntype Person user\n";
  auto decoded = DecodeSnapshotEnvelope(EncodeSnapshotEnvelope(payload));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, payload);
  // Empty payloads frame cleanly too.
  decoded = DecodeSnapshotEnvelope(EncodeSnapshotEnvelope(""));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, "");
}

// The hardening contract: EVERY strict prefix of a valid snapshot must fail
// with a Status — never decode partially, never read out of bounds.
TEST(SnapshotEnvelopeTest, EveryPrefixOfAValidSnapshotFails) {
  std::string bytes = EncodeSnapshotEnvelope("payload bytes for the test");
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded =
        DecodeSnapshotEnvelope(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  auto full = DecodeSnapshotEnvelope(bytes);
  EXPECT_TRUE(full.ok()) << full.status();
}

TEST(SnapshotEnvelopeTest, WrongMagicFails) {
  std::string bytes = EncodeSnapshotEnvelope("payload");
  bytes[0] = 'X';
  auto decoded = DecodeSnapshotEnvelope(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("bad magic"), std::string::npos)
      << decoded.status();
}

TEST(SnapshotEnvelopeTest, FutureFormatVersionFails) {
  std::string bytes = EncodeSnapshotEnvelope("payload");
  bytes[8] = 2;  // little-endian u32 version at offset 8
  auto decoded = DecodeSnapshotEnvelope(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version 2"), std::string::npos)
      << decoded.status();
}

TEST(SnapshotEnvelopeTest, PayloadCorruptionFailsTheChecksum) {
  std::string bytes = EncodeSnapshotEnvelope("payload");
  bytes[16] ^= 0x01;  // first payload byte
  auto decoded = DecodeSnapshotEnvelope(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
      << decoded.status();
}

TEST(SnapshotEnvelopeTest, TrailingGarbageFails) {
  std::string bytes = EncodeSnapshotEnvelope("payload") + "x";
  auto decoded = DecodeSnapshotEnvelope(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos)
      << decoded.status();
}

TEST(SnapshotEnvelopeTest, SchemaSnapshotRoundTripsFactoredSchemas) {
  auto fx = testing::BuildExample1(/*with_z_methods=*/true);
  ASSERT_TRUE(fx.ok());
  ProjectionSpec spec;
  spec.source = fx->a;
  spec.attributes = {fx->a2, fx->e2, fx->h2};
  spec.view_name = "ProjA";
  ASSERT_TRUE(DeriveProjection(fx->schema, spec).ok());

  std::string bytes = SaveSchemaSnapshot(fx->schema);
  auto restored = LoadSchemaSnapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(SerializeSchema(*restored), SerializeSchema(fx->schema));
  // Every prefix of the framed schema fails loudly as well.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_FALSE(
        LoadSchemaSnapshot(std::string_view(bytes).substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

}  // namespace
}  // namespace tyder
