// Schema (de)serialization: a deterministic, line-oriented text format that
// round-trips everything — types (including surrogates), precedence-ordered
// supertype edges, attributes, generic functions, methods, and method bodies
// (as s-expressions). Ids are stable across a round trip, so serialized
// schemas can be diffed structurally (catalog/diff.h).
//
//   tyder-schema v1
//   type <name> builtin|user|surrogate [source=<type>]
//   super <sub> <super>              # one line per edge, precedence order
//   attr <name> <value-type> <owner>
//   gf <name> <arity>
//   method <label> <gf> general|reader|mutator (<T>...) -> <R>
//          [attr=<name>] [params=<p>...]    (one line)
//   body <label> <s-expression>

#ifndef TYDER_CATALOG_SERIALIZE_H_
#define TYDER_CATALOG_SERIALIZE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "methods/schema.h"

namespace tyder {

std::string SerializeSchema(const Schema& schema);

// Parses text produced by SerializeSchema into a fresh schema (builtins are
// re-installed, then user content replayed) and validates the result. Text
// from builds whose Collapse kept the types it spliced out (marked with a
// trailing type token) is refused with a ParseError that says how to move
// the data.
Result<Schema> DeserializeSchema(std::string_view text);

// --- checksummed snapshot envelope ------------------------------------------
//
// The text formats above are self-describing but defenseless on disk: a
// truncated or bit-flipped file can still parse. Snapshots written by the
// durable catalog (src/storage/) are therefore framed in a binary envelope:
//
//   offset  size  field
//   0       8     magic "tydrsnap"
//   8       4     format version (little-endian u32, currently 1)
//   12      4     payload length (little-endian u32)
//   16      n     payload (e.g. SerializeSchema / ExportTdl text)
//   16+n    4     CRC32C of the payload (little-endian u32 trailer)
//
// DecodeSnapshotEnvelope fails with a precise Status — never UB or silent
// partial state — on truncated input (any strict prefix of a valid
// envelope), wrong magic, a format version newer than this build supports,
// trailing garbage, or a checksum mismatch.

std::string EncodeSnapshotEnvelope(std::string_view payload);
Result<std::string> DecodeSnapshotEnvelope(std::string_view bytes);

// Schema-level convenience: SerializeSchema / DeserializeSchema through the
// envelope.
std::string SaveSchemaSnapshot(const Schema& schema);
Result<Schema> LoadSchemaSnapshot(std::string_view bytes);

// Body tree <-> s-expression (exposed for tests).
std::string SerializeBody(const Schema& schema, const ExprPtr& body);
Result<ExprPtr> DeserializeBody(const Schema& schema, std::string_view text);

}  // namespace tyder

#endif  // TYDER_CATALOG_SERIALIZE_H_
