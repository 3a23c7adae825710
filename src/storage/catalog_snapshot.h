// Full-fidelity catalog snapshots: the payload the durable catalog frames in
// the checksummed envelope of catalog/serialize.h.
//
// A catalog is a fold of its op log over a base schema (catalog/catalog.h),
// so a snapshot stores exactly those two: the base as the exact
// SerializeSchema text (whose ids are stable across a round trip), then one
// line per log entry in op-text form (catalog/op_codec.h). Loading re-applies
// the ops; the last line carries the CRC32C of the folded schema's
// SerializeSchema text, so a re-fold that lands anywhere else is refused.
//
//   tyder-db v2
//   schema <nbytes>
//   <SerializeSchema text of the base, exactly nbytes>
//   op <op text>                # one per log entry, in order
//   fold <crc32c>               # CRC32C of SerializeSchema(folded schema)
//
// ExportTdl is deliberately NOT used for the base: a TDL round trip is lossy
// (detached types vanish, generic-function id order can shift).
//
// v1 payloads (a folded schema plus per-view derivation records) are refused
// with a ParseError that says how to move the data (see the .cc).

#ifndef TYDER_STORAGE_CATALOG_SNAPSHOT_H_
#define TYDER_STORAGE_CATALOG_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/env.h"

namespace tyder::storage {

// Serializes the whole catalog (base + op log + fold CRC) as the text
// payload above. Deterministic: equal catalogs produce equal bytes, and the
// fold line makes catalogs whose folded schemas differ serialize apart.
std::string SerializeCatalog(const Catalog& catalog);

// Inverse of SerializeCatalog: loads the base and re-applies the ops.
// ParseError when the text is malformed, an op does not re-apply, or the
// fold's CRC differs. The result serializes byte-identically to the input
// of the SerializeCatalog call that produced `text`.
Result<Catalog> DeserializeCatalog(std::string_view text);

// Catalog <-> checksummed snapshot envelope (serialize.h framing).
std::string SaveCatalogSnapshot(const Catalog& catalog);
Result<Catalog> LoadCatalogSnapshot(std::string_view bytes);

// Reads the file at `path` through `env` and decodes the envelope.
Result<Catalog> ReadCatalogSnapshotFile(Env& env, const std::string& path);

}  // namespace tyder::storage

#endif  // TYDER_STORAGE_CATALOG_SNAPSHOT_H_
