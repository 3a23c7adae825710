#include "storage/catalog_snapshot.h"

#include <charconv>
#include <string>
#include <utility>

#include "catalog/op_codec.h"
#include "catalog/serialize.h"
#include "storage/crc32c.h"

namespace tyder::storage {

namespace {

constexpr std::string_view kHeader = "tyder-db v2";
constexpr std::string_view kV1Header = "tyder-db v1";

// Line-by-line cursor that can also take a byte-exact slice (the embedded
// schema section).
struct Cursor {
  std::string_view text;
  size_t pos = 0;
  size_t line_no = 0;  // 1-based number of the last line returned

  bool AtEnd() const { return pos >= text.size(); }

  std::string_view NextLine() {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end < text.size() ? end + 1 : end;
    ++line_no;
    return line;
  }
};

Status Corrupt(const Cursor& cursor, const std::string& what) {
  return Status::ParseError("catalog snapshot line " +
                            std::to_string(cursor.line_no) + ": " + what);
}

template <typename T>
bool ParseUnsigned(std::string_view token, T& out) {
  auto [ptr, ec] = std::from_chars(token.begin(), token.end(), out);
  return !token.empty() && ec == std::errc() && ptr == token.end();
}

uint32_t FoldCrc(const Catalog& catalog) {
  return Crc32c(SerializeSchema(catalog.schema()));
}

}  // namespace

std::string SerializeCatalog(const Catalog& catalog) {
  std::string base = SerializeSchema(catalog.base());
  std::string out;
  out += kHeader;
  out += "\nschema " + std::to_string(base.size()) + '\n' + base + '\n';
  for (const CatalogLogEntry& entry : catalog.log()) {
    out += "op " + entry.op + '\n';
  }
  out += "fold " + std::to_string(FoldCrc(catalog)) + '\n';
  return out;
}

Result<Catalog> DeserializeCatalog(std::string_view text) {
  Cursor cursor{text};
  std::string_view header = cursor.NextLine();
  if (header == kV1Header) {
    return Corrupt(
        cursor,
        "snapshot format v1 is no longer read: it stores view derivation "
        "records, which the op log replaced. To move the data, open the "
        "database with the previous build, run `tyderc --db <dir> --export`, "
        "and seed a new database from that TDL");
  }
  if (header != kHeader) {
    return Corrupt(cursor, "expected header '" + std::string(kHeader) + "'");
  }

  std::string_view schema_line = cursor.NextLine();
  uint64_t schema_bytes = 0;
  if (schema_line.substr(0, 7) != "schema " ||
      !ParseUnsigned(schema_line.substr(7), schema_bytes)) {
    return Corrupt(cursor, "expected 'schema <nbytes>'");
  }
  if (cursor.pos + schema_bytes + 1 > text.size() ||
      text[cursor.pos + schema_bytes] != '\n') {
    return Corrupt(cursor, "embedded schema section is cut short (" +
                               std::to_string(schema_bytes) +
                               " bytes declared)");
  }
  std::string_view schema_text = text.substr(cursor.pos, schema_bytes);
  cursor.pos += schema_bytes + 1;
  for (char c : schema_text) {
    if (c == '\n') ++cursor.line_no;
  }
  Result<Schema> base = DeserializeSchema(schema_text);
  if (!base.ok()) {
    return Status::ParseError("catalog snapshot: embedded schema: " +
                              base.status().message());
  }

  Catalog catalog(std::move(base).value());
  while (!cursor.AtEnd()) {
    std::string_view line = cursor.NextLine();
    if (line.substr(0, 3) == "op ") {
      Status applied = ApplyCatalogOp(catalog, line.substr(3));
      if (!applied.ok()) {
        return Corrupt(cursor, "op '" + std::string(line.substr(3)) +
                                   "' does not re-apply: " + applied.message());
      }
      continue;
    }
    uint32_t crc = 0;
    if (line.substr(0, 5) != "fold " || !ParseUnsigned(line.substr(5), crc)) {
      return Corrupt(cursor, "expected 'op <text>' or 'fold <crc32c>', got '" +
                                 std::string(line) + "'");
    }
    if (crc != FoldCrc(catalog)) {
      return Corrupt(cursor, "the ops re-fold to a schema with CRC32C " +
                                 std::to_string(FoldCrc(catalog)) +
                                 ", not the recorded " + std::to_string(crc));
    }
    if (!cursor.AtEnd() && !cursor.NextLine().empty()) {
      return Corrupt(cursor, "unexpected line after 'fold'");
    }
    return catalog;
  }
  return Corrupt(cursor, "missing the closing 'fold <crc32c>' line");
}

std::string SaveCatalogSnapshot(const Catalog& catalog) {
  return EncodeSnapshotEnvelope(SerializeCatalog(catalog));
}

Result<Catalog> LoadCatalogSnapshot(std::string_view bytes) {
  Result<std::string> payload = DecodeSnapshotEnvelope(bytes);
  if (!payload.ok()) return payload.status();
  return DeserializeCatalog(*payload);
}

Result<Catalog> ReadCatalogSnapshotFile(Env& env, const std::string& path) {
  Result<std::string> bytes = env.ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return LoadCatalogSnapshot(*bytes);
}

}  // namespace tyder::storage
