#include "server/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace prefdb::server {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::optional<ValueType> ParseTypeName(const std::string& name) {
  if (name == "NULL") return ValueType::kNull;
  if (name == "INT") return ValueType::kInt;
  if (name == "DOUBLE") return ValueType::kDouble;
  if (name == "STRING") return ValueType::kString;
  return std::nullopt;
}

/// Reads "<prefix> ...\n" starting at *pos; returns the "..." part and
/// advances past the newline. nullopt when the line is missing/mislabeled.
std::optional<std::string> TakeLine(const std::string& data, size_t* pos,
                                    const char* prefix) {
  size_t len = std::strlen(prefix);
  if (data.compare(*pos, len, prefix) != 0) return std::nullopt;
  size_t start = *pos + len;
  size_t nl = data.find('\n', start);
  if (nl == std::string::npos) return std::nullopt;
  std::string line = data.substr(start, nl - start);
  *pos = nl + 1;
  return line;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  if (text.empty()) return parts;
  size_t start = 0;
  for (;;) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  uint32_t len = static_cast<uint32_t>(frame.payload.size());
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>(len & 0xff));
  out.push_back(static_cast<char>(frame.type));
  out += frame.payload;
  return out;
}

uint32_t DecodeFrameHeader(const unsigned char header[kFrameHeaderBytes],
                           FrameType* type) {
  uint32_t len = (static_cast<uint32_t>(header[0]) << 24) |
                 (static_cast<uint32_t>(header[1]) << 16) |
                 (static_cast<uint32_t>(header[2]) << 8) |
                 static_cast<uint32_t>(header[3]);
  *type = static_cast<FrameType>(header[4]);
  return len;
}

std::string EncodeTaggedFrame(uint64_t request_id, const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + kRequestIdBytes + frame.payload.size());
  uint32_t len =
      static_cast<uint32_t>(kRequestIdBytes + frame.payload.size());
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>(len & 0xff));
  out.push_back(static_cast<char>(frame.type));
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((request_id >> shift) & 0xff));
  }
  out += frame.payload;
  return out;
}

bool DecodeTaggedPayload(Frame* frame, uint64_t* request_id) {
  if (frame->payload.size() < kRequestIdBytes) return false;
  uint64_t id = 0;
  for (size_t i = 0; i < kRequestIdBytes; ++i) {
    id = (id << 8) | static_cast<unsigned char>(frame->payload[i]);
  }
  *request_id = id;
  frame->payload.erase(0, kRequestIdBytes);
  return true;
}

std::string EncodeValue(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "N";
    case ValueType::kInt:
      return "I" + std::to_string(value.as_int());
    case ValueType::kDouble:
      return "D" + FormatDouble(value.as_double());
    case ValueType::kString:
      return "S" + std::to_string(value.as_string().size()) + ":" +
             value.as_string();
  }
  return "N";
}

void EncodeRow(const Tuple& row, std::string* out) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out->push_back(' ');
    *out += EncodeValue(row[i]);
  }
  out->push_back('\n');
}

namespace {

std::optional<Value> DecodeValue(const std::string& data, size_t* pos) {
  if (*pos >= data.size()) return std::nullopt;
  char tag = data[*pos];
  ++*pos;
  switch (tag) {
    case 'N':
      return Value();
    case 'I': {
      size_t end = data.find_first_of(" \n", *pos);
      if (end == std::string::npos) return std::nullopt;
      errno = 0;
      char* parsed_end = nullptr;
      std::string text = data.substr(*pos, end - *pos);
      long long v = std::strtoll(text.c_str(), &parsed_end, 10);
      if (errno != 0 || parsed_end == text.c_str() || *parsed_end != '\0') {
        return std::nullopt;
      }
      *pos = end;
      return Value(static_cast<int64_t>(v));
    }
    case 'D': {
      size_t end = data.find_first_of(" \n", *pos);
      if (end == std::string::npos) return std::nullopt;
      char* parsed_end = nullptr;
      std::string text = data.substr(*pos, end - *pos);
      double v = std::strtod(text.c_str(), &parsed_end);
      if (parsed_end == text.c_str() || *parsed_end != '\0') {
        return std::nullopt;
      }
      *pos = end;
      return Value(v);
    }
    case 'S': {
      size_t colon = data.find(':', *pos);
      if (colon == std::string::npos) return std::nullopt;
      errno = 0;
      char* parsed_end = nullptr;
      std::string count_text = data.substr(*pos, colon - *pos);
      unsigned long long count =
          std::strtoull(count_text.c_str(), &parsed_end, 10);
      // Compare against the remaining bytes, never `colon + 1 + count`:
      // count comes off the wire and the sum wraps size_t, which would
      // pass the bounds check and then wrap *pos backwards (infinite
      // parse loop on a 17-byte frame).
      if (errno != 0 || parsed_end == count_text.c_str() ||
          *parsed_end != '\0' || count > data.size() - (colon + 1)) {
        return std::nullopt;
      }
      *pos = colon + 1 + count;
      return Value(data.substr(colon + 1, count));
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

std::optional<Tuple> DecodeRow(const std::string& data, size_t* pos) {
  std::vector<Value> values;
  if (*pos < data.size() && data[*pos] == '\n') {
    ++*pos;
    return Tuple(std::move(values));
  }
  for (;;) {
    auto value = DecodeValue(data, pos);
    if (!value) return std::nullopt;
    values.push_back(std::move(*value));
    if (*pos >= data.size()) return std::nullopt;
    char sep = data[*pos];
    ++*pos;
    if (sep == '\n') return Tuple(std::move(values));
    if (sep != ' ') return std::nullopt;
  }
}

std::string SerializeResult(const psql::QueryResult& result) {
  std::string out = "schema ";
  const Schema& schema = result.relation.schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += schema.at(i).name;
    out.push_back(':');
    out += ValueTypeName(schema.at(i).type);
  }
  out += "\nutilities ";
  for (size_t i = 0; i < result.utilities.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += FormatDouble(result.utilities[i]);
  }
  out += "\nkernel " + result.stats.kernel;
  const Relation& rel = result.relation;
  out += "\nrows " + std::to_string(rel.size()) + "\n";
  // One scratch row refreshed per result row: no Tuple copy of the whole
  // result (the relation's row cache) is built just to be encoded.
  std::vector<size_t> cols(schema.size());
  std::iota(cols.begin(), cols.end(), 0);
  Tuple row;
  for (size_t i = 0; i < rel.size(); ++i) {
    rel.LoadCells(i, cols, &row);
    EncodeRow(row, &out);
  }
  return out;
}

std::optional<WireResult> ParseResult(const std::string& payload) {
  size_t pos = 0;
  auto schema_line = TakeLine(payload, &pos, "schema ");
  auto utilities_line = TakeLine(payload, &pos, "utilities ");
  auto kernel_line = TakeLine(payload, &pos, "kernel ");
  auto rows_line = TakeLine(payload, &pos, "rows ");
  if (!schema_line || !utilities_line || !kernel_line || !rows_line) {
    return std::nullopt;
  }

  WireResult result;
  std::vector<Attribute> attrs;
  for (const std::string& part : SplitCommas(*schema_line)) {
    size_t colon = part.rfind(':');
    if (colon == std::string::npos) return std::nullopt;
    auto type = ParseTypeName(part.substr(colon + 1));
    if (!type) return std::nullopt;
    attrs.push_back(Attribute{part.substr(0, colon), *type});
  }
  for (const std::string& part : SplitCommas(*utilities_line)) {
    char* end = nullptr;
    double v = std::strtod(part.c_str(), &end);
    if (end == part.c_str() || *end != '\0') return std::nullopt;
    result.utilities.push_back(v);
  }
  result.kernel = *kernel_line;

  errno = 0;
  char* end = nullptr;
  unsigned long long row_count = std::strtoull(rows_line->c_str(), &end, 10);
  if (errno != 0 || end == rows_line->c_str() || *end != '\0') {
    return std::nullopt;
  }

  // Every encoded row costs at least one payload byte ('\n'), so a
  // declared count beyond the remaining bytes is malformed. Checking
  // before reserve() keeps a 30-byte frame claiming 2^60 rows from
  // asking the allocator for petabytes.
  if (row_count > payload.size() - pos) return std::nullopt;
  std::vector<Tuple> tuples;
  tuples.reserve(row_count);
  for (unsigned long long i = 0; i < row_count; ++i) {
    auto row = DecodeRow(payload, &pos);
    if (!row || row->size() != attrs.size()) return std::nullopt;
    tuples.push_back(std::move(*row));
  }
  if (pos != payload.size()) return std::nullopt;
  result.relation = Relation(Schema(std::move(attrs)), std::move(tuples));
  return result;
}

namespace {

std::string EncodeSchemaLine(const Schema& schema) {
  std::string out = "schema ";
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += schema.at(i).name;
    out.push_back(':');
    out += ValueTypeName(schema.at(i).type);
  }
  out.push_back('\n');
  return out;
}

std::optional<uint64_t> ParseCount(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(v);
}

/// Reads "<label> <count>\n" + that many encoded rows. Shares the guards
/// of ParseResult: count checked against remaining payload bytes BEFORE
/// reserve (every row costs >= 1 byte), arity checked per row.
std::optional<std::vector<Tuple>> ParseRowBlock(const std::string& payload,
                                                size_t* pos,
                                                const char* label,
                                                size_t arity) {
  auto line = TakeLine(payload, pos, label);
  if (!line) return std::nullopt;
  auto count = ParseCount(*line);
  if (!count || *count > payload.size() - *pos) return std::nullopt;
  std::vector<Tuple> rows;
  rows.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto row = DecodeRow(payload, pos);
    if (!row || row->size() != arity) return std::nullopt;
    rows.push_back(std::move(*row));
  }
  return rows;
}

}  // namespace

std::string SerializeDelta(uint64_t subscription, const Schema& schema,
                           uint64_t version, bool resync,
                           const std::vector<Tuple>& enters,
                           const std::vector<Tuple>& exits) {
  std::string out = "subscription " + std::to_string(subscription) + "\n";
  out += "version " + std::to_string(version) + "\n";
  out += "resync " + std::string(resync ? "1" : "0") + "\n";
  out += EncodeSchemaLine(schema);
  out += "enters " + std::to_string(enters.size()) + "\n";
  for (const Tuple& row : enters) EncodeRow(row, &out);
  out += "exits " + std::to_string(exits.size()) + "\n";
  for (const Tuple& row : exits) EncodeRow(row, &out);
  return out;
}

std::optional<WireDelta> ParseDelta(const std::string& payload) {
  size_t pos = 0;
  auto sub_line = TakeLine(payload, &pos, "subscription ");
  auto version_line = TakeLine(payload, &pos, "version ");
  auto resync_line = TakeLine(payload, &pos, "resync ");
  auto schema_line = TakeLine(payload, &pos, "schema ");
  if (!sub_line || !version_line || !resync_line || !schema_line) {
    return std::nullopt;
  }
  WireDelta delta;
  auto sub = ParseCount(*sub_line);
  auto version = ParseCount(*version_line);
  if (!sub || !version) return std::nullopt;
  delta.subscription = *sub;
  delta.version = *version;
  if (*resync_line == "1") {
    delta.resync = true;
  } else if (*resync_line != "0") {
    return std::nullopt;
  }
  std::vector<Attribute> attrs;
  for (const std::string& part : SplitCommas(*schema_line)) {
    size_t colon = part.rfind(':');
    if (colon == std::string::npos) return std::nullopt;
    auto type = ParseTypeName(part.substr(colon + 1));
    if (!type) return std::nullopt;
    attrs.push_back(Attribute{part.substr(0, colon), *type});
  }
  auto enters = ParseRowBlock(payload, &pos, "enters ", attrs.size());
  if (!enters) return std::nullopt;
  auto exits = ParseRowBlock(payload, &pos, "exits ", attrs.size());
  if (!exits) return std::nullopt;
  if (pos != payload.size()) return std::nullopt;
  Schema schema(std::move(attrs));
  delta.enters = Relation(schema, std::move(*enters));
  delta.exits = Relation(std::move(schema), std::move(*exits));
  return delta;
}

}  // namespace prefdb::server
