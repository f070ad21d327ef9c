#include "server/protocol.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "psql/error.h"

namespace prefdb::server {

namespace {

/// Appends the low `bytes` bytes of `v`, most significant first.
void PutBigEndian(std::string* out, uint64_t v, int bytes) {
  for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

/// Appends the frame header: the payload length, then the type.
void PutFrameHeader(std::string* out, size_t payload_bytes, FrameType type) {
  PutBigEndian(out, payload_bytes, 4);
  out->push_back(static_cast<char>(type));
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  PutFrameHeader(&out, frame.payload.size(), frame.type);
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

void AppendTaggedFrame(std::string* out, uint64_t request_id,
                       const Frame& frame) {
  out->reserve(out->size() + kFrameHeaderBytes + kRequestIdBytes +
               frame.payload.size());
  PutFrameHeader(out, kRequestIdBytes + frame.payload.size(), frame.type);
  PutBigEndian(out, request_id, 8);
  out->append(frame.payload);
}

std::string EncodeTaggedFrame(uint64_t request_id, const Frame& frame) {
  std::string out;
  AppendTaggedFrame(&out, request_id, frame);
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

namespace {

constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();

/// Appends little-endian integers and length-prefixed bytes to a payload.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Put(Grow(4), v, 4); }
  void U64(uint64_t v) { Put(Grow(8), v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void Reserve(size_t extra) { out_->reserve(out_->size() + extra); }
  /// Appends `n` bytes and returns where they start. The pointer is valid
  /// until the next append.
  unsigned char* Grow(size_t n) {
    const size_t at = out_->size();
    out_->resize(at + n);
    return reinterpret_cast<unsigned char*>(&(*out_)[at]);
  }
  static void Put(unsigned char* p, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      p[i] = static_cast<unsigned char>(v >> (8 * i));
    }
  }

 private:
  std::string* out_;
};

/// Consumes the same encoding; every read fails instead of running past
/// the end.
class Reader {
 public:
  explicit Reader(const std::string& data)
      : p_(reinterpret_cast<const unsigned char*>(data.data())),
        end_(p_ + data.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

  bool U8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *p_++;
    return true;
  }
  bool U32(uint32_t* v) {
    const unsigned char* p = Take(4);
    if (p == nullptr) return false;
    *v = static_cast<uint32_t>(Get(p, 4));
    return true;
  }
  bool U64(uint64_t* v) {
    const unsigned char* p = Take(8);
    if (p == nullptr) return false;
    *v = Get(p, 8);
    return true;
  }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    const unsigned char* p = Take(len);
    if (p == nullptr) return false;
    s->assign(reinterpret_cast<const char*>(p), len);
    return true;
  }
  /// The next `n` bytes, or nullptr when fewer remain.
  const unsigned char* Take(size_t n) {
    if (n > remaining()) return nullptr;
    const unsigned char* p = p_;
    p_ += n;
    return p;
  }
  static uint64_t Get(const unsigned char* p, int bytes) {
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

double BitsDouble(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

bool IsNumericTag(uint8_t tag) {
  return tag == static_cast<uint8_t>(ValueType::kInt) ||
         tag == static_cast<uint8_t>(ValueType::kDouble);
}

constexpr uint8_t kStringTag = static_cast<uint8_t>(ValueType::kString);

void PutSchema(const Schema& schema, Writer* w) {
  w->U32(static_cast<uint32_t>(schema.size()));
  for (const Attribute& a : schema.attributes()) {
    w->U8(static_cast<uint8_t>(a.type));
    w->Str(a.name);
  }
}

bool GetSchema(Reader* r, Schema* schema) {
  uint32_t n = 0;
  // An attribute costs at least 5 bytes (type and name length).
  if (!r->U32(&n) || n > r->remaining() / 5) return false;
  std::vector<Attribute> attrs(n);
  for (Attribute& a : attrs) {
    uint8_t type = 0;
    if (!r->U8(&type) || type > kStringTag || !r->Str(&a.name)) return false;
    a.type = static_cast<ValueType>(type);
  }
  *schema = Schema(std::move(attrs));
  return true;
}

/// Canonical string codes of one column: each distinct string the rows
/// use, numbered in first-occurrence order.
class CodeRemap {
 public:
  explicit CodeRemap(size_t dict_size) : canonical_(dict_size, kUnset) {}
  /// The canonical code of source code `code`, numbering it if new.
  uint32_t Map(uint32_t code) {
    uint32_t& slot = canonical_[code];
    if (slot == kUnset) {
      slot = static_cast<uint32_t>(order_.size());
      order_.push_back(code);
    }
    return slot;
  }
  /// Source codes in canonical order.
  const std::vector<uint32_t>& order() const { return order_; }

 private:
  static constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> canonical_;
  std::vector<uint32_t> order_;
};

/// Appends `store`'s logical rows in the rows grammar, reading the column
/// buffers through the store's permutation.
void PutRows(const ColumnStore& store, Writer* w) {
  const size_t n = store.rows();
  w->U64(n);
  if (store.num_columns() == 0) {
    w->Grow(n);  // zero-filled
    return;
  }
  // Every cell takes at most 9 bytes; dictionary strings come on top.
  w->Reserve(n * 9 * store.num_columns());
  std::vector<uint32_t> phys(n);
  for (size_t i = 0; i < n; ++i) {
    phys[i] = static_cast<uint32_t>(store.PhysicalRow(i));
  }
  // One column's tags in row order, so the payload loops read them
  // sequentially instead of gathering them again through `phys`.
  std::vector<uint8_t> tags(n);
  for (size_t c = 0; c < store.num_columns(); ++c) {
    const Column& col = store.column(c);
    // The counters cover the whole column, so a column of one type keeps
    // it under any selection of its rows and needs no gather of its tags.
    const size_t rows = col.size();
    const size_t doubles =
        rows - col.null_count - col.int_count - col.string_count;
    size_t numeric = 0;
    size_t strings = 0;
    if (n > 0 && (col.null_count == rows || col.int_count == rows ||
                  doubles == rows || col.string_count == rows)) {
      const uint8_t tag = col.tags[0];
      std::memset(tags.data(), tag, n);
      numeric = IsNumericTag(tag) ? n : 0;
      strings = tag == kStringTag ? n : 0;
    } else {
      for (size_t i = 0; i < n; ++i) {
        const uint8_t tag = col.tags[phys[i]];
        tags[i] = tag;
        numeric += IsNumericTag(tag);
        strings += tag == kStringTag;
      }
    }
    std::copy(tags.begin(), tags.end(), w->Grow(n));
    unsigned char* nums = w->Grow(8 * numeric);
    for (size_t i = 0; i < n; ++i) {
      if (tags[i] == static_cast<uint8_t>(ValueType::kInt)) {
        Writer::Put(nums, static_cast<uint64_t>(col.ints[phys[i]]), 8);
        nums += 8;
      } else if (tags[i] == static_cast<uint8_t>(ValueType::kDouble)) {
        Writer::Put(nums, DoubleBits(col.nums[phys[i]]), 8);
        nums += 8;
      }
    }
    if (strings == 0) {
      w->U32(0);
      continue;
    }
    CodeRemap remap(col.dict->size());
    std::vector<uint32_t> codes;
    codes.reserve(strings);
    for (size_t i = 0; i < n; ++i) {
      if (tags[i] == kStringTag) codes.push_back(remap.Map(col.codes[phys[i]]));
    }
    w->U32(static_cast<uint32_t>(remap.order().size()));
    for (uint32_t code : remap.order()) w->Str(col.dict->At(code));
    unsigned char* out = w->Grow(4 * codes.size());
    for (size_t k = 0; k < codes.size(); ++k) {
      Writer::Put(out + 4 * k, codes[k], 4);
    }
  }
}

/// Decodes one column of `n` rows; false on malformed or non-canonical
/// input.
bool GetColumn(Reader* r, size_t n, Column* col) {
  const unsigned char* tags = r->Take(n);
  if (tags == nullptr) return false;
  constexpr uint8_t kIntTag = static_cast<uint8_t>(ValueType::kInt);
  constexpr uint8_t kDoubleTag = static_cast<uint8_t>(ValueType::kDouble);
  size_t ints = 0;
  size_t doubles = 0;
  size_t strings = 0;
  uint8_t max_tag = 0;
  for (size_t i = 0; i < n; ++i) {
    max_tag = std::max(max_tag, tags[i]);
    ints += tags[i] == kIntTag;
    doubles += tags[i] == kDoubleTag;
    strings += tags[i] == kStringTag;
  }
  if (max_tag > kStringTag) return false;
  const size_t numeric = ints + doubles;
  if (numeric > r->remaining() / 8) return false;
  const unsigned char* nums = r->Take(8 * numeric);
  col->tags.assign(tags, tags + n);
  col->nums.resize(n);
  if (ints > 0) col->ints.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (tags[i] == kIntTag) {
      col->ints[i] = static_cast<int64_t>(Reader::Get(nums, 8));
      nums += 8;
    } else if (tags[i] == kDoubleTag) {
      col->nums[i] = BitsDouble(Reader::Get(nums, 8));
      nums += 8;
    }
  }
  uint32_t dict_size = 0;
  if (!r->U32(&dict_size) || dict_size > strings) return false;
  if (strings == 0) return true;
  // Each entry costs at least its 4-byte length.
  if (dict_size > r->remaining() / 4) return false;
  col->dict = std::make_shared<StringDict>();
  std::string s;
  for (uint32_t k = 0; k < dict_size; ++k) {
    if (!r->Str(&s) || col->dict->Intern(s) != k) return false;  // repeated
  }
  if (strings > r->remaining() / 4) return false;
  const unsigned char* codes = r->Take(4 * strings);
  col->codes.resize(n);
  uint32_t next = 0;  // the first code not yet used
  for (size_t i = 0; i < n; ++i) {
    if (tags[i] != kStringTag) continue;
    const uint32_t code = static_cast<uint32_t>(Reader::Get(codes, 4));
    codes += 4;
    if (code > next || code >= dict_size) return false;
    if (code == next) ++next;
    col->codes[i] = code;
  }
  return next == dict_size;
}

/// Decodes the rows grammar into a flat store of `num_columns` columns.
std::optional<ColumnStore> GetRows(Reader* r, size_t num_columns) {
  uint64_t n = 0;
  // Every row costs at least one byte per column, or one zero byte in a
  // zero-column frame.
  if (!r->U64(&n) || n > r->remaining() || n > kMaxU32) return std::nullopt;
  if (num_columns == 0) {
    const unsigned char* pad = r->Take(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (pad[i] != 0) return std::nullopt;
    }
  } else if (n > r->remaining() / num_columns) {
    return std::nullopt;
  }
  std::vector<Column> columns(num_columns);
  for (Column& col : columns) {
    if (!GetColumn(r, n, &col)) return std::nullopt;
  }
  return ColumnStore::FromColumns(n, std::move(columns));
}

std::optional<Relation> GetRelation(Reader* r, const Schema& schema) {
  std::optional<ColumnStore> store = GetRows(r, schema.size());
  if (!store) return std::nullopt;
  return Relation(schema, std::move(*store));
}

}  // namespace

std::string SerializeResult(const psql::QueryResult& result) {
  std::string out;
  Writer w(&out);
  PutSchema(result.relation.schema(), &w);
  w.U32(static_cast<uint32_t>(result.utilities.size()));
  for (double u : result.utilities) w.U64(DoubleBits(u));
  w.Str(result.stats.kernel);
  PutRows(result.relation.store(), &w);
  return out;
}

std::optional<WireResult> ParseResult(const std::string& payload) {
  Reader r(payload);
  WireResult result;
  Schema schema;
  uint32_t utilities = 0;
  if (!GetSchema(&r, &schema) || !r.U32(&utilities) ||
      utilities > r.remaining() / 8) {
    return std::nullopt;
  }
  result.utilities.resize(utilities);
  for (double& u : result.utilities) {
    uint64_t bits = 0;
    r.U64(&bits);
    u = BitsDouble(bits);
  }
  if (!r.Str(&result.kernel)) return std::nullopt;
  std::optional<Relation> relation = GetRelation(&r, schema);
  if (!relation || !r.done()) return std::nullopt;
  result.relation = std::move(*relation);
  return result;
}

std::string SerializeDelta(uint64_t subscription,
                           const ivm::ViewDelta& delta) {
  if (delta.exits.schema() != delta.enters.schema()) {
    throw psql::BadArgumentError(
        "delta exits schema " + delta.exits.schema().ToString() +
        " differs from enters schema " + delta.enters.schema().ToString());
  }
  std::string out;
  Writer w(&out);
  w.U64(subscription);
  w.U64(delta.version);
  w.U8(delta.resync ? 1 : 0);
  PutSchema(delta.enters.schema(), &w);
  PutRows(delta.enters.store(), &w);
  PutRows(delta.exits.store(), &w);
  return out;
}

std::optional<WireDelta> ParseDelta(const std::string& payload) {
  Reader r(payload);
  WireDelta delta;
  uint8_t resync = 0;
  Schema schema;
  if (!r.U64(&delta.subscription) || !r.U64(&delta.version) ||
      !r.U8(&resync) || resync > 1 || !GetSchema(&r, &schema)) {
    return std::nullopt;
  }
  delta.resync = resync == 1;
  std::optional<Relation> enters = GetRelation(&r, schema);
  if (!enters) return std::nullopt;
  std::optional<Relation> exits = GetRelation(&r, schema);
  if (!exits || !r.done()) return std::nullopt;
  delta.enters = std::move(*enters);
  delta.exits = std::move(*exits);
  return delta;
}

std::string SerializeInsert(const std::string& table, const Tuple& row) {
  std::string out;
  Writer w(&out);
  w.Str(table);
  w.U32(static_cast<uint32_t>(row.size()));
  // The columns carry no names: only the arity travels.
  Relation rows(Schema(std::vector<Attribute>(row.size())));
  rows.Add(row);
  PutRows(rows.store(), &w);
  return out;
}

std::optional<WireInsert> ParseInsert(const std::string& payload) {
  Reader r(payload);
  WireInsert insert;
  uint32_t arity = 0;
  // A row costs at least one tag byte per column.
  if (!r.Str(&insert.table) || !r.U32(&arity) || arity > r.remaining()) {
    return std::nullopt;
  }
  std::optional<ColumnStore> store = GetRows(&r, arity);
  if (!store || store->rows() != 1 || !r.done()) return std::nullopt;
  insert.row = store->MaterializeRow(0);
  return insert;
}

}  // namespace prefdb::server
