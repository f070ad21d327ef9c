#include "relation/column_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "relation/relation.h"

namespace prefdb {

uint32_t StringDict::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(strings_.size());
  strings_.push_back(s);
  index_.emplace(s, code);
  return code;
}

std::optional<uint32_t> StringDict::Find(const std::string& s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

size_t StringDict::HeapBytes() const {
  const size_t inline_capacity = std::string().capacity();
  size_t bodies = 0;
  for (const std::string& str : strings_) {
    if (str.capacity() > inline_capacity) bodies += str.capacity() + 1;
  }
  // The index holds a second copy of every string in its nodes.
  return strings_.capacity() * sizeof(std::string) + 2 * bodies +
         index_.bucket_count() * sizeof(void*) +
         index_.size() * (sizeof(std::pair<const std::string, uint32_t>) +
                          2 * sizeof(void*));
}

namespace {

/// The code of `s` in `*dict`, interning it if new. The dictionary may be
/// shared with a column snapshot some reader is walking, and interning a
/// new entry would mutate it under them: clone it first (codes are
/// append-only, so the clone keeps every issued code valid). The probe
/// copy is an acquire-release increment of the count, so when this
/// column turns out to be the only holder, this thread is ordered after
/// every former holder's last read; use_count() alone is a relaxed load.
uint32_t InternCode(const std::string& s, std::shared_ptr<StringDict>* dict) {
  if (*dict == nullptr) {
    *dict = std::make_shared<StringDict>();
  } else if (auto code = (*dict)->Find(s)) {
    return *code;
  } else if (std::shared_ptr<StringDict> probe = *dict;
             probe.use_count() > 2) {
    *dict = std::make_shared<StringDict>(**dict);
  }
  return (*dict)->Intern(s);
}

}  // namespace

void Column::Append(const Value& v) {
  const size_t row = tags.size();
  tags.push_back(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      nums.push_back(0.0);
      ++null_count;
      break;
    case ValueType::kInt:
      nums.push_back(static_cast<double>(v.as_int()));
      if (ints.empty() && row > 0) ints.resize(row, 0);
      ++int_count;
      break;
    case ValueType::kDouble:
      nums.push_back(v.as_double());
      if (std::isnan(v.as_double())) ++nan_count;
      break;
    case ValueType::kString: {
      nums.push_back(0.0);
      if (codes.empty() && row > 0) codes.resize(row, 0);
      ++string_count;
      break;
    }
  }
  if (!ints.empty() || int_count == 1) {
    ints.push_back(v.is_int() ? v.as_int() : 0);
  }
  if (!codes.empty() || (v.is_string() && string_count == 1)) {
    codes.push_back(v.is_string() ? InternCode(v.as_string(), &dict) : 0);
  }
}

Value Column::At(size_t i) const {
  switch (TagAt(i)) {
    case ValueType::kNull: return Value();
    case ValueType::kInt: return Value(ints[i]);
    case ValueType::kDouble: return Value(nums[i]);
    case ValueType::kString: return Value(dict->At(codes[i]));
  }
  return Value();
}

ColumnStore::ColumnStore(size_t num_columns) {
  cols_.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    cols_.push_back(std::make_shared<Column>());
  }
}

Tuple ColumnStore::MaterializeRow(size_t row) const {
  const size_t phys = PhysicalRow(row);
  std::vector<Value> values;
  values.reserve(cols_.size());
  for (const auto& col : cols_) values.push_back(col->At(phys));
  return Tuple(std::move(values));
}

namespace {

/// Capacity a clone or flatten of `rows` rows reserves (see MutableColumn).
size_t WithHeadroom(size_t rows) { return rows + rows / 8 + 1; }

template <typename T>
void CopyWithCapacity(const std::vector<T>& src, size_t capacity,
                      std::vector<T>* dst) {
  if (src.empty()) return;  // lazily allocated buffers stay empty
  dst->reserve(capacity);
  dst->assign(src.begin(), src.end());
}

/// A run of surviving rows: `len` rows starting at `from`.
struct KeepRun {
  size_t from;
  size_t len;
};

/// Drops `dead_rows` (ascending) from `col` by sliding each run of
/// survivors after the first dead row down over the gap.
void EraseColumnRows(const std::vector<size_t>& dead_rows,
                     const std::vector<KeepRun>& keep, Column* col) {
  for (size_t r : dead_rows) {
    switch (col->TagAt(r)) {
      case ValueType::kNull: --col->null_count; break;
      case ValueType::kInt: --col->int_count; break;
      case ValueType::kDouble:
        if (std::isnan(col->nums[r])) --col->nan_count;
        break;
      case ValueType::kString: --col->string_count; break;
    }
  }
  auto compact = [&](auto& buf) {
    if (buf.empty()) return;  // lazily allocated buffers stay empty
    size_t w = dead_rows.front();
    for (const KeepRun& run : keep) {
      std::copy(buf.begin() + run.from, buf.begin() + run.from + run.len,
                buf.begin() + w);
      w += run.len;
    }
    buf.resize(w);
  };
  compact(col->tags);
  compact(col->nums);
  compact(col->ints);
  compact(col->codes);
}

}  // namespace

std::shared_ptr<Column>& ColumnStore::MutableColumn(size_t c) {
  if (cols_[c].use_count() != 1) {
    const Column& src = *cols_[c];
    const size_t capacity = WithHeadroom(src.size());
    auto clone = std::make_shared<Column>();
    CopyWithCapacity(src.tags, capacity, &clone->tags);
    CopyWithCapacity(src.nums, capacity, &clone->nums);
    CopyWithCapacity(src.ints, capacity, &clone->ints);
    CopyWithCapacity(src.codes, capacity, &clone->codes);
    clone->dict = src.dict;
    clone->null_count = src.null_count;
    clone->int_count = src.int_count;
    clone->string_count = src.string_count;
    clone->nan_count = src.nan_count;
    cols_[c] = std::move(clone);
  }
  return cols_[c];
}

void ColumnStore::AppendRow(const Tuple& t) {
  if (perm_ != nullptr) Flatten();
  for (size_t c = 0; c < cols_.size(); ++c) {
    MutableColumn(c)->Append(t[c]);
  }
  ++nrows_;
}

void ColumnStore::RemoveRows(const std::vector<char>& dead) {
  std::vector<size_t> dead_rows;
  std::vector<KeepRun> keep;  // survivor runs after the first dead row
  for (size_t r = 0; r < nrows_; ++r) {
    if (dead[r]) {
      dead_rows.push_back(r);
    } else if (!dead_rows.empty()) {
      if (!keep.empty() && keep.back().from + keep.back().len == r) {
        ++keep.back().len;
      } else {
        keep.push_back({r, 1});
      }
    }
  }
  if (dead_rows.empty()) return;
  if (perm_ != nullptr) {
    auto perm = std::make_shared<std::vector<uint32_t>>();
    perm->reserve(nrows_ - dead_rows.size());
    for (size_t r = 0; r < nrows_; ++r) {
      if (!dead[r]) perm->push_back((*perm_)[r]);
    }
    perm_ = std::move(perm);
  } else {
    for (size_t c = 0; c < cols_.size(); ++c) {
      EraseColumnRows(dead_rows, keep, MutableColumn(c).get());
    }
  }
  nrows_ -= dead_rows.size();
}

size_t ColumnStore::OwnedHeapBytes() const {
  size_t bytes = 0;
  for (const auto& col : cols_) {
    if (col.use_count() != 1) continue;
    bytes += sizeof(Column) + col->tags.capacity() * sizeof(uint8_t) +
             col->nums.capacity() * sizeof(double) +
             col->ints.capacity() * sizeof(int64_t) +
             col->codes.capacity() * sizeof(uint32_t);
    if (col->dict != nullptr && col->dict.use_count() == 1) {
      bytes += col->dict->HeapBytes();
    }
  }
  if (perm_ != nullptr && perm_.use_count() == 1) {
    bytes += perm_->capacity() * sizeof(uint32_t);
  }
  return bytes;
}

ColumnStore ColumnStore::ProjectColumns(const std::vector<size_t>& cols) const {
  ColumnStore out;
  out.nrows_ = nrows_;
  out.perm_ = perm_;
  out.cols_.reserve(cols.size());
  for (size_t c : cols) out.cols_.push_back(cols_[c]);
  return out;
}

namespace {

/// Columnar gather: the flat-buffer analogue of copying selected rows.
std::shared_ptr<Column> GatherColumn(const Column& src, const uint32_t* rows,
                                     size_t n, size_t capacity) {
  auto out = std::make_shared<Column>();
  out->dict = src.dict;  // codes stay valid; the dict is append-only
  out->tags.reserve(capacity);
  out->nums.reserve(capacity);
  if (!src.ints.empty()) out->ints.reserve(capacity);
  if (!src.codes.empty()) out->codes.reserve(capacity);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows[i];
    const uint8_t tag = src.tags[r];
    out->tags.push_back(tag);
    out->nums.push_back(src.nums[r]);
    if (!src.ints.empty()) out->ints.push_back(src.ints[r]);
    if (!src.codes.empty()) out->codes.push_back(src.codes[r]);
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kNull: ++out->null_count; break;
      case ValueType::kInt: ++out->int_count; break;
      case ValueType::kDouble:
        if (std::isnan(src.nums[r])) ++out->nan_count;
        break;
      case ValueType::kString: ++out->string_count; break;
    }
  }
  return out;
}

}  // namespace

ColumnStore ColumnStore::Gather(const ColumnStore& base,
                                std::vector<uint32_t> rows) {
  if (base.perm_ != nullptr) {
    for (uint32_t& r : rows) r = (*base.perm_)[r];
  }
  ColumnStore out;
  out.nrows_ = rows.size();
  out.cols_.reserve(base.cols_.size());
  for (const auto& col : base.cols_) {
    out.cols_.push_back(
        GatherColumn(*col, rows.data(), rows.size(), rows.size()));
  }
  return out;
}

ColumnStore ColumnStore::View(const ColumnStore& base,
                              std::vector<uint32_t> rows) {
  // Selecting under half the rows: materialize, so the shrunken store
  // releases the base buffers instead of pinning them.
  if (rows.size() * 2 < base.nrows_ && !base.cols_.empty()) {
    return Gather(base, std::move(rows));
  }
  // Compose with the base's own permutation so views stay single-hop.
  if (base.perm_ != nullptr) {
    for (uint32_t& r : rows) r = (*base.perm_)[r];
  }
  ColumnStore out;
  out.nrows_ = rows.size();
  out.cols_ = base.cols_;
  out.perm_ = std::make_shared<const std::vector<uint32_t>>(std::move(rows));
  return out;
}

ColumnStore ColumnStore::FromColumns(size_t rows, std::vector<Column> columns) {
  ColumnStore out;
  out.nrows_ = rows;
  out.cols_.reserve(columns.size());
  for (Column& col : columns) {
    if (col.tags.size() != rows || col.nums.size() != rows ||
        (!col.ints.empty() && col.ints.size() != rows) ||
        (!col.codes.empty() && col.codes.size() != rows)) {
      throw std::invalid_argument("column buffers do not hold " +
                                  std::to_string(rows) + " rows");
    }
    const size_t dict_size = col.dict == nullptr ? 0 : col.dict->size();
    col.null_count = col.int_count = col.string_count = col.nan_count = 0;
    for (size_t r = 0; r < rows; ++r) {
      const ValueType type = static_cast<ValueType>(col.tags[r]);
      switch (type) {
        case ValueType::kNull:
          col.nums[r] = 0.0;
          ++col.null_count;
          break;
        case ValueType::kInt:
          if (col.ints.empty()) {
            throw std::invalid_argument("int row without an int buffer");
          }
          col.nums[r] = static_cast<double>(col.ints[r]);
          ++col.int_count;
          break;
        case ValueType::kDouble:
          if (std::isnan(col.nums[r])) ++col.nan_count;
          break;
        case ValueType::kString:
          if (col.codes.empty() || col.codes[r] >= dict_size) {
            throw std::invalid_argument("string row without a valid code");
          }
          col.nums[r] = 0.0;
          ++col.string_count;
          break;
        default:
          throw std::invalid_argument("unknown column tag " +
                                      std::to_string(col.tags[r]));
      }
      // ints and codes hold 0 at the rows that do not use them.
      if (type != ValueType::kInt && !col.ints.empty()) col.ints[r] = 0;
      if (type != ValueType::kString && !col.codes.empty()) col.codes[r] = 0;
    }
    out.cols_.push_back(std::make_shared<Column>(std::move(col)));
  }
  return out;
}

void ColumnStore::Flatten() {
  if (perm_ == nullptr) return;
  std::shared_ptr<const std::vector<uint32_t>> perm = std::move(perm_);
  perm_ = nullptr;
  for (auto& col : cols_) {
    col = GatherColumn(*col, perm->data(), perm->size(),
                       WithHeadroom(perm->size()));
  }
}

namespace {

/// Exact (collision-free) map key for one cell joined with the running
/// group code: class separates NULL / numeric / string so their bit
/// domains never mix; numeric bits are the widened double (normalized
/// -0.0) — exactly Value equality, which widens every numeric compare.
struct CellKey {
  uint32_t acc;
  uint8_t cls;
  uint64_t bits;
  bool operator==(const CellKey& o) const {
    return acc == o.acc && cls == o.cls && bits == o.bits;
  }
};

struct CellKeyHash {
  size_t operator()(const CellKey& k) const {
    uint64_t h = k.bits * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<uint64_t>(k.acc) << 8) | k.cls;
    h *= 0xc2b2ae3d27d4eb4fULL;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

}  // namespace

GroupCoding ComputeGroupCoding(const Relation& r,
                               const std::vector<size_t>& cols,
                               const std::vector<size_t>* pool) {
  const ColumnStore& store = r.store();
  const size_t n = pool ? pool->size() : r.size();
  GroupCoding out;
  out.codes.assign(n, 0);
  if (n == 0) return out;
  if (cols.empty()) {
    // Zero grouping columns: every row projects to the empty tuple.
    out.num_groups = 1;
    out.group_rows.push_back(0);
    return out;
  }
  std::unordered_map<CellKey, uint32_t, CellKeyHash> ids;
  ids.reserve(n);
  bool first_col = true;
  for (size_t c : cols) {
    const Column& col = store.column(c);
    std::vector<uint32_t> group_rows;
    if (first_col && col.string_count == col.size()) {
      // An all-string leading column: its dictionary codes already are
      // exact equality ids, so densifying them needs no hashing.
      std::vector<uint32_t> dense(col.dict->size(), UINT32_MAX);
      for (size_t i = 0; i < n; ++i) {
        uint32_t& code =
            dense[col.codes[store.PhysicalRow(pool ? (*pool)[i] : i)]];
        if (code == UINT32_MAX) {
          code = static_cast<uint32_t>(group_rows.size());
          group_rows.push_back(static_cast<uint32_t>(i));
        }
        out.codes[i] = code;
      }
      out.group_rows = std::move(group_rows);
      first_col = false;
      continue;
    }
    ids.clear();
    for (size_t i = 0; i < n; ++i) {
      const size_t phys =
          store.PhysicalRow(pool ? (*pool)[i] : i);
      CellKey key;
      key.acc = first_col ? 0 : out.codes[i];
      const ValueType tag = col.TagAt(phys);
      bool fresh_always = false;
      switch (tag) {
        case ValueType::kNull:
          key.cls = 0;
          key.bits = 0;
          break;
        case ValueType::kInt:
        case ValueType::kDouble: {
          double v = col.nums[phys];
          if (std::isnan(v)) {
            // NaN != NaN under Value equality: each NaN row is its own
            // group.
            fresh_always = true;
            key.cls = 3;
            key.bits = i;
          } else {
            if (v == 0.0) v = 0.0;  // normalize -0.0
            key.cls = 1;
            std::memcpy(&key.bits, &v, sizeof(v));
          }
          break;
        }
        case ValueType::kString:
          key.cls = 2;
          key.bits = col.codes[phys];
          break;
      }
      uint32_t code;
      if (fresh_always) {
        code = static_cast<uint32_t>(group_rows.size());
        group_rows.push_back(static_cast<uint32_t>(i));
      } else {
        auto [it, inserted] =
            ids.emplace(key, static_cast<uint32_t>(group_rows.size()));
        if (inserted) group_rows.push_back(static_cast<uint32_t>(i));
        code = it->second;
      }
      out.codes[i] = code;
    }
    out.group_rows = std::move(group_rows);
    first_col = false;
  }
  out.num_groups = out.group_rows.size();
  return out;
}

std::vector<std::vector<size_t>> GroupRowsBy(
    const Relation& r, const std::vector<size_t>& cols,
    const std::vector<size_t>* pool) {
  const GroupCoding coding = ComputeGroupCoding(r, cols, pool);
  std::vector<std::vector<size_t>> groups(coding.num_groups);
  for (size_t i = 0; i < coding.codes.size(); ++i) {
    groups[coding.codes[i]].push_back(pool ? (*pool)[i] : i);
  }
  return groups;
}

bool LikelyMostlyDistinct(const Relation& r, const std::vector<size_t>& cols,
                          const std::vector<size_t>* pool) {
  const ColumnStore& store = r.store();
  const size_t n = pool ? pool->size() : r.size();
  if (n == 0 || cols.empty()) return false;
  const size_t sample = std::min<size_t>(n, 512);
  const size_t stride = n / sample;
  std::unordered_set<uint64_t> seen;
  seen.reserve(sample * 2);
  size_t taken = 0;
  for (size_t i = 0; i < n && taken < sample; i += stride, ++taken) {
    const size_t phys = store.PhysicalRow(pool ? (*pool)[i] : i);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t c : cols) {
      const Column& col = store.column(c);
      uint64_t bits = 0;
      switch (col.TagAt(phys)) {
        case ValueType::kNull:
          bits = 0x9e3779b97f4a7c15ULL;
          break;
        case ValueType::kInt:
        case ValueType::kDouble: {
          double v = col.nums[phys];
          if (v == 0.0) v = 0.0;  // normalize -0.0
          std::memcpy(&bits, &v, sizeof(v));
          break;
        }
        case ValueType::kString:
          bits = (static_cast<uint64_t>(col.codes[phys]) << 2) | 2;
          break;
      }
      h = (h ^ bits) * 0x100000001b3ULL;
    }
    seen.insert(h);
  }
  return seen.size() * 2 >= taken;
}

}  // namespace prefdb
