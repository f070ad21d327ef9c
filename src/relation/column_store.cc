#include "relation/column_store.h"

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
      if (dict == nullptr) {
        dict = std::make_shared<StringDict>();
      } else if (dict.use_count() > 1 && !dict->Find(v.as_string())) {
        // The dictionary is shared with a column snapshot some reader may
        // be walking; interning a new entry would mutate it under them.
        // Clone before the first novel string (codes are append-only, so
        // the clone keeps every issued code valid).
        dict = std::make_shared<StringDict>(*dict);
      }
      ++string_count;
      break;
    }
  }
  if (!ints.empty() || int_count == 1) {
    ints.push_back(v.is_int() ? v.as_int() : 0);
  }
  if (!codes.empty() || (v.is_string() && string_count == 1)) {
    codes.push_back(v.is_string() ? dict->Intern(v.as_string()) : 0);
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

std::shared_ptr<Column>& ColumnStore::MutableColumn(size_t c) {
  if (cols_[c].use_count() != 1) {
    cols_[c] = std::make_shared<Column>(*cols_[c]);
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
                                     size_t n) {
  auto out = std::make_shared<Column>();
  out->dict = src.dict;  // codes stay valid; the dict is append-only
  out->tags.reserve(n);
  out->nums.reserve(n);
  if (!src.ints.empty()) out->ints.reserve(n);
  if (!src.codes.empty()) out->codes.reserve(n);
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

ColumnStore ColumnStore::View(const ColumnStore& base,
                              std::vector<uint32_t> rows) {
  // Compose with the base's own permutation so views stay single-hop.
  if (base.perm_ != nullptr) {
    for (uint32_t& r : rows) r = (*base.perm_)[r];
  }
  ColumnStore out;
  out.nrows_ = rows.size();
  if (rows.size() * 2 >= base.nrows_ || base.cols_.empty()) {
    out.cols_ = base.cols_;
    out.perm_ =
        std::make_shared<const std::vector<uint32_t>>(std::move(rows));
  } else {
    // Selecting under half the rows: materialize, so the shrunken store
    // releases the base buffers instead of pinning them.
    out.cols_.reserve(base.cols_.size());
    for (const auto& col : base.cols_) {
      out.cols_.push_back(GatherColumn(*col, rows.data(), rows.size()));
    }
  }
  return out;
}

void ColumnStore::Flatten() {
  if (perm_ == nullptr) return;
  std::shared_ptr<const std::vector<uint32_t>> perm = std::move(perm_);
  perm_ = nullptr;
  for (auto& col : cols_) {
    col = GatherColumn(*col, perm->data(), perm->size());
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
