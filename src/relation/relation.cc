#include "relation/relation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace prefdb {

namespace {

/// Three-way compare of two cells of one column by the Value total order
/// (NULL < numeric < string; numerics by widened value), reading the
/// column buffers directly — no Value materialization, no string copies.
int CompareCells(const Column& col, size_t a, size_t b) {
  auto klass = [](ValueType t) {
    if (t == ValueType::kNull) return 0;
    if (t == ValueType::kString) return 2;
    return 1;
  };
  const int ka = klass(col.TagAt(a));
  const int kb = klass(col.TagAt(b));
  if (ka != kb) return ka < kb ? -1 : 1;
  if (ka == 0) return 0;
  if (ka == 1) {
    const double va = col.nums[a];
    const double vb = col.nums[b];
    if (va < vb) return -1;
    if (vb < va) return 1;
    return 0;
  }
  return col.dict->At(col.codes[a]).compare(col.dict->At(col.codes[b]));
}

/// Cell equality across two stores, consistent with Value::operator==
/// (numeric widening; NULL == NULL; NaN != NaN).
bool CellsEqual(const Column& ca, size_t a, const Column& cb, size_t b) {
  const ValueType ta = ca.TagAt(a);
  const ValueType tb = cb.TagAt(b);
  const bool na = ta == ValueType::kInt || ta == ValueType::kDouble;
  const bool nb = tb == ValueType::kInt || tb == ValueType::kDouble;
  if (na && nb) return ca.nums[a] == cb.nums[b];
  if (ta != tb) return false;
  if (ta == ValueType::kNull) return true;
  if (ta == ValueType::kString) {
    if (ca.dict == cb.dict) return ca.codes[a] == cb.codes[b];
    return ca.dict->At(ca.codes[a]) == cb.dict->At(cb.codes[b]);
  }
  return false;  // unreachable: numeric pairs handled above
}

}  // namespace

Relation::Relation(Schema schema, std::vector<Tuple> tuples)
    : schema_(std::move(schema)), store_(schema_.size()) {
  for (Tuple& t : tuples) Add(std::move(t));
}

Relation::Relation(Schema schema, ColumnStore store)
    : schema_(std::move(schema)), store_(std::move(store)) {
  if (store_.num_columns() != schema_.size()) {
    throw std::invalid_argument(
        "store of " + std::to_string(store_.num_columns()) +
        " columns does not match schema " + schema_.ToString());
  }
}

std::vector<Tuple> Relation::tuples() const {
  std::vector<Tuple> rows;
  rows.reserve(size());
  for (size_t i = 0; i < size(); ++i) rows.push_back(RowAt(i));
  return rows;
}

void Relation::Add(Tuple t) {
  if (t.size() != schema_.size()) {
    throw std::invalid_argument("tuple arity " + std::to_string(t.size()) +
                                " does not match schema " +
                                schema_.ToString());
  }
  store_.AppendRow(t);
}

void Relation::EraseRows(const std::vector<char>& dead) {
  if (dead.size() != size()) {
    throw std::invalid_argument("EraseRows: " + std::to_string(dead.size()) +
                                " flags for " + std::to_string(size()) +
                                " rows");
  }
  store_.RemoveRows(dead);
}

std::vector<size_t> Relation::ResolveColumns(
    const std::vector<std::string>& names) const {
  std::vector<size_t> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    auto idx = schema_.IndexOf(name);
    if (!idx) {
      throw std::out_of_range("unknown attribute '" + name + "' in schema " +
                              schema_.ToString());
    }
    out.push_back(*idx);
  }
  return out;
}

Relation Relation::Project(const std::vector<std::string>& names) const {
  std::vector<size_t> cols = ResolveColumns(names);
  Relation out;
  out.schema_ = schema_.Project(names);
  out.store_ = store_.ProjectColumns(cols);
  return out;
}

void Relation::LoadCells(size_t i, const std::vector<size_t>& cols,
                         Tuple* scratch) const {
  if (scratch->size() != schema_.size()) {
    *scratch = Tuple(std::vector<Value>(schema_.size()));
  }
  for (size_t c : cols) (*scratch)[c] = store_.ValueAt(i, c);
}

std::vector<size_t> Relation::SelectWhere(
    const std::function<bool(const Tuple&)>& pred,
    const std::vector<size_t>& cols, const std::vector<size_t>* pool,
    size_t limit) const {
  std::vector<size_t> out;
  Tuple scratch;
  const size_t n = pool ? pool->size() : size();
  for (size_t k = 0; k < n && out.size() < limit; ++k) {
    const size_t row = pool ? (*pool)[k] : k;
    LoadCells(row, cols, &scratch);
    if (pred(scratch)) out.push_back(row);
  }
  return out;
}

Relation Relation::Filter(
    const std::function<bool(const Tuple&)>& pred) const {
  std::vector<size_t> all(schema_.size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<size_t> matched = SelectWhere(pred, all);
  std::vector<uint32_t> rows(matched.begin(), matched.end());
  Relation out;
  out.schema_ = schema_;
  out.store_ = ColumnStore::View(store_, std::move(rows));
  return out;
}

Relation Relation::Distinct() const {
  std::vector<size_t> cols(schema_.size());
  std::iota(cols.begin(), cols.end(), 0);
  GroupCoding coding = ComputeGroupCoding(*this, cols);
  std::vector<uint32_t> rows(coding.group_rows.begin(),
                             coding.group_rows.end());
  std::sort(rows.begin(), rows.end());
  Relation out;
  out.schema_ = schema_;
  out.store_ = ColumnStore::View(store_, std::move(rows));
  return out;
}

std::vector<Tuple> Relation::DistinctProjections(
    const std::vector<std::string>& names) const {
  std::vector<size_t> cols = ResolveColumns(names);
  GroupCoding coding = ComputeGroupCoding(*this, cols);
  std::vector<Tuple> out;
  out.reserve(coding.num_groups);
  for (uint32_t rep : coding.group_rows) {
    std::vector<Value> values;
    values.reserve(cols.size());
    for (size_t c : cols) values.push_back(ValueAt(rep, c));
    out.emplace_back(std::move(values));
  }
  return out;
}

Relation Relation::Sorted(const std::vector<std::string>& names) const {
  std::vector<size_t> cols;
  if (names.empty()) {
    for (size_t i = 0; i < schema_.size(); ++i) cols.push_back(i);
  } else {
    cols = ResolveColumns(names);
  }
  std::vector<uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this, &cols](uint32_t a, uint32_t b) {
                     const size_t pa = store_.PhysicalRow(a);
                     const size_t pb = store_.PhysicalRow(b);
                     for (size_t c : cols) {
                       int cmp = CompareCells(store_.column(c), pa, pb);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  Relation out;
  out.schema_ = schema_;
  out.store_ = ColumnStore::View(store_, std::move(order));
  return out;
}

Relation Relation::SelectRows(const std::vector<size_t>& row_indices) const {
  return SelectRowIds(
      std::vector<uint32_t>(row_indices.begin(), row_indices.end()));
}

Relation Relation::SelectRowIds(std::vector<uint32_t> rows) const {
  Relation out;
  out.schema_ = schema_;
  out.store_ = ColumnStore::View(store_, std::move(rows));
  return out;
}

std::vector<size_t> Relation::IndexIntersect(const std::vector<size_t>& a,
                                             const std::vector<size_t>& b) {
  std::vector<size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<size_t> Relation::IndexUnion(const std::vector<size_t>& a,
                                         const std::vector<size_t>& b) {
  std::vector<size_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

bool Relation::operator==(const Relation& other) const {
  if (schema_ != other.schema_ || size() != other.size()) return false;
  for (size_t c = 0; c < schema_.size(); ++c) {
    const Column& ca = store_.column(c);
    const Column& cb = other.store_.column(c);
    for (size_t i = 0; i < size(); ++i) {
      if (!CellsEqual(ca, store_.PhysicalRow(i), cb,
                      other.store_.PhysicalRow(i))) {
        return false;
      }
    }
  }
  return true;
}

bool Relation::SameRows(const Relation& other) const {
  if (schema_ != other.schema_ || size() != other.size()) return false;
  std::unordered_map<Tuple, int, TupleHash> counts;
  for (size_t i = 0; i < size(); ++i) counts[RowAt(i)]++;
  for (size_t i = 0; i < other.size(); ++i) {
    auto it = counts.find(other.RowAt(i));
    if (it == counts.end() || it->second == 0) return false;
    it->second--;
  }
  return true;
}

std::string Relation::ToString(size_t max_rows) const {
  // Compute column widths.
  std::vector<std::string> headers;
  std::vector<size_t> widths;
  for (const auto& attr : schema_.attributes()) {
    headers.push_back(attr.name);
    widths.push_back(attr.name.size());
  }
  size_t shown = std::min(max_rows, size());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t i = 0; i < shown; ++i) {
    for (size_t c = 0; c < schema_.size(); ++c) {
      std::string s = ValueAt(i, c).ToString();
      cells[i].push_back(s);
      widths[c] = std::max(widths[c], s.size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out;
  for (size_t c = 0; c < headers.size(); ++c) {
    out += (c ? " | " : "| ") + pad(headers[c], widths[c]);
  }
  out += " |\n";
  for (size_t c = 0; c < headers.size(); ++c) {
    out += (c ? "-+-" : "+-") + std::string(widths[c], '-');
  }
  out += "-+\n";
  for (size_t i = 0; i < shown; ++i) {
    for (size_t c = 0; c < headers.size(); ++c) {
      out += (c ? " | " : "| ") + pad(cells[i][c], widths[c]);
    }
    out += " |\n";
  }
  if (shown < size()) {
    out += "... (" + std::to_string(size() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace prefdb
