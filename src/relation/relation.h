// In-memory relations ("database sets R" of Kießling §5.1) with the
// relational operations preference evaluation needs: projection, selection,
// distinct, sorting, grouping, set operations by row identity.
//
// Storage is column-major (SoA, see column_store.h), and the columns are
// the only stored form of a row: this class is the row-oriented façade.
// A Tuple is a transient value, built per call by the row accessors
// (RowAt, ValueAt, tuples) or passed in through Add, and never kept.
// SelectRows / Filter / Sorted / Project produce index views or
// column-sharing relations instead of copying rows, and copying a
// Relation shares the column buffers (per-column copy-on-write on the
// next mutation).

#ifndef PREFDB_RELATION_RELATION_H_
#define PREFDB_RELATION_RELATION_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "relation/column_store.h"
#include "relation/schema.h"
#include "relation/tuple.h"

namespace prefdb {

/// A database set R: a schema plus a bag (duplicates allowed) of tuples.
/// Under the closed world assumption this captures "the currently valid
/// state of the real world" (§5.1) against which preference queries do
/// their match-making.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema)
      : schema_(std::move(schema)), store_(schema_.size()) {}
  Relation(Schema schema, std::vector<Tuple> tuples);
  /// Adopts `store` as the relation's rows (ColumnStore::FromColumns
  /// builds one from decoded buffers). Throws std::invalid_argument when
  /// the store's column count differs from the schema's arity.
  Relation(Schema schema, ColumnStore store);

  const Schema& schema() const { return schema_; }

  /// Every row, materialized from the column buffers on each call. Prefer
  /// RowAt/ValueAt on hot paths: they touch only the requested cells.
  std::vector<Tuple> tuples() const;

  size_t size() const { return store_.rows(); }
  bool empty() const { return store_.rows() == 0; }
  Tuple at(size_t i) const { return RowAt(i); }

  /// Materializes a single row from the column buffers.
  Tuple RowAt(size_t i) const { return store_.MaterializeRow(i); }
  /// Materializes a single cell from the column buffers.
  Value ValueAt(size_t row, size_t col) const {
    return store_.ValueAt(row, col);
  }
  /// Refreshes the `cols` cells of `*scratch` from row `i`, first sizing
  /// it to the schema's arity (NULL cells) when it is not. The other
  /// cells keep what they held, so a row closure that reads only `cols`
  /// runs on one reused Tuple instead of a fresh RowAt per row.
  void LoadCells(size_t i, const std::vector<size_t>& cols,
                 Tuple* scratch) const;
  /// Logical rows for which `pred` holds, in scan order: all rows
  /// ascending, or the rows listed in `pool` in pool order. `pred` runs
  /// on one scratch row whose `cols` cells are refreshed per row
  /// (LoadCells), so `cols` must name every column it reads. Stops after
  /// `limit` matches.
  std::vector<size_t> SelectWhere(
      const std::function<bool(const Tuple&)>& pred,
      const std::vector<size_t>& cols,
      const std::vector<size_t>* pool = nullptr,
      size_t limit = static_cast<size_t>(-1)) const;
  /// The columnar storage, for columnar scans and score-table compilation.
  const ColumnStore& store() const { return store_; }

  /// Appends a row; the arity must match the schema.
  void Add(Tuple t);
  void Add(std::initializer_list<Value> values) { Add(Tuple(values)); }
  /// Removes the rows flagged in `dead` (one flag per row) in place,
  /// keeping the survivors in order (ColumnStore::RemoveRows: per-column
  /// COW, only the rows after the first dead one move). Unlike
  /// SelectRows, a flat relation stays flat, so the next Add does not
  /// gather every cell.
  void EraseRows(const std::vector<char>& dead);

  /// Resolves attribute names to column indices; throws std::out_of_range
  /// on an unknown attribute (programming error in a query plan).
  std::vector<size_t> ResolveColumns(
      const std::vector<std::string>& names) const;

  /// Projection π_names(R) as a new relation (bag semantics). Shares the
  /// projected column buffers — no row copies.
  Relation Project(const std::vector<std::string>& names) const;

  /// Hard selection σ_pred(R); the result is an index view. `pred` sees
  /// one reused scratch row refreshed per row (SelectWhere over every
  /// column).
  Relation Filter(const std::function<bool(const Tuple&)>& pred) const;

  /// Duplicate elimination over whole rows (columnar scan, index view).
  Relation Distinct() const;

  /// The distinct projections R[A] of Def. 14(a), as raw tuples.
  std::vector<Tuple> DistinctProjections(
      const std::vector<std::string>& names) const;

  /// Deterministic sort by the Value total order over the given columns
  /// (all columns if empty); the result is an index view.
  Relation Sorted(const std::vector<std::string>& names = {}) const;

  /// Builds a relation from a subset of row indices of this relation —
  /// an index view over the shared column buffers (materialized when the
  /// selection drops at least half the rows, so it never pins them).
  Relation SelectRows(const std::vector<size_t>& row_indices) const;
  /// Same over 32-bit row ids, which the view keeps as they are.
  Relation SelectRowIds(std::vector<uint32_t> rows) const;

  /// Set-like helpers over row-index vectors (sorted ascending).
  static std::vector<size_t> IndexIntersect(const std::vector<size_t>& a,
                                            const std::vector<size_t>& b);
  static std::vector<size_t> IndexUnion(const std::vector<size_t>& a,
                                        const std::vector<size_t>& b);

  /// Schema + row-by-row Value equality (order-sensitive).
  bool operator==(const Relation& other) const;

  /// Multiset equality of rows ignoring order (for test assertions).
  bool SameRows(const Relation& other) const;

  /// ASCII table rendering.
  std::string ToString(size_t max_rows = 50) const;

 private:
  Schema schema_;
  ColumnStore store_;
};

}  // namespace prefdb

#endif  // PREFDB_RELATION_RELATION_H_
