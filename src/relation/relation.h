// In-memory relations ("database sets R" of Kießling §5.1) with the
// relational operations preference evaluation needs: projection, selection,
// distinct, sorting, grouping, set operations by row identity.
//
// Storage is column-major (SoA, see column_store.h): this class is the
// row-oriented façade. Row accessors materialize lazily; SelectRows /
// Filter / Sorted / Project produce index views or column-sharing
// relations instead of copying rows, and copying a Relation shares the
// column buffers (per-column copy-on-write on the next mutation).

#ifndef PREFDB_RELATION_RELATION_H_
#define PREFDB_RELATION_RELATION_H_

#include <atomic>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
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

  Relation(const Relation& other)
      : schema_(other.schema_), store_(other.store_) {}
  Relation(Relation&& other) noexcept
      : schema_(std::move(other.schema_)), store_(std::move(other.store_)) {}
  Relation& operator=(const Relation& other);
  Relation& operator=(Relation&& other) noexcept;

  const Schema& schema() const { return schema_; }

  /// Row-compatibility view: materializes (once, thread-safely) a tuple
  /// vector over the columnar store. Prefer RowAt/ValueAt on hot paths —
  /// they touch only the requested cells.
  const std::vector<Tuple>& tuples() const;

  size_t size() const { return store_.rows(); }
  bool empty() const { return store_.rows() == 0; }
  const Tuple& at(size_t i) const { return tuples()[i]; }

  /// Materializes a single row from the column buffers (no cache).
  Tuple RowAt(size_t i) const { return store_.MaterializeRow(i); }
  /// Materializes a single cell from the column buffers.
  Value ValueAt(size_t row, size_t col) const {
    return store_.ValueAt(row, col);
  }
  /// The columnar storage, for columnar scans and score-table compilation.
  const ColumnStore& store() const { return store_; }

  /// Appends a row; the arity must match the schema.
  void Add(Tuple t);
  void Add(std::initializer_list<Value> values) { Add(Tuple(values)); }

  /// Resolves attribute names to column indices; throws std::out_of_range
  /// on an unknown attribute (programming error in a query plan).
  std::vector<size_t> ResolveColumns(
      const std::vector<std::string>& names) const;

  /// Projection π_names(R) as a new relation (bag semantics). Shares the
  /// projected column buffers — no row copies.
  Relation Project(const std::vector<std::string>& names) const;

  /// Hard selection σ_pred(R); the result is an index view.
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
  void InvalidateRowCache();

  Schema schema_;
  ColumnStore store_;

  // Lazy row-compatibility cache: double-checked publish so shared
  // immutable snapshots can serve tuples()/at() from any thread.
  mutable std::mutex cache_mu_;
  mutable std::shared_ptr<const std::vector<Tuple>> tuple_cache_;
  mutable std::atomic<const std::vector<Tuple>*> cache_ptr_{nullptr};
};

}  // namespace prefdb

#endif  // PREFDB_RELATION_RELATION_H_
