// Column-major (SoA) relation storage. One typed, contiguous vector per
// column — widened doubles for numerics, exact int64 shadows for
// reconstruction fidelity, dictionary codes for strings, a per-row type
// tag that doubles as the validity (NULL) map — so score-table
// compilation and columnar scans read flat arrays instead of walking
// heap-scattered row Values. Copy-on-write is per column: copying a
// ColumnStore shares the column buffers; the first mutation clones only
// the columns it touches (a flat memcpy, not a per-Value deep copy).

#ifndef PREFDB_RELATION_COLUMN_STORE_H_
#define PREFDB_RELATION_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/tuple.h"
#include "relation/value.h"

namespace prefdb {

/// Append-only string dictionary shared by the string rows of one column.
/// Codes are stable: interning never reorders, so a clone taken at any
/// point keeps every previously issued code valid.
class StringDict {
 public:
  /// Returns the code for `s`, interning it if new.
  uint32_t Intern(const std::string& s);
  std::optional<uint32_t> Find(const std::string& s) const;
  const std::string& At(uint32_t code) const { return strings_[code]; }
  size_t size() const { return strings_.size(); }
  /// Approximate heap bytes: the string vector and out-of-line string
  /// bodies, plus one hash node (key copy and bucket) per entry.
  size_t HeapBytes() const;

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t> index_;
};

/// One column of a relation. `tags` always has one entry per row (the
/// runtime type, which is also the validity map: kNull marks NULL).
/// `nums` always has one entry per row: the widened numeric value for
/// kInt/kDouble rows (0.0 elsewhere), so numeric scans read one flat
/// double array. `ints` and `codes` are allocated lazily, only once the
/// column actually holds an int (exact int64 reconstruction — doubles
/// lose precision past 2^53) or a string.
struct Column {
  std::vector<uint8_t> tags;
  std::vector<double> nums;
  std::vector<int64_t> ints;      // empty until the first kInt row
  std::vector<uint32_t> codes;    // empty until the first kString row
  std::shared_ptr<StringDict> dict;

  // Running summary counters: O(1) compile-eligibility checks.
  uint32_t null_count = 0;
  uint32_t int_count = 0;
  uint32_t string_count = 0;
  uint32_t nan_count = 0;

  size_t size() const { return tags.size(); }
  ValueType TagAt(size_t i) const { return static_cast<ValueType>(tags[i]); }
  /// True when every row is kInt or kDouble: `nums` alone is the column.
  bool AllNumeric() const { return null_count + string_count == 0; }
  /// All-numeric and NaN-free: the widened doubles in `nums` are exactly
  /// the Value-semantics column, so numeric score-table leaves read the
  /// buffer directly.
  bool NumericNanFree() const { return AllNumeric() && nan_count == 0; }

  void Append(const Value& v);
  Value At(size_t i) const;
};

/// A column-major table: shared column buffers plus an optional row
/// permutation (`perm`). A non-null perm makes this store an index view
/// over the same buffers — SelectRows/Filter/Sorted produce views, so
/// downstream consumers (engine exec cache, IVM passes) never copy
/// rows. Views compose: a view of a view folds the
/// permutations into one flat vector, keeping lookups single-hop.
class ColumnStore {
 public:
  ColumnStore() = default;
  explicit ColumnStore(size_t num_columns);

  size_t rows() const { return nrows_; }
  size_t num_columns() const { return cols_.size(); }

  /// The underlying (pre-permutation) row index of logical row `i`.
  size_t PhysicalRow(size_t i) const { return perm_ ? (*perm_)[i] : i; }
  bool IsView() const { return perm_ != nullptr; }

  /// Direct column access for columnar scans. With a view, callers must
  /// index through PhysicalRow; flat stores index directly.
  const Column& column(size_t c) const { return *cols_[c]; }

  Value ValueAt(size_t row, size_t col) const {
    return cols_[col]->At(PhysicalRow(row));
  }
  Tuple MaterializeRow(size_t row) const;

  /// Appends one row (arity must equal num_columns). A view flattens
  /// first; shared columns are cloned before the append (per-column COW).
  void AppendRow(const Tuple& t);

  /// Removes the logical rows flagged in `dead` (one flag per row),
  /// keeping the survivors in order. A flat store compacts each column in
  /// place, moving only the rows after the first dead one; shared columns
  /// are cloned first (per-column COW), so other holders keep their rows.
  /// A view drops the dead entries from its permutation and leaves the
  /// buffers alone.
  void RemoveRows(const std::vector<char>& dead);

  /// Heap bytes of the buffers only this store references, by capacity:
  /// columns, dictionaries and the permutation whose shared_ptr it alone
  /// holds. Buffers shared with a snapshot or another copy are not
  /// counted; they belong to every holder at once.
  size_t OwnedHeapBytes() const;

  /// Column-sharing projection: the returned store references the chosen
  /// column buffers (and this store's permutation) without copying.
  ColumnStore ProjectColumns(const std::vector<size_t>& cols) const;

  /// Index view selecting `rows` (logical indices of `base`), sharing the
  /// column buffers. When the selection drops at least half the rows the
  /// result is materialized instead, so a shrunken store does not pin the
  /// full base buffers (the engine Delete path relies on this).
  static ColumnStore View(const ColumnStore& base, std::vector<uint32_t> rows);

  /// A flat store of `base`'s logical rows `rows` that shares no column
  /// buffer with `base`, so it never makes `base`'s next mutation clone
  /// one. String columns share `base`'s append-only dictionary, which a
  /// write interning a new string clones first.
  static ColumnStore Gather(const ColumnStore& base,
                            std::vector<uint32_t> rows);

  /// A flat store over whole columns, each `rows` rows long, as a decoder
  /// builds them. The caller fills `tags`, the doubles of kDouble rows in
  /// `nums` (sized to the rows), `ints` when some row is kInt and `codes`
  /// plus `dict` when some row is kString; `ints`/`codes` are empty or
  /// one per row. The factory derives the rest of the Column invariants
  /// that Column::Append keeps: the counters, the widened `nums` of kInt
  /// rows, 0.0 in `nums` and 0 in `ints`/`codes` at the rows that do not
  /// use them. Throws std::invalid_argument on a wrong length, an unknown
  /// tag, a missing buffer or a string code outside the dictionary.
  static ColumnStore FromColumns(size_t rows, std::vector<Column> columns);

  /// Materializes a view into flat columns; no-op when already flat.
  void Flatten();

 private:
  /// Column `c`, cloned first when another store shares it. A clone, like
  /// Flatten's gather, reserves an eighth of headroom: a plain copy has no
  /// spare capacity, so the owner's next append would double every buffer.
  std::shared_ptr<Column>& MutableColumn(size_t c);

  size_t nrows_ = 0;
  std::vector<std::shared_ptr<Column>> cols_;
  std::shared_ptr<const std::vector<uint32_t>> perm_;
};

/// Dense per-row equality codes over `cols` of `r`'s store, consistent
/// with Value equality (numeric widening, NULL == NULL, NaN != NaN):
/// rows i, j get the same code iff their projections onto `cols` are
/// equal. `pool` restricts and reorders the scanned rows (logical
/// indices); null means all rows. `group_rows[g]` is a representative
/// pool position for code g. This is the columnar core behind Distinct,
/// DistinctProjections, GroupRowsBy, the projection index and the score
/// table's equality classes. An all-string leading column codes straight
/// from its dictionary codes, without hashing.
struct GroupCoding {
  std::vector<uint32_t> codes;       // one per scanned pool position
  std::vector<uint32_t> group_rows;  // representative pool position per code
  size_t num_groups = 0;
};

class Relation;
GroupCoding ComputeGroupCoding(const Relation& r,
                               const std::vector<size_t>& cols,
                               const std::vector<size_t>* pool = nullptr);

/// Groups the rows of `r` (or of `pool`, logical row indices) by equal
/// projections onto `cols` — the grouping of σ[P groupby A](R) (Def. 16).
/// Groups come in first-occurrence order and hold global row indices in
/// scan order.
std::vector<std::vector<size_t>> GroupRowsBy(
    const Relation& r, const std::vector<size_t>& cols,
    const std::vector<size_t>* pool = nullptr);

/// Cheap sampled distinctness probe over the projection onto `cols`:
/// hashes ~512 strided rows and reports whether at least half of the
/// sampled rows were distinct. It detects heavy duplication only: with
/// uniformly spread values it flips from false to true at about 320
/// distinct combinations in the pool, whatever the pool size; more
/// distinct values read as duplicated only when a few values cover most
/// rows. So the 100k-row car table's `price`, with 20,899 distinct
/// values (21%), reads as "mostly distinct".
/// Gates CompileBlock's one decision (eval/bmo_internal.h): compile the
/// candidate rows as they are, or deduplicate them first through
/// ComputeGroupCoding. Both are exact; heavy duplication makes the
/// deduplicated kernel input small enough to repay the coding pass.
/// Hash collisions only under-count, i.e. mis-report toward
/// deduplication.
bool LikelyMostlyDistinct(const Relation& r, const std::vector<size_t>& cols,
                          const std::vector<size_t>* pool = nullptr);

}  // namespace prefdb

#endif  // PREFDB_RELATION_COLUMN_STORE_H_
