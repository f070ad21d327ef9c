// prefdb-lint: pretend-path=src/exec/ingest_shortcut.cc
// Negative fixture for prefdb-raw-store-mutation: execution-layer code
// must not reach into ColumnStore's mutating entry points — columns are
// copy-on-write and shared with snapshots, index views and zero-copy
// score tables, so every mutation goes through Relation's API where the
// per-column clone happens.

#include <cstddef>
#include <vector>

struct Tuple;

struct ColumnStore {
  // Even re-declaring the mutators for a shim is a violation.
  // LINT-EXPECT: prefdb-raw-store-mutation
  void AppendRow(const Tuple& t);
  // LINT-EXPECT: prefdb-raw-store-mutation
  void RemoveRows(const std::vector<char>& dead);
  // LINT-EXPECT: prefdb-raw-store-mutation
  void* MutableColumn(std::size_t c);
};

void BypassIngest(ColumnStore* store, const std::vector<Tuple>& batch) {
  for (const Tuple& t : batch) {
    // LINT-EXPECT: prefdb-raw-store-mutation
    store->AppendRow(t);
  }
}

void BypassErase(ColumnStore* store, const std::vector<char>& dead) {
  // LINT-EXPECT: prefdb-raw-store-mutation
  store->RemoveRows(dead);
}

void* BypassCow(ColumnStore* store, std::size_t c) {
  // LINT-EXPECT: prefdb-raw-store-mutation
  return store->MutableColumn(c);
}
