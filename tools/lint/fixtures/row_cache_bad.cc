// prefdb-lint: pretend-path=src/server/encode_shortcut.cc
// Negative fixture for prefdb-row-cache: a served path must not call
// Relation::tuples() — it builds a whole-row Tuple for every row of the
// relation from its columns, on each call. Encoders and scans read cells
// instead.

#include <cstddef>
#include <string>
#include <vector>

struct Tuple {};

struct Relation {
  // LINT-EXPECT: prefdb-row-cache
  std::vector<Tuple> tuples() const;
  std::size_t size() const;
};

void EncodeRow(const Tuple& row, std::string* out);

std::string EncodeAll(const Relation& r) {
  std::string out;
  // Naming r.tuples() in a comment (or "tuples()" in a string) is fine.
  const char* note = "tuples()";
  (void)note;
  // LINT-EXPECT: prefdb-row-cache
  for (const Tuple& row : r.tuples()) EncodeRow(row, &out);
  return out;
}

std::size_t CountRows(const Relation* r) {
  // LINT-EXPECT: prefdb-row-cache
  return r->tuples ( ).size();
}
