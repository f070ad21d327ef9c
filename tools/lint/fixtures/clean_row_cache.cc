// prefdb-lint: pretend-path=src/eval/closure_reference.cc
// Clean fixture for prefdb-row-cache: outside the served paths
// (reference evaluators, tools, tests) tuples() is free to build the
// relation's rows, which is what it exists for.

#include <cstddef>
#include <vector>

struct Tuple {};

struct Relation {
  std::vector<Tuple> tuples() const;
  std::size_t size() const;
};

std::size_t ReferenceCount(const Relation& r) {
  std::size_t n = 0;
  for (const Tuple& row : r.tuples()) {
    (void)row;
    ++n;
  }
  return n;
}

// A helper named like the accessor but with arguments is not the accessor.
std::size_t tuples(const Relation& r, std::size_t limit) {
  return r.size() < limit ? r.size() : limit;
}
