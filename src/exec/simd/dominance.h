// Batch dominance kernels: the SIMD layer under the score-table BMO
// paths (exec/score_table.h).
//
// The unit of work is one candidate row tested against a *block* of rows
// held column-major (structure of arrays), so a single pass over the
// block's column vectors decides kLanes row-pairs at a time: per column
// the kernel forms less/greater/equal lane masks (equality via the
// per-column dict ids when score ties cross equality classes, else via
// score equality — NaN scores compare unequal exactly like the scalar
// path) and combines them through the dominance descriptor program:
//
//   kFlatPareto  dominated = AND_c(lt|eq) & OR_c(lt)   (both directions in
//                one pass, early column exit when neither can still hold)
//   kFlatLex     first undecided column decides, lane-masked
//   kGeneral     the Pareto/prioritized node program evaluated bottom-up
//                (nodes are in postorder) over lane masks
//
// Two implementations sit behind one vtable: a portable scalar build of
// the same lane-blocked loops (autovectorizable, always present) and an
// AVX2 build (compiled only under -DPREFDB_SIMD=ON into its own TU with
// -mavx2, selected at runtime via CPU detection). Padding lanes past a
// block's size are kept zeroed so full-width loads are defined; result
// bits are masked to the live size.

#ifndef PREFDB_EXEC_SIMD_DOMINANCE_H_
#define PREFDB_EXEC_SIMD_DOMINANCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eval/bmo.h"

namespace prefdb::simd {

/// Lane width all kernels agree on (4 doubles = one AVX2 register).
inline constexpr size_t kLanes = 4;

/// Flattened dominance descriptor shared by the scalar pair tests
/// (ScoreTable::Less) and the batch kernels. Built once at score-table
/// compile time.
struct DominanceProgram {
  enum class Mode : uint8_t {
    kFlatPareto,  // Pareto accumulation of all columns (incl. single leaf)
    kFlatLex,     // prioritized/lexicographic left-to-right
    kGeneral,     // arbitrary Pareto/prioritized nesting: node program
  };
  struct Node {
    // kIntersect/kUnion are the Def. 11 aggregations (P1 <> P2 orders when
    // both sides order; P1 + P2 when either does); both force kGeneral —
    // they have no flat-mode equivalent.
    enum class Kind : uint8_t { kLeaf, kPareto, kPrioritized, kIntersect,
                                kUnion };
    Kind kind = Kind::kLeaf;
    int a = -1;  // kLeaf: column index; else: left child node index
    int b = -1;  // right child node index
  };

  Mode mode = Mode::kFlatPareto;
  size_t cols = 0;
  std::vector<uint8_t> use_ids;  // per column: score ties need the id test
  /// kGeneral node program in postorder (children precede parents).
  std::vector<Node> nodes;
  int root = -1;
};

/// A column-major block of compiled rows (the BNL window, a BNL tile's
/// local window, or a gathered merge candidate set). Each column's score
/// and id vectors are padded with zeros to a multiple of kLanes so the
/// kernels can issue full-width loads.
class RowBlock {
 public:
  explicit RowBlock(size_t cols) : cols_(cols) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t cols() const { return cols_; }

  const double* scores(size_t c) const { return scores_.data() + c * cap_; }
  const uint32_t* ids(size_t c) const { return ids_.data() + c * cap_; }
  /// Caller-defined tag carried per entry (e.g. the global row index).
  size_t payload(size_t i) const { return payloads_[i]; }

  /// Appends one row given row-major score/id pointers (`ids` may be null
  /// when no column uses the id test; zeros are stored).
  void Append(const double* row_scores, const uint32_t* row_ids,
              size_t payload);

  /// Removes the entries whose bits are set in `evict_words`
  /// ((size+63)/64 words), preserving order and re-zeroing vacated lanes.
  void Evict(const uint64_t* evict_words);

  void Clear();

 private:
  void Grow();

  size_t cols_;
  size_t size_ = 0;
  size_t cap_ = 0;  // per-column lane capacity, multiple of kLanes
  std::vector<double> scores_;    // cols_ x cap_, column-major
  std::vector<uint32_t> ids_;     // cols_ x cap_, column-major
  std::vector<size_t> payloads_;  // size_
};

/// One kernel implementation. `scan` tests candidate row x (row-major
/// score/id pointers, `x_ids` may be null when no column uses ids)
/// against every block entry: returns true as soon as some entry
/// dominates x (the scan stops; `evict_words` contents are then
/// unspecified), else fills `evict_words` ((block.size()+63)/64 words)
/// with the entries x dominates and returns false. `dominated` is the
/// one-sided variant for the SFS window (no evictions there). An entry
/// equal to x (self-comparison) never counts as dominating either way.
struct KernelOps {
  const char* name;  // "scalar" | "avx2"
  bool (*scan)(const DominanceProgram& prog, const double* x_scores,
               const uint32_t* x_ids, const RowBlock& block,
               uint64_t* evict_words);
  bool (*dominated)(const DominanceProgram& prog, const double* x_scores,
                    const uint32_t* x_ids, const RowBlock& block);
};

/// True when this build carries the AVX2 kernels and the CPU executes
/// them (runtime dispatch; false under -DPREFDB_SIMD=OFF).
bool Avx2Available();

/// Maps the execution option to a kernel: kScalar -> the portable batch
/// kernels, kAuto/kAvx2 -> AVX2 when available, else the portable ones.
const KernelOps& ResolveKernel(SimdMode mode);

/// The portable kernels (always present; the AVX2 tail reuses them).
const KernelOps& ScalarKernel();

}  // namespace prefdb::simd

#endif  // PREFDB_EXEC_SIMD_DOMINANCE_H_
