#include "exec/simd/dominance.h"

#include <algorithm>

#include "exec/float_eq.h"

namespace prefdb::simd {

// ---------------------------------------------------------------------------
// RowBlock

void RowBlock::Grow() {
  const size_t new_cap = cap_ == 0 ? 2 * kLanes : cap_ * 2;
  std::vector<double> new_scores(cols_ * new_cap, 0.0);
  std::vector<uint32_t> new_ids(cols_ * new_cap, 0);
  for (size_t c = 0; c < cols_; ++c) {
    std::copy(scores_.begin() + c * cap_, scores_.begin() + c * cap_ + size_,
              new_scores.begin() + c * new_cap);
    std::copy(ids_.begin() + c * cap_, ids_.begin() + c * cap_ + size_,
              new_ids.begin() + c * new_cap);
  }
  scores_ = std::move(new_scores);
  ids_ = std::move(new_ids);
  cap_ = new_cap;
}

void RowBlock::Append(const double* row_scores, const uint32_t* row_ids,
                      size_t payload) {
  if (size_ == cap_) Grow();
  for (size_t c = 0; c < cols_; ++c) {
    scores_[c * cap_ + size_] = row_scores[c];
    ids_[c * cap_ + size_] = row_ids ? row_ids[c] : 0;
  }
  payloads_.push_back(payload);
  ++size_;
}

void RowBlock::Evict(const uint64_t* evict_words) {
  size_t keep = 0;
  for (size_t i = 0; i < size_; ++i) {
    if ((evict_words[i / 64] >> (i % 64)) & 1) continue;
    if (keep != i) {
      for (size_t c = 0; c < cols_; ++c) {
        scores_[c * cap_ + keep] = scores_[c * cap_ + i];
        ids_[c * cap_ + keep] = ids_[c * cap_ + i];
      }
      payloads_[keep] = payloads_[i];
    }
    ++keep;
  }
  // Re-zero vacated lanes: the kernels load full lane chunks, so padding
  // past size() must stay defined.
  for (size_t c = 0; c < cols_; ++c) {
    std::fill(scores_.begin() + c * cap_ + keep,
              scores_.begin() + c * cap_ + size_, 0.0);
    std::fill(ids_.begin() + c * cap_ + keep, ids_.begin() + c * cap_ + size_,
              0u);
  }
  payloads_.resize(keep);
  size_ = keep;
}

void RowBlock::Clear() {
  for (size_t c = 0; c < cols_; ++c) {
    std::fill(scores_.begin() + c * cap_, scores_.begin() + c * cap_ + size_,
              0.0);
    std::fill(ids_.begin() + c * cap_, ids_.begin() + c * cap_ + size_, 0u);
  }
  payloads_.clear();
  size_ = 0;
}

// ---------------------------------------------------------------------------
// Portable batch kernels: the same lane-blocked loop structure as the
// AVX2 build, over `unsigned` lane-bit masks (bit l = lane l of the
// current chunk). Plain enough that compilers autovectorize the inner
// lane loops.

namespace {

constexpr unsigned kLaneMask = (1u << kLanes) - 1;

struct Masks {
  unsigned lt = 0;  // x[c] < y[c] per lane (candidate worse)
  unsigned gt = 0;
  unsigned eq = 0;
};

inline Masks ColumnMasks(double xv, uint32_t xid, bool use_ids,
                         const double* col, const uint32_t* idcol,
                         size_t base) {
  Masks m;
  for (unsigned l = 0; l < kLanes; ++l) {
    const double yv = col[base + l];
    m.lt |= static_cast<unsigned>(xv < yv) << l;
    m.gt |= static_cast<unsigned>(xv > yv) << l;
    // NaN-bearing columns compile with use_ids set, so the raw-score
    // lane meets ScoreEqNanFree's NaN-free precondition.
    m.eq |= static_cast<unsigned>(use_ids ? xid == idcol[base + l]
                                          : exec::ScoreEqNanFree(xv, yv))
            << l;
  }
  return m;
}

// (x <P node y, y <P node x, x =node y) lane masks of a descriptor
// subtree on the chunk at `base`; nodes are in postorder, recursion depth
// is the tree depth.
struct NodeMasks {
  unsigned less_x, less_y, eq;
};

NodeMasks EvalNode(const DominanceProgram& prog, int idx,
                   const double* x_scores, const uint32_t* x_ids,
                   const RowBlock& block, size_t base) {
  const DominanceProgram::Node& node = prog.nodes[idx];
  if (node.kind == DominanceProgram::Node::Kind::kLeaf) {
    const size_t c = static_cast<size_t>(node.a);
    Masks m = ColumnMasks(x_scores[c], x_ids ? x_ids[c] : 0,
                          prog.use_ids[c] != 0, block.scores(c), block.ids(c),
                          base);
    return {m.lt, m.gt, m.eq};
  }
  NodeMasks l = EvalNode(prog, node.a, x_scores, x_ids, block, base);
  NodeMasks r = EvalNode(prog, node.b, x_scores, x_ids, block, base);
  if (node.kind == DominanceProgram::Node::Kind::kPareto) {
    return {(l.less_x & (r.less_x | r.eq)) | (r.less_x & (l.less_x | l.eq)),
            (l.less_y & (r.less_y | r.eq)) | (r.less_y & (l.less_y | l.eq)),
            l.eq & r.eq};
  }
  if (node.kind == DominanceProgram::Node::Kind::kIntersect) {
    return {l.less_x & r.less_x, l.less_y & r.less_y, l.eq & r.eq};
  }
  if (node.kind == DominanceProgram::Node::Kind::kUnion) {
    return {l.less_x | r.less_x, l.less_y | r.less_y, l.eq & r.eq};
  }
  return {l.less_x | (l.eq & r.less_x), l.less_y | (l.eq & r.less_y),
          l.eq & r.eq};
}

// (dominated, dominates) lane masks for the chunk at `base`. When
// OneSided, only `dominated` is meaningful (the SFS window never evicts).
template <bool OneSided>
inline std::pair<unsigned, unsigned> Chunk(const DominanceProgram& prog,
                                           const double* x_scores,
                                           const uint32_t* x_ids,
                                           const RowBlock& block,
                                           size_t base) {
  switch (prog.mode) {
    case DominanceProgram::Mode::kFlatPareto: {
      unsigned all_le = kLaneMask, any_lt = 0;
      unsigned all_ge = kLaneMask, any_gt = 0;
      for (size_t c = 0; c < prog.cols; ++c) {
        Masks m = ColumnMasks(x_scores[c], x_ids ? x_ids[c] : 0,
                              prog.use_ids[c] != 0, block.scores(c),
                              block.ids(c), base);
        all_le &= m.lt | m.eq;
        any_lt |= m.lt;
        if (!OneSided) {
          all_ge &= m.gt | m.eq;
          any_gt |= m.gt;
        }
        if ((all_le | (OneSided ? 0u : all_ge)) == 0) break;
      }
      return {all_le & any_lt, OneSided ? 0u : (all_ge & any_gt)};
    }
    case DominanceProgram::Mode::kFlatLex: {
      unsigned decided = 0, dominated = 0, dominates = 0;
      for (size_t c = 0; c < prog.cols; ++c) {
        Masks m = ColumnMasks(x_scores[c], x_ids ? x_ids[c] : 0,
                              prog.use_ids[c] != 0, block.scores(c),
                              block.ids(c), base);
        const unsigned neq = kLaneMask & ~m.eq;
        const unsigned newly = neq & ~decided;
        dominated |= newly & m.lt;
        if (!OneSided) dominates |= newly & m.gt;
        decided |= neq;
        if (decided == kLaneMask) break;
      }
      return {dominated, dominates};
    }
    case DominanceProgram::Mode::kGeneral:
      break;
  }
  NodeMasks r = EvalNode(prog, prog.root, x_scores, x_ids, block, base);
  return {r.less_x, OneSided ? 0u : r.less_y};
}

bool ScalarScan(const DominanceProgram& prog, const double* x_scores,
                const uint32_t* x_ids, const RowBlock& block,
                uint64_t* evict_words) {
  const size_t n = block.size();
  for (size_t w = 0; w < (n + 63) / 64; ++w) evict_words[w] = 0;
  for (size_t base = 0; base < n; base += kLanes) {
    const unsigned valid =
        n - base >= kLanes ? kLaneMask : ((1u << (n - base)) - 1);
    auto [dominated, dominates] =
        Chunk<false>(prog, x_scores, x_ids, block, base);
    if (dominated & valid) return true;
    if (dominates & valid) {
      evict_words[base / 64] |= static_cast<uint64_t>(dominates & valid)
                                << (base % 64);
    }
  }
  return false;
}

bool ScalarDominated(const DominanceProgram& prog, const double* x_scores,
                     const uint32_t* x_ids, const RowBlock& block) {
  const size_t n = block.size();
  for (size_t base = 0; base < n; base += kLanes) {
    const unsigned valid =
        n - base >= kLanes ? kLaneMask : ((1u << (n - base)) - 1);
    auto [dominated, unused] =
        Chunk<true>(prog, x_scores, x_ids, block, base);
    (void)unused;
    if (dominated & valid) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch

const KernelOps& ScalarKernel() {
  static const KernelOps ops{"scalar", &ScalarScan, &ScalarDominated};
  return ops;
}

#if defined(PREFDB_HAVE_AVX2)
namespace avx2_impl {
extern const KernelOps kOps;  // dominance_avx2.cc, compiled with -mavx2
}
#endif

bool Avx2Available() {
#if defined(PREFDB_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const KernelOps& ResolveKernel([[maybe_unused]] SimdMode mode) {
#if defined(PREFDB_HAVE_AVX2)
  if (mode != SimdMode::kScalar && Avx2Available()) return avx2_impl::kOps;
#endif
  return ScalarKernel();
}

}  // namespace prefdb::simd
