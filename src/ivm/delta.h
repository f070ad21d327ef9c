// Typed deltas for incrementally maintained preference views.
//
// A maintained view is the BMO result set σ[P](R) kept current under
// mutations of R (see ivm/maintained_view.h). Every mutation emits one
// ViewDelta describing how the result set changed: rows that newly became
// best matches (`enters`) and rows that left the result (`exits`) — either
// because they were deleted or because a new row now dominates them.
//
// A `resync` delta voids all previously delivered state: `enters` then
// carries the complete current result set (and `exits` is empty). Resyncs
// are emitted (a) as the first delta of every subscription, making
// snapshot-consistent bootstrap structural rather than a client protocol,
// and (b) when a slow subscriber overflows its bounded delta queue, where
// one coalesced snapshot replaces the dropped backlog.
//
// Both row sets are Relations with the table's schema, empty ones too.
// A delta owns its column buffers (the view gathers them into flat
// stores of their own), so copies of it, one per subscriber, share those
// buffers with each other and never with the view: a delta waiting in a
// queue costs the view's next mutation nothing. Only the append-only
// string dictionaries are shared; the view clones one before interning a
// new string into it while a delta still holds it.

#ifndef PREFDB_IVM_DELTA_H_
#define PREFDB_IVM_DELTA_H_

#include <cstdint>

#include "relation/relation.h"

namespace prefdb::ivm {

/// One result-set change, tagged with the table version it produced.
/// Versions are the catalog's per-table mutation counters; deltas are
/// delivered in strictly increasing version order per subscription
/// (mutations that leave the result set unchanged emit nothing, so gaps
/// are normal).
struct ViewDelta {
  /// Table version after the mutation this delta describes.
  uint64_t version = 0;
  /// True: discard all accumulated state; `enters` is the full result set.
  bool resync = false;
  /// Rows entering the result set, in table order.
  Relation enters;
  /// Rows leaving the result set (deleted or newly dominated), in table
  /// order.
  Relation exits;

  bool Empty() const { return !resync && enters.empty() && exits.empty(); }
};

}  // namespace prefdb::ivm

#endif  // PREFDB_IVM_DELTA_H_
