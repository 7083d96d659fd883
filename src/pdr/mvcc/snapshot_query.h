// Snapshot reads: run the exact engine's query core against a pinned
// epoch while the writer keeps committing. Only FR is versioned, so a
// snapshot answer is always exact.
//
// A snapshot FR query builds a private read stack — SnapshotPager over
// the frozen page versions, its own BufferPool, a SnapshotIndexView
// dispatching to the trees' static traversals with the frozen root/read
// view, and the m*m counter slice materialized from frozen histogram
// rows — then calls the same FrQueryCore the live engine calls. Nothing
// mutable is shared with the writer or with other readers, so any number
// of snapshot queries run concurrently with updates, and each answer is
// bit-identical to serialized execution at the snapshot's epoch
// (tests/mvcc_interleave_test.cc proves this per interleaving).
//
// Snapshot queries always run their refinement serially (no thread
// pool): determinism does not need it — live parallel execution is
// already bit-identical to serial — and the concurrency story here is
// many queries in flight at once, not fan-out inside one.

#ifndef PDR_MVCC_SNAPSHOT_QUERY_H_
#define PDR_MVCC_SNAPSHOT_QUERY_H_

#include "pdr/core/fr_engine.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/resilience/deadline.h"

namespace pdr {
namespace mvcc {

/// The engine clock frozen in `snap` (what "now" was at its commit).
/// Throws std::logic_error when the snapshot is invalid or carries no
/// frozen state.
Tick SnapshotFrNow(const Snapshot& snap);

/// Exact snapshot PDR query against the pinned epoch. `engine` must be
/// the engine whose FrEngine::Commit() calls produced `snap`; only
/// its immutable version stores and construction-time options are read,
/// so the writer may mutate and commit concurrently. Validates q_t
/// against [snap now, snap now + H] (HorizonError). `ctl` works exactly
/// as in FrEngine::Query (cancellation mid-snapshot releases cleanly).
FrEngine::QueryResult SnapshotFrQuery(const FrEngine& engine,
                                      const Snapshot& snap, Tick q_t,
                                      double rho, double l,
                                      const QueryControl& ctl = {});

}  // namespace mvcc
}  // namespace pdr

#endif  // PDR_MVCC_SNAPSHOT_QUERY_H_
