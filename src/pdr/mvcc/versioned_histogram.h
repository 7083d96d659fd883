// Copy-on-write versioned density histogram rows.
//
// The live DensityHistogram stays the writer's structure; with dirty
// tracking enabled it records which (slot, row) counter rows each update
// touches. At commit, PublishDirty() copies just those rows — tagged with
// the tick their slot currently holds — into a VersionStore keyed by
// slot * m + row. A snapshot query materializes the full m*m slice for
// its q_t by resolving the m row keys of q_t's slot at the pinned epoch:
//
//   version found, tick == q_t  ->  the row's frozen counters
//   missing or tick mismatch    ->  zeros
//
// The tick tag is what makes ring-slot recycling safe without eagerly
// publishing zeroed slices: after AdvanceTo recycles a slot to a new
// tick, stale versions still carry the old tick and materialize as the
// zeros the live histogram would report — bit-identical by construction
// (the full interleaving argument is in DESIGN.md §14.2).

#ifndef PDR_MVCC_VERSIONED_HISTOGRAM_H_
#define PDR_MVCC_VERSIONED_HISTOGRAM_H_

#include <vector>

#include "pdr/histogram/density_histogram.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/version_store.h"

namespace pdr {
namespace mvcc {

class VersionedHistogram {
 public:
  /// `live` must outlive this wrapper and have dirty tracking enabled
  /// before its first Apply. Registers its version store with `manager`
  /// (not owned).
  VersionedHistogram(DensityHistogram* live, SnapshotManager* manager);
  ~VersionedHistogram();

  /// Copies every dirty live row into the version store at the open
  /// epoch. Writer thread only, immediately before Commit.
  void PublishDirty();

  /// The full m*m counter slice for `q_t` as frozen at `epoch`. Any
  /// thread. The caller must have validated q_t against the snapshot's
  /// horizon window; out-of-window ticks would alias a recycled slot.
  std::vector<DensityHistogram::Counter> MaterializeSlice(Epoch epoch,
                                                          Tick q_t) const;

 private:
  struct Row {
    Tick tick = 0;  // the tick the slot held when this copy was taken
    std::vector<DensityHistogram::Counter> counts;
  };

  DensityHistogram* live_;
  SnapshotManager* manager_;
  const int m_;      // cells per side == rows per slot == counters per row
  const int slots_;  // horizon + 1
  VersionStore<Row> versions_;
  std::vector<uint32_t> scratch_keys_;
};

}  // namespace mvcc
}  // namespace pdr

#endif  // PDR_MVCC_VERSIONED_HISTOGRAM_H_
