// FR: the exact filtering-refinement PDR engine (Section 5).
//
// Maintains the density histogram (filter) and a TPR-tree (refinement)
// from the same update stream. A snapshot query (rho, l, q_t):
//
//   1. Filter: classify every histogram cell as accept / reject /
//      candidate from the conservative and expansive neighborhood counts
//      (Algorithm 1). Accepted cells enter the answer whole; rejected
//      cells are discarded.
//   2. Refine: each candidate cell needs the objects inside the cell
//      expanded by l/2 (the square S of Section 5.3). The paper runs one
//      spatio-temporal range query per candidate cell; here candidate
//      cells are grouped into 8-connected clusters and each cluster is
//      fetched with one range query over the bounding box of its members'
//      squares, from which every cell takes exactly the objects its own
//      query would have returned (DESIGN.md §6, "The grouped fetch"). The
//      two-level plane sweep (Algorithms 2-3) then produces the exact
//      dense rectangles inside each cell.
//
// Cost accounting follows the paper: CPU is measured wall time, I/O is
// the TPR-tree's physical page reads charged at io_ms each (the histogram
// itself is pinned in memory and charged no I/O). Queries may optionally
// run cold (buffer pool dropped first), matching the paper's per-query
// averages over a workload.
//
// The engine also exposes the two DH-only approximations used as
// comparison points in Fig. 8 (optimistic = accepts + candidates,
// pessimistic = accepts only).

#ifndef PDR_CORE_FR_ENGINE_H_
#define PDR_CORE_FR_ENGINE_H_

#include <memory>
#include <string>

#include "pdr/common/errors.h"
#include "pdr/common/region.h"
#include "pdr/common/stats.h"
#include "pdr/histogram/density_histogram.h"
#include "pdr/histogram/filter.h"
#include "pdr/index/object_index.h"
#include "pdr/parallel/exec_policy.h"
#include "pdr/resilience/deadline.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/sweep/plane_sweep.h"

namespace pdr {

class ThreadPool;

namespace mvcc {
class SnapshotManager;
class VersionedPager;
class VersionedHistogram;
}  // namespace mvcc

/// Which predictive index backs the refinement step (Section 4: "Several
/// indexing methods have been proposed for linear movement, which we can
/// adopt in our framework").
enum class IndexKind {
  kTprTree,  ///< the paper's choice (time-parameterized R-tree)
  kBxTree,   ///< B+-tree over Z-order keys with query enlargement
};

class FrEngine {
 public:
  struct Options {
    double extent = 1000.0;
    int histogram_side = 100;  ///< m
    Tick horizon = 120;        ///< H = U + W
    size_t buffer_pages = 256; ///< index buffer pool
    double io_ms = 10.0;       ///< charge per physical page read
    IndexKind index = IndexKind::kTprTree;
    Tick max_update_interval = 60;  ///< U (B^x-tree phase sizing)
    ExecPolicy exec;           ///< serial by default; see SetExecPolicy
    /// Non-empty: durable storage — the index lives on a DiskPager in this
    /// directory (WAL + checkpoints; see storage/disk_pager.h), and
    /// construction recovers any existing store, restoring the index, the
    /// histogram, and both clocks to the last checkpoint. Empty: in-memory.
    std::string storage_dir;
    /// Crash-fault injection for the durable store (tests only; not owned).
    FaultInjector* fault_injector = nullptr;
    /// Non-null: the engine serves MVCC snapshot reads — the index runs
    /// over a copy-on-write VersionedPager, the histogram records dirty
    /// rows, and each Commit() publishes a consistent frozen view as one
    /// epoch of this manager (DESIGN.md §14). Mutually exclusive with
    /// storage_dir (std::invalid_argument). Not owned; must outlive the
    /// engine.
    mvcc::SnapshotManager* snapshots = nullptr;
  };

  explicit FrEngine(const Options& options);
  ~FrEngine();

  /// Switches how refinement fans out. The fetch runs on the calling
  /// thread and per-candidate-cell sweeps merge in row-major cell order, so
  /// the answer and every counter, I/O included, are bit-identical to
  /// serial execution at any thread count.
  void SetExecPolicy(const ExecPolicy& exec);
  const ExecPolicy& exec_policy() const { return options_.exec; }

  void AdvanceTo(Tick now);
  Tick now() const { return histogram_.now(); }

  /// Applies one update to both the histogram and the TPR-tree.
  void Apply(const UpdateEvent& update);

  struct QueryResult {
    Region region;        ///< exact dense regions (coalesced)
    CostBreakdown cost;
    int64_t accepted_cells = 0;
    int64_t rejected_cells = 0;
    int64_t candidate_cells = 0;
    /// Objects in each candidate cell's l/2-window, summed over cells
    /// (what per-cell range queries would return; the grouped fetch
    /// touches each object about once).
    int64_t objects_fetched = 0;
    SweepStats sweep;
    double filter_ms = 0.0;  ///< CPU spent in the filtering step
    double refine_ms = 0.0;  ///< CPU spent in refinement (fan-out + merge)
    /// Flight-recorder correlation key for this query's micro-events (0
    /// when the recorder is disabled).
    uint32_t query_id = 0;
  };

  /// Exact snapshot PDR query (Definition 4).
  /// `cold_cache` drops the TPR buffer pool first so the I/O charge
  /// reflects an isolated query (the paper's per-query reporting).
  ///
  /// Throws HorizonError when q_t lies outside [now, now + H]: the
  /// histogram and the index hold per-tick state for the horizon window
  /// only, so answers past it would be silent extrapolation.
  ///
  /// An active `ctl` (deadline and/or cancel token) is checked at entry,
  /// after the filter, before each candidate cluster's range query, before
  /// each candidate cell's sweep, per plane-sweep strip at both sweep
  /// levels, and by ParallelFor runners between cells; a
  /// cancelled query throws CancelledError within one work quantum. The
  /// default (inactive) control leaves the query path bit-identical to
  /// uncontrolled execution.
  QueryResult Query(Tick q_t, double rho, double l, bool cold_cache = false,
                    const QueryControl& ctl = {});

  /// Interval PDR query (Definition 5): union over [q_lo, q_hi]. Both
  /// endpoints must lie inside the horizon (HorizonError otherwise).
  QueryResult QueryInterval(Tick q_lo, Tick q_hi, double rho, double l,
                            const QueryControl& ctl = {});

  /// Filter step alone, timed — the "DH" method of Fig. 8/9. Validates
  /// q_t against the horizon like Query.
  struct DhResult {
    Region region;
    double cpu_ms = 0.0;
    FilterResult filter;
  };
  DhResult DhOnlyQuery(Tick q_t, double rho, double l, bool optimistic);

  const DensityHistogram& histogram() const { return histogram_; }
  ObjectIndex& index() { return *index_; }
  const ObjectIndex& index() const { return *index_; }
  const Options& options() const { return options_; }

  /// Durability: makes the whole engine state (index pages + tree metadata
  /// + histogram + clocks) durable as one atomic checkpoint. No-op when
  /// `storage_dir` is empty. Throws CrashError under fault injection; the
  /// engine must then be discarded (as a killed process would be).
  void Checkpoint();

  /// True when the engine writes durable storage.
  bool durable() const { return index_->durable(); }

  /// True when construction recovered a pre-existing store (queries then
  /// answer exactly as the engine that wrote the last checkpoint did).
  bool recovered() const { return index_->recovered(); }

  // --- MVCC (Options.snapshots non-null) ---------------------------------

  /// Commits the engine's current state as the next epoch of its
  /// SnapshotManager and returns that epoch. Flushes the index's buffer
  /// pool, copies the pages and histogram rows dirtied since the last
  /// commit into their version stores, freezes the scalar state (clock,
  /// index root, read view) and publishes it. Writer thread only; throws
  /// std::logic_error when the engine was built without snapshots.
  uint64_t Commit();

  mvcc::SnapshotManager* snapshots() const { return options_.snapshots; }
  const mvcc::VersionedPager* versioned_pager() const {
    return versioned_pager_.get();
  }
  const mvcc::VersionedHistogram* versioned_histogram() const {
    return vhist_.get();
  }

 private:
  ThreadPool* PoolForQuery();  // null when the policy is serial
  void ValidateQt(Tick q_t) const;  // throws HorizonError

  Options options_;
  DensityHistogram histogram_;
  // Declared before index_: the index's buffer pool writes through this
  // pager, so it must be constructed first and destroyed last.
  std::unique_ptr<mvcc::VersionedPager> versioned_pager_;
  std::unique_ptr<ObjectIndex> index_;
  std::unique_ptr<mvcc::VersionedHistogram> vhist_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily on first parallel query
};

/// The filter + refine + merge body of FrEngine::Query against explicit
/// inputs: a counter slice (live Slice(q_t) or an MVCC materialization)
/// and an index view (the live index or a SnapshotIndexView over frozen
/// pages). Both callers run the exact same code path, which is what makes
/// snapshot answers bit-identical to serialized execution.
FrEngine::QueryResult FrQueryCore(
    const Grid& grid, const std::vector<DensityHistogram::Counter>& slice,
    ObjectIndex& index, ThreadPool* pool, double io_ms, Tick q_t, double rho,
    double l, bool cold_cache, const QueryControl& ctl);

}  // namespace pdr

#endif  // PDR_CORE_FR_ENGINE_H_
