// The exact engine's scalar state frozen into an MVCC commit.
//
// FrEngine::Commit() publishes copy-on-write versions of the bulk data
// (index pages, histogram rows) *and* one immutable struct of everything
// else a query reads: the logical clock, the index root, and the B^x
// read-path parameters. The SnapshotManager carries it as an opaque
// shared_ptr (mvcc::Snapshot::state()); the snapshot query path
// (src/pdr/mvcc/snapshot_query.h) casts back here.

#ifndef PDR_CORE_FR_SNAPSHOT_STATE_H_
#define PDR_CORE_FR_SNAPSHOT_STATE_H_

#include <cstdint>

#include "pdr/bx/bx_tree.h"
#include "pdr/core/fr_engine.h"
#include "pdr/storage/pager.h"

namespace pdr {

/// Everything FrEngine's read path consumes besides versioned blocks,
/// frozen at commit time by FrEngine::Commit().
struct FrSnapshotState {
  Tick now = 0;                      ///< engine clock at commit
  IndexKind index = IndexKind::kTprTree;
  PageId tpr_root = kInvalidPageId;  ///< valid when index == kTprTree
  BxTree::ReadView bx;               ///< valid when index == kBxTree
  uint64_t size = 0;                 ///< objects indexed at commit
  int height = 0;                    ///< index root-to-leaf levels at commit
};

}  // namespace pdr

#endif  // PDR_CORE_FR_SNAPSHOT_STATE_H_
