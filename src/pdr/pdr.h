// Umbrella header: the full public API of the PDR library.
//
// Quick start:
//
//   #include "pdr/pdr.h"
//
//   pdr::WorkloadConfig wl;
//   wl.num_objects = 10000;
//   pdr::Dataset ds = pdr::GenerateDataset(wl.WithExtent(1000.0), 60);
//
//   pdr::FrEngine fr({.extent = 1000.0, .histogram_side = 100,
//                     .horizon = 120, .buffer_pages = 128});
//   pdr::ReplayInto(ds, /*upto=*/-1, &fr);
//
//   auto answer = fr.Query(/*q_t=*/70, /*rho=*/0.01, /*l=*/30.0);
//   for (const pdr::Rect& r : answer.region.rects()) { ... }
//
// See README.md for the architecture overview and examples/ for complete
// programs.

#ifndef PDR_PDR_H_
#define PDR_PDR_H_

#include "pdr/baseline/dense_cell.h"
#include "pdr/baseline/edq.h"
#include "pdr/bx/bplus_tree.h"
#include "pdr/bx/bx_tree.h"
#include "pdr/bx/zcurve.h"
#include "pdr/cheb/cheb2d.h"
#include "pdr/cheb/cheb_grid.h"
#include "pdr/cheb/chebyshev.h"
#include "pdr/cheb/contour.h"
#include "pdr/common/errors.h"
#include "pdr/common/geometry.h"
#include "pdr/common/random.h"
#include "pdr/common/region.h"
#include "pdr/common/stats.h"
#include "pdr/core/explorer.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/metrics.h"
#include "pdr/core/monitor.h"
#include "pdr/core/oracle.h"
#include "pdr/core/pa_engine.h"
#include "pdr/core/paper_config.h"
#include "pdr/core/simulation.h"
#include "pdr/fft/fft_engine.h"
#include "pdr/fft/raster.h"
#include "pdr/histogram/density_histogram.h"
#include "pdr/histogram/filter.h"
#include "pdr/index/object_index.h"
#include "pdr/mobility/generator.h"
#include "pdr/mobility/object.h"
#include "pdr/mobility/road_network.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/snapshot_query.h"
#include "pdr/mvcc/version_store.h"
#include "pdr/obs/audit.h"
#include "pdr/obs/clock.h"
#include "pdr/obs/explain.h"
#include "pdr/obs/export.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/obs/report.h"
#include "pdr/obs/slo.h"
#include "pdr/obs/workload_log.h"
#include "pdr/replay/replayer.h"
#include "pdr/resilience/admission.h"
#include "pdr/resilience/deadline.h"
#include "pdr/resilience/executor.h"
#include "pdr/storage/disk_pager.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/fsck.h"
#include "pdr/storage/page_format.h"
#include "pdr/storage/wal.h"
#include "pdr/sweep/plane_sweep.h"
#include "pdr/tpr/tpr_tree.h"

#endif  // PDR_PDR_H_
