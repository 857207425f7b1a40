// Umbrella header: the SwiftSpatial public API in one include.
//
//   #include "swiftspatial/swiftspatial.h"
//
// Typical flow (see examples/quickstart.cpp):
//   Dataset           -- datagen/: generate, or load from CSV / binary
//   PackedRTree       -- rtree/: STR/Hilbert bulk load, or RTree::Pack()
//   join algorithms   -- join/: every algorithm behind the JoinEngine
//                        registry (RunJoin("pbsm", r, s, config), ...)
//   exec::RunJoinAsync-- exec/: streaming execution + the JoinService
//   dist::DistributedJoin -- dist/: the simulated multi-node cluster
//   hw::Accelerator   -- hw/: the simulated SwiftSpatial device
//   Refine            -- refine/: exact-geometry verification
#ifndef SWIFTSPATIAL_SWIFTSPATIAL_H_
#define SWIFTSPATIAL_SWIFTSPATIAL_H_

#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

#include "geometry/box.h"
#include "geometry/box_block.h"
#include "geometry/hilbert.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

#include "datagen/csv_io.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"

#include "rtree/bulk_load.h"
#include "rtree/packed_rtree.h"
#include "rtree/rtree.h"
#include "rtree/stats.h"

#include "quadtree/point_quadtree.h"

#include "grid/hierarchical_partition.h"
#include "grid/uniform_grid.h"

#include "join/accel_engine.h"
#include "join/cuspatial_like.h"
#include "join/engine.h"
#include "join/engine_baselines.h"
#include "join/nested_loop.h"
#include "join/parallel_sync_traversal.h"
#include "join/partitioned_driver.h"
#include "join/plane_sweep.h"
#include "join/predicates.h"
#include "join/result.h"
#include "join/simd_filter.h"
#include "join/sync_traversal.h"
#include "join/tile_join.h"

#include "exec/service.h"
#include "exec/streaming.h"
#include "exec/cancellation.h"

#include "dist/dist_engine.h"
#include "dist/dist_join.h"
#include "dist/exchange.h"
#include "dist/shard_planner.h"

#include "refine/refinement.h"

#include "hw/accelerator.h"
#include "hw/multi_device.h"
#include "hw/power_model.h"
#include "hw/resource_model.h"

#include "faas/service.h"

#endif  // SWIFTSPATIAL_SWIFTSPATIAL_H_
