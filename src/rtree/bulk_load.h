// R-tree bulk loading (§2.2, §5.9):
//  * Sort-Tile-Recursive (STR, Leutenegger et al. [48]) -- what the paper's
//    index-construction experiment (Table 2) implements, with a parallel
//    sort.
//  * Hilbert packing (Kamel & Faloutsos [41]) -- sorts objects by the
//    Hilbert value of their MBR center and packs sequential runs.
//
// Both produce a PackedRTree, the flat layout consumed by the CPU join
// baselines and the simulated accelerator alike.
#ifndef SWIFTSPATIAL_RTREE_BULK_LOAD_H_
#define SWIFTSPATIAL_RTREE_BULK_LOAD_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

struct BulkLoadOptions {
  /// Maximum entries per node (paper default 16, §5.2).
  int max_entries = 16;
  /// Width of the sort phases' waves.
  std::size_t num_threads = 1;
};

/// Bulk-loads `dataset` with Sort-Tile-Recursive. The same tiling is applied
/// recursively at each directory level. The sorts run as waves under
/// `wave`; the tree is the same for every thread count.
PackedRTree StrBulkLoad(const Dataset& dataset, const BulkLoadOptions& options,
                        const WaveContext& wave = {});

/// Bulk-loads `dataset` by Hilbert-curve ordering of MBR centers.
PackedRTree HilbertBulkLoad(const Dataset& dataset,
                            const BulkLoadOptions& options);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_RTREE_BULK_LOAD_H_
