// cuSpatial-like join (§5.1): the GPU library's algorithmic structure ported
// to CPU threads, since no GPU is available here (DESIGN.md substitution
// table). Structure preserved from cuSpatial:
//
//  * only the *point* dataset is indexed, with a quadtree (leaf size 128);
//  * polygons act as batched window queries (batch cap 20,000 -- the largest
//    batch the paper could run without GPU memory over-allocation);
//  * each batch runs two passes, first counting results per polygon to size
//    the output buffer, then writing pairs (GPUs cannot grow buffers
//    mid-kernel, §6 "Memory management").
//
// The within/intersects check at the MBR-filter level reduces to
// point-in-box tests against each polygon's MBR.
#ifndef SWIFTSPATIAL_JOIN_CUSPATIAL_LIKE_H_
#define SWIFTSPATIAL_JOIN_CUSPATIAL_LIKE_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "join/result.h"

namespace swiftspatial {

struct CuSpatialLikeOptions {
  int quadtree_leaf_capacity = 128;  ///< tuned value from the paper
  std::size_t batch_size = 20000;    ///< polygon batch cap from the paper
  std::size_t num_threads = 1;       ///< thread-block analogue
};

/// Point-in-polygon-MBR join. Result pairs are (point id, polygon id):
/// `r` must be the point dataset, `s` the polygon (rectangle) dataset.
/// Both passes of every batch run as waves of width `num_threads` under
/// `wave`.
JoinResult CuSpatialLikeJoin(const Dataset& points, const Dataset& polygons,
                             const CuSpatialLikeOptions& options,
                             JoinStats* stats = nullptr,
                             const WaveContext& wave = {});

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_CUSPATIAL_LIKE_H_
