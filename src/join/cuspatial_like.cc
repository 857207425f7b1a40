#include "join/cuspatial_like.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "quadtree/point_quadtree.h"

namespace swiftspatial {

JoinResult CuSpatialLikeJoin(const Dataset& points, const Dataset& polygons,
                             const CuSpatialLikeOptions& options,
                             JoinStats* stats, const WaveContext& wave) {
  QuadtreeOptions qt;
  qt.leaf_capacity = options.quadtree_leaf_capacity;
  const PointQuadtree index = PointQuadtree::Build(points, qt);

  const std::size_t threads = std::max<std::size_t>(1, options.num_threads);
  const std::size_t batch = std::max<std::size_t>(1, options.batch_size);

  JoinResult out;
  uint64_t evals = 0;

  for (std::size_t begin = 0; begin < polygons.size(); begin += batch) {
    const std::size_t end = std::min(begin + batch, polygons.size());
    const std::size_t n = end - begin;

    // Pass 1: count matches per polygon so the output buffer can be sized
    // up front (the GPU's fixed-allocation constraint).
    std::vector<uint32_t> counts(n, 0);
    ParallelFor(
        n, threads, Schedule::kStatic,
        [&](std::size_t i) {
          uint32_t c = 0;
          index.ForEachInWindow(polygons.box(begin + i),
                                [&c](ObjectId, const Point&) { ++c; });
          counts[i] = c;
        },
        /*chunk=*/64, wave);

    // Exclusive prefix sum = per-polygon write offsets.
    std::vector<uint64_t> offsets(n + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);
    const uint64_t total = offsets[n];

    // Pass 2: re-run the same queries, writing into the reserved slots.
    std::vector<ResultPair> buffer(total);
    ParallelFor(
        n, threads, Schedule::kStatic,
        [&](std::size_t i) {
          uint64_t w = offsets[i];
          const ObjectId poly_id = static_cast<ObjectId>(begin + i);
          index.ForEachInWindow(polygons.box(begin + i),
                                [&](ObjectId point_id, const Point&) {
                                  buffer[w++] = {point_id, poly_id};
                                });
        },
        /*chunk=*/64, wave);

    out.mutable_pairs().insert(out.mutable_pairs().end(), buffer.begin(),
                               buffer.end());
    // Both passes traverse the index; count each window evaluation.
    evals += 2ULL * total;
  }

  if (stats != nullptr) {
    stats->predicate_evaluations += evals;
    stats->tasks += (polygons.size() + batch - 1) / batch;
  }
  return out;
}

}  // namespace swiftspatial
