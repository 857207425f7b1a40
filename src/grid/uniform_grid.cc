#include "grid/uniform_grid.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace swiftspatial {

namespace {

// Snaps an estimated inclusive cell range [*p0, *p1] along one axis
// (pre-seeded with the clamped double-arithmetic estimates, both in
// [0, n-1]) to the actual rounded edges. The estimates divide in double,
// but the cells (which double as reference-point dedup tiles) carry
// Coord-rounded edges: when a boundary is not float-representable the
// rounded edge can sit to either side of the double value -- and far from
// the origin runs of MANY consecutive boundaries collapse onto one float,
// putting the owning cell arbitrarily far from the estimate, so a fixed
// widening is not enough. Objects must be assigned to every cell whose
// closed rounded-edge interval touches theirs, or the dedup rule claims
// pairs for cells that never saw them and results are silently dropped.
// On return, [*p0, *p1] covers exactly the cells k whose closed interval
// [edges[k], edges[k+1]] intersects [bmin, bmax] (edges non-decreasing,
// edges[k] the min edge of cell k and the max edge of cell k-1). Each loop
// runs once for ULP-sized disagreements and walks through runs of collapsed
// (equal) edges.
void SnapIndexRangeToEdges(Coord bmin, Coord bmax, int n,
                           const std::vector<Coord>& edges, int* p0,
                           int* p1) {
  while (*p0 > 0 && edges[*p0] >= bmin) --*p0;
  while (*p0 < n - 1 && edges[*p0 + 1] < bmin) ++*p0;
  while (*p1 < n - 1 && edges[*p1 + 1] <= bmax) ++*p1;
  while (*p1 > 0 && edges[*p1] > bmax) --*p1;
}

}  // namespace

UniformGrid::UniformGrid(const Box& extent, int cols, int rows)
    : extent_(extent), cols_(cols), rows_(rows) {
  SWIFT_CHECK_GE(cols, 1);
  SWIFT_CHECK_GE(rows, 1);
  SWIFT_CHECK(!extent.IsEmpty());
  tile_w_ = static_cast<double>(extent.Width()) / cols;
  tile_h_ = static_cast<double>(extent.Height()) / rows;
  // Line k of n sits at min + k * step, computed in double and rounded
  // once; lines 0 and n are the extent's own edges.
  const auto edges = [](Coord min, Coord max, double step, int n) {
    std::vector<Coord> e(static_cast<std::size_t>(n) + 1);
    for (int k = 1; k < n; ++k) e[k] = static_cast<Coord>(min + k * step);
    e[0] = min;
    e[n] = max;
    return e;
  };
  col_edges_ = edges(extent_.min_x, extent_.max_x, tile_w_, cols);
  row_edges_ = edges(extent_.min_y, extent_.max_y, tile_h_, rows);
}

Box UniformGrid::TileBox(int tx, int ty) const {
  SWIFT_DCHECK(tx >= 0 && tx < cols_ && ty >= 0 && ty < rows_);
  return Box(col_edges_[tx], row_edges_[ty], col_edges_[tx + 1],
             row_edges_[ty + 1]);
}

void UniformGrid::TileRange(const Box& b, int* tx0, int* ty0, int* tx1,
                            int* ty1) const {
  auto clamp_col = [this](double v) {
    return std::clamp(static_cast<int>(v), 0, cols_ - 1);
  };
  auto clamp_row = [this](double v) {
    return std::clamp(static_cast<int>(v), 0, rows_ - 1);
  };
  // A zero-width axis collapses every tile onto the same line; the single
  // LAST tile is used by convention, matching CloseLastTile (only the last
  // tile's half-open dedup range is non-empty there).
  *tx0 = tile_w_ > 0 ? clamp_col((b.min_x - extent_.min_x) / tile_w_)
                     : cols_ - 1;
  *tx1 = tile_w_ > 0 ? clamp_col((b.max_x - extent_.min_x) / tile_w_)
                     : cols_ - 1;
  *ty0 = tile_h_ > 0 ? clamp_row((b.min_y - extent_.min_y) / tile_h_)
                     : rows_ - 1;
  *ty1 = tile_h_ > 0 ? clamp_row((b.max_y - extent_.min_y) / tile_h_)
                     : rows_ - 1;

  // The estimates above divide in double, but tiles report float-rounded
  // edges: snap each bound to the actual edges so the range covers every
  // tile whose closed box touches `b`. Degenerate extents (tile width 0)
  // keep the single-last-column convention.
  if (tile_w_ > 0) {
    SnapIndexRangeToEdges(b.min_x, b.max_x, cols_, col_edges_, tx0, tx1);
  }
  if (tile_h_ > 0) {
    SnapIndexRangeToEdges(b.min_y, b.max_y, rows_, row_edges_, ty0, ty1);
  }
}

std::vector<std::vector<ObjectId>> UniformGrid::Assign(
    const Dataset& dataset, std::size_t num_threads,
    const WaveContext& wave) const {
  std::vector<std::size_t> offsets;
  std::vector<ObjectId> flat;
  AssignFlat(dataset, num_threads, wave, &offsets, &flat,
             [](const Box&, ObjectId id, int) { return id; });
  std::vector<std::vector<ObjectId>> assignment(offsets.size() - 1);
  for (std::size_t t = 0; t < assignment.size(); ++t) {
    assignment[t].assign(
        flat.begin() + static_cast<std::ptrdiff_t>(offsets[t]),
        flat.begin() + static_cast<std::ptrdiff_t>(offsets[t + 1]));
  }
  return assignment;
}

}  // namespace swiftspatial
