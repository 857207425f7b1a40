// Uniform grid partitioning (§2.3): objects are assigned to every tile their
// MBR intersects; tile-wise joins then use the reference-point rule to avoid
// duplicate results.
#ifndef SWIFTSPATIAL_GRID_UNIFORM_GRID_H_
#define SWIFTSPATIAL_GRID_UNIFORM_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "geometry/box.h"

namespace swiftspatial {

/// A cols x rows uniform grid over an extent.
class UniformGrid {
 public:
  UniformGrid(const Box& extent, int cols, int rows);

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int num_tiles() const { return cols_ * rows_; }
  const Box& extent() const { return extent_; }

  /// Geometric bounds of tile (tx, ty).
  Box TileBox(int tx, int ty) const;
  Box TileBoxByIndex(int tile) const {
    return TileBox(tile % cols_, tile / cols_);
  }

  /// True iff the tile index lies in the last column / last row.
  bool IsLastCol(int tile) const { return tile % cols_ == cols_ - 1; }
  bool IsLastRow(int tile) const { return tile / cols_ == rows_ - 1; }

  /// Reference-point dedup tile for a tile index: TileBoxByIndex with the
  /// global boundary closed (CloseLastTile pushes the last column's /
  /// row's max edge to +inf). The one place the index-to-boundary-flag
  /// convention lives -- every grid-based partitioner must claim pairs
  /// through this tile, or reference points on the extent max are dropped.
  Box DedupTileByIndex(int tile) const {
    return CloseLastTile(TileBoxByIndex(tile), IsLastCol(tile),
                         IsLastRow(tile));
  }

  /// Inclusive ranges of tiles whose (closed) boxes a box overlaps. Exact
  /// with respect to the float-rounded tile edges TileBox reports: the
  /// double-arithmetic index estimate is snapped to the actual edges, so an
  /// object sitting exactly on a rounded edge lands in both adjacent tiles
  /// -- the reference-point dedup rule relies on this agreement.
  void TileRange(const Box& b, int* tx0, int* ty0, int* tx1, int* ty1) const;

  /// Per-tile object id lists: assignment[tile] holds, in ascending id
  /// order, every object whose MBR intersects the tile's closed box
  /// (multi-assignment; objects clamped outside the extent land nowhere).
  /// Two waves of width `num_threads` under `wave`: a counting pass per
  /// contiguous id range (min(num_threads, n) ranges) sizes every list
  /// exactly, then a scatter pass fills them. The result does not depend on
  /// `num_threads` or on the wave's width.
  std::vector<std::vector<ObjectId>> Assign(
      const Dataset& dataset, std::size_t num_threads = 1,
      const WaveContext& wave = {}) const;

 private:
  Box extent_;
  int cols_;
  int rows_;
  double tile_w_;
  double tile_h_;
  /// col_edges_[k] (k in 0..cols) is the x coordinate of vertical grid line
  /// k: the max edge of column k-1 and the min edge of column k, rounded to
  /// Coord once here. TileBox, TileRange and the dedup tiles all read these
  /// edges, so they agree bit for bit. row_edges_ is the same along y.
  std::vector<Coord> col_edges_;
  std::vector<Coord> row_edges_;
};

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GRID_UNIFORM_GRID_H_
