// Uniform grid partitioning (§2.3): objects are assigned to every tile their
// MBR intersects; tile-wise joins then use the reference-point rule to avoid
// duplicate results.
#ifndef SWIFTSPATIAL_GRID_UNIFORM_GRID_H_
#define SWIFTSPATIAL_GRID_UNIFORM_GRID_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// AssignFlat's result, split into one list per tile.
  std::vector<std::vector<ObjectId>> Assign(
      const Dataset& dataset, std::size_t num_threads = 1,
      const WaveContext& wave = {}) const;

  /// The same assignment in one flat array, and its one implementation:
  /// resizes `offsets` to num_tiles() + 1 and `entries` to the total count,
  /// then sets entries[offsets[t] + j] to make(box, id, t) for tile t's
  /// j-th object (ascending id) and its box. Two waves of width
  /// `num_threads` under `wave`: a counting pass per contiguous id range
  /// (min(num_threads, n) ranges) sizes every tile exactly, then a scatter
  /// pass reads each box once more, in id order, and fills the tiles. The
  /// result does not depend on `num_threads` or on the wave's width.
  template <typename Entry, typename Alloc, typename Make>
  void AssignFlat(const Dataset& dataset, std::size_t num_threads,
                  const WaveContext& wave, std::vector<std::size_t>* offsets,
                  std::vector<Entry, Alloc>* entries, const Make& make) const;

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

  /// Calls `visit(tile)` for every tile whose closed box `b` intersects, in
  /// ascending tile index order.
  template <typename Visit>
  void ForEachOverlappedTile(const Box& b, const Visit& visit) const;
};

template <typename Visit>
void UniformGrid::ForEachOverlappedTile(const Box& b,
                                        const Visit& visit) const {
  int tx0, ty0, tx1, ty1;
  TileRange(b, &tx0, &ty0, &tx1, &ty1);
  for (int ty = ty0; ty <= ty1; ++ty) {
    for (int tx = tx0; tx <= tx1; ++tx) {
      // TileRange clamps; re-check true overlap so clamped-out objects are
      // not spuriously assigned to border tiles.
      if (Intersects(b, TileBox(tx, ty))) visit(ty * cols_ + tx);
    }
  }
}

template <typename Entry, typename Alloc, typename Make>
void UniformGrid::AssignFlat(const Dataset& dataset, std::size_t num_threads,
                             const WaveContext& wave,
                             std::vector<std::size_t>* offsets,
                             std::vector<Entry, Alloc>* entries,
                             const Make& make) const {
  const std::size_t n = dataset.size();
  const std::size_t tiles = static_cast<std::size_t>(num_tiles());
  // One contiguous id range per thread. Range k's ids land after range
  // k-1's in every tile, so each tile stays ascending and the result is the
  // same for every thread count.
  const std::size_t ranges =
      std::max<std::size_t>(1, std::min(num_threads, n));
  const auto range_begin = [n, ranges](std::size_t k) {
    return n * k / ranges;
  };
  // slots[k * tiles + t]: first range k's object count in tile t, then its
  // write cursor into `entries`.
  std::vector<std::size_t> slots(ranges * tiles, 0);
  // The one tile each object overlaps, or kRevisit when it overlaps none
  // or several (a few percent on skewed data); only those walk the tile
  // range again when scattering.
  constexpr int kRevisit = -1;
  // Left uninitialised: the counting pass writes every element, so the
  // range that owns a page touches it first.
  const auto single_tile = std::make_unique_for_overwrite<int[]>(n);

  ParallelFor(ranges, ranges, Schedule::kStatic, [&](std::size_t k) {
    std::size_t* const count = slots.data() + k * tiles;
    for (std::size_t i = range_begin(k); i < range_begin(k + 1); ++i) {
      int hits = 0;
      int last = kRevisit;
      ForEachOverlappedTile(dataset.box(i), [&](int t) {
        ++count[t];
        ++hits;
        last = t;
      });
      single_tile[i] = hits == 1 ? last : kRevisit;
    }
  }, 1, wave);

  offsets->assign(tiles + 1, 0);
  std::size_t total = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    (*offsets)[t] = total;
    for (std::size_t k = 0; k < ranges; ++k) {
      const std::size_t count = slots[k * tiles + t];
      slots[k * tiles + t] = total;
      total += count;
    }
  }
  (*offsets)[tiles] = total;
  entries->resize(total);

  ParallelFor(ranges, ranges, Schedule::kStatic, [&](std::size_t k) {
    std::size_t* const cursor = slots.data() + k * tiles;
    Entry* const out = entries->data();
    for (std::size_t i = range_begin(k); i < range_begin(k + 1); ++i) {
      const auto id = static_cast<ObjectId>(i);
      const Box& b = dataset.box(i);
      if (single_tile[i] != kRevisit) {
        const int t = single_tile[i];
        out[cursor[t]++] = make(b, id, t);
      } else {
        ForEachOverlappedTile(
            b, [&](int t) { out[cursor[t]++] = make(b, id, t); });
      }
    }
  }, 1, wave);
}

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GRID_UNIFORM_GRID_H_
