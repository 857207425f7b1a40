#include "grid/hierarchical_partition.h"

#include <utility>

#include "common/logging.h"
#include "grid/uniform_grid.h"

namespace swiftspatial {

namespace {

// True iff every listed object's MBR contains `tile`.
bool AllContain(const Dataset& d, const std::vector<ObjectId>& ids,
                const Box& tile) {
  for (const ObjectId id : ids) {
    const Box& b = d.box(static_cast<std::size_t>(id));
    if (b.min_x > tile.min_x || b.min_y > tile.min_y ||
        b.max_x < tile.max_x || b.max_y < tile.max_y) {
      return false;
    }
  }
  return true;
}

struct Splitter {
  const Dataset& r;
  const Dataset& s;
  const HierarchicalPartitionOptions& options;
  HierarchicalPartition* out;

  // `last_x` / `last_y` track whether the tile is the globally right-/top-
  // most along its axis; the emitted dedup tile is closed to +inf exactly
  // there (CloseLastTile). Deciding by coordinate comparison against the
  // extent max instead would open EVERY tile whose rounded max edge
  // collides with the extent max -- overlapping half-open ranges that
  // double-claim pairs once multi-assignment places objects in all of them.
  void Emit(TileTask task, int depth, bool last_x, bool last_y) {
    const uint64_t work = static_cast<uint64_t>(task.r_objects.size()) *
                          task.s_objects.size();
    const uint64_t cap2 = static_cast<uint64_t>(options.tile_cap) *
                          static_cast<uint64_t>(options.tile_cap);
    if (task.r_objects.empty() || task.s_objects.empty()) return;
    if (work <= cap2) {
      // The emitted tile is the join's dedup tile; keep the global
      // boundary closed (splitting above used the raw geometry).
      task.tile = CloseLastTile(task.tile, last_x, last_y);
      out->tasks.push_back(std::move(task));
      return;
    }
    // Splitting cannot reduce |R| * |S| when every object on both sides
    // contains the whole tile (coincident clumps, world-spanning boxes):
    // every quarter would inherit both lists whole, down to max_depth.
    if (depth >= options.max_depth ||
        (AllContain(r, task.r_objects, task.tile) &&
         AllContain(s, task.s_objects, task.tile))) {
      ++out->over_cap_tiles;
      task.tile = CloseLastTile(task.tile, last_x, last_y);
      out->tasks.push_back(std::move(task));
      return;
    }
    // Quarter the tile and re-assign its objects. Only the x-high halves of
    // a globally-rightmost tile stay rightmost (ditto y-high / topmost).
    const Point c = task.tile.Center();
    struct Quad {
      Box box;
      bool last_x;
      bool last_y;
    };
    const Quad quads[4] = {
        {Box(task.tile.min_x, task.tile.min_y, c.x, c.y), false, false},
        {Box(c.x, task.tile.min_y, task.tile.max_x, c.y), last_x, false},
        {Box(task.tile.min_x, c.y, c.x, task.tile.max_y), false, last_y},
        {Box(c.x, c.y, task.tile.max_x, task.tile.max_y), last_x, last_y},
    };
    for (const Quad& q : quads) {
      TileTask sub;
      sub.tile = q.box;
      for (ObjectId id : task.r_objects) {
        if (Intersects(r.box(static_cast<std::size_t>(id)), q.box)) {
          sub.r_objects.push_back(id);
        }
      }
      if (sub.r_objects.empty()) continue;
      for (ObjectId id : task.s_objects) {
        if (Intersects(s.box(static_cast<std::size_t>(id)), q.box)) {
          sub.s_objects.push_back(id);
        }
      }
      Emit(std::move(sub), depth + 1, q.last_x, q.last_y);
    }
  }
};

}  // namespace

HierarchicalPartition PartitionHierarchical(
    const Dataset& r, const Dataset& s,
    const HierarchicalPartitionOptions& options) {
  SWIFT_CHECK_GE(options.tile_cap, 1);
  SWIFT_CHECK_GE(options.initial_grid, 1);

  HierarchicalPartition out;
  out.tile_cap = options.tile_cap;
  Box extent = r.Extent();
  extent.Expand(s.Extent());
  if (extent.IsEmpty()) return out;

  const UniformGrid grid(extent, options.initial_grid, options.initial_grid);
  auto r_assign = grid.Assign(r);
  auto s_assign = grid.Assign(s);

  Splitter splitter{r, s, options, &out};
  for (int t = 0; t < grid.num_tiles(); ++t) {
    if (r_assign[t].empty() || s_assign[t].empty()) continue;
    TileTask task;
    task.tile = grid.TileBoxByIndex(t);
    task.r_objects = std::move(r_assign[t]);
    task.s_objects = std::move(s_assign[t]);
    splitter.Emit(std::move(task), 0, grid.IsLastCol(t), grid.IsLastRow(t));
  }
  return out;
}

}  // namespace swiftspatial
