#include "rtree/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "geometry/hilbert.h"

namespace swiftspatial {

namespace {

// Sorts `items` with `cmp`: one wave sorts `chunks` runs, then one wave per
// pass of pairwise in-place merges. Parallel STL execution policies require
// TBB, so we roll a small merge sort on waves. The run bounds depend only on
// `num_threads`, never on the wave's width.
template <typename T, typename Cmp>
void ParallelSort(std::vector<T>* items, std::size_t num_threads, Cmp cmp,
                  const WaveContext& wave) {
  const std::size_t n = items->size();
  if (num_threads <= 1 || n < 1u << 14) {
    std::sort(items->begin(), items->end(), cmp);
    return;
  }
  const std::size_t chunks = std::min(num_threads, n);
  std::vector<std::size_t> cuts(chunks + 1);
  for (std::size_t i = 0; i <= chunks; ++i) cuts[i] = n * i / chunks;
  ParallelFor(
      chunks, num_threads, Schedule::kStatic,
      [&](std::size_t i) {
        std::sort(items->begin() + cuts[i], items->begin() + cuts[i + 1],
                  cmp);
      },
      1, wave);

  // Pairwise in-place merges of runs (2k, 2k+1); log2(chunks) passes.
  while (cuts.size() > 2) {
    const std::size_t merges = (cuts.size() - 1) / 2;
    ParallelFor(
        merges, num_threads, Schedule::kStatic,
        [&](std::size_t k) {
          std::inplace_merge(items->begin() + cuts[2 * k],
                             items->begin() + cuts[2 * k + 1],
                             items->begin() + cuts[2 * k + 2], cmp);
        },
        1, wave);
    std::vector<std::size_t> next_cuts;
    for (std::size_t i = 0; i < cuts.size(); i += 2) {
      next_cuts.push_back(cuts[i]);
    }
    if (cuts.size() % 2 == 0) next_cuts.push_back(cuts.back());
    cuts = std::move(next_cuts);
  }
}

// Packs a sorted run of entries into nodes of at most `max_entries`,
// balancing the last two nodes so no node underflows below half of
// max_entries (keeps m <= count <= M invariants for m = M/2, except when
// fewer than m objects exist in total).
std::vector<PackedRTree::BuildNode> PackRun(
    const std::vector<PackedEntry>& entries, bool is_leaf, int max_entries) {
  std::vector<PackedRTree::BuildNode> nodes;
  const std::size_t n = entries.size();
  const std::size_t m = static_cast<std::size_t>(max_entries);
  if (n == 0) return nodes;
  const std::size_t num_nodes = (n + m - 1) / m;
  nodes.reserve(num_nodes);
  // Distribute as evenly as possible: each node gets n/num_nodes or +1.
  const std::size_t base = n / num_nodes;
  const std::size_t rem = n % num_nodes;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const std::size_t take = base + (i < rem ? 1 : 0);
    PackedRTree::BuildNode node;
    node.is_leaf = is_leaf;
    node.entries.assign(entries.begin() + pos, entries.begin() + pos + take);
    pos += take;
    nodes.push_back(std::move(node));
  }
  SWIFT_CHECK_EQ(pos, n);
  return nodes;
}

// One STR tiling pass: entries -> one level of nodes.
std::vector<PackedRTree::BuildNode> StrTile(std::vector<PackedEntry> entries,
                                            bool is_leaf, int max_entries,
                                            std::size_t num_threads,
                                            const WaveContext& wave) {
  const std::size_t n = entries.size();
  const std::size_t cap = static_cast<std::size_t>(max_entries);
  if (n <= cap) {
    return PackRun(entries, is_leaf, max_entries);
  }
  const std::size_t num_nodes = (n + cap - 1) / cap;
  const std::size_t num_slabs = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_nodes))));
  const std::size_t slab_size = (n + num_slabs - 1) / num_slabs;

  auto by_cx = [](const PackedEntry& a, const PackedEntry& b) {
    const Coord ax = a.box.min_x + a.box.max_x;
    const Coord bx = b.box.min_x + b.box.max_x;
    if (ax != bx) return ax < bx;
    return a.id < b.id;
  };
  auto by_cy = [](const PackedEntry& a, const PackedEntry& b) {
    const Coord ay = a.box.min_y + a.box.max_y;
    const Coord by = b.box.min_y + b.box.max_y;
    if (ay != by) return ay < by;
    return a.id < b.id;
  };

  ParallelSort(&entries, num_threads, by_cx, wave);

  std::vector<PackedRTree::BuildNode> level;
  for (std::size_t slab_begin = 0; slab_begin < n; slab_begin += slab_size) {
    const std::size_t slab_end = std::min(slab_begin + slab_size, n);
    std::vector<PackedEntry> slab(entries.begin() + slab_begin,
                                  entries.begin() + slab_end);
    ParallelSort(&slab, num_threads, by_cy, wave);
    auto nodes = PackRun(slab, is_leaf, max_entries);
    for (auto& node : nodes) level.push_back(std::move(node));
  }
  return level;
}

// Builds directory levels above `level` until a single root remains, using
// `tile` to group one level into the next.
template <typename TileFn>
PackedRTree BuildUp(std::vector<PackedRTree::BuildNode> level, int max_entries,
                    TileFn tile) {
  std::vector<std::vector<PackedRTree::BuildNode>> levels;
  levels.push_back(std::move(level));
  while (levels.back().size() > 1) {
    const auto& below = levels.back();
    std::vector<PackedEntry> parents_entries;
    parents_entries.reserve(below.size());
    for (std::size_t i = 0; i < below.size(); ++i) {
      Box mbr = Box::Empty();
      for (const auto& e : below[i].entries) mbr.Expand(e.box);
      parents_entries.push_back({mbr, static_cast<int32_t>(i)});
    }
    levels.push_back(tile(std::move(parents_entries), /*is_leaf=*/false));
  }
  return PackedRTree::FromLevels(std::move(levels), max_entries);
}

std::vector<PackedEntry> DatasetEntries(const Dataset& dataset) {
  std::vector<PackedEntry> entries;
  entries.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    entries.push_back({dataset.box(i), static_cast<int32_t>(i)});
  }
  return entries;
}

}  // namespace

PackedRTree StrBulkLoad(const Dataset& dataset, const BulkLoadOptions& options,
                        const WaveContext& wave) {
  SWIFT_CHECK_GE(options.max_entries, 2);
  SWIFT_CHECK(!dataset.empty());
  auto tile = [&options, &wave](std::vector<PackedEntry> entries,
                                bool is_leaf) {
    return StrTile(std::move(entries), is_leaf, options.max_entries,
                   options.num_threads, wave);
  };
  auto leaves = tile(DatasetEntries(dataset), /*is_leaf=*/true);
  return BuildUp(std::move(leaves), options.max_entries, tile);
}

PackedRTree HilbertBulkLoad(const Dataset& dataset,
                            const BulkLoadOptions& options) {
  SWIFT_CHECK_GE(options.max_entries, 2);
  SWIFT_CHECK(!dataset.empty());
  const Box extent = dataset.Extent();
  constexpr uint32_t kOrder = 16;  // 65536 x 65536 Hilbert grid
  const double sx =
      extent.Width() > 0 ? ((1u << kOrder) - 1) / static_cast<double>(extent.Width())
                         : 0.0;
  const double sy =
      extent.Height() > 0
          ? ((1u << kOrder) - 1) / static_cast<double>(extent.Height())
          : 0.0;

  struct Keyed {
    uint64_t key;
    PackedEntry entry;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Box& b = dataset.box(i);
    const Point c = b.Center();
    const uint32_t gx =
        static_cast<uint32_t>((static_cast<double>(c.x) - extent.min_x) * sx);
    const uint32_t gy =
        static_cast<uint32_t>((static_cast<double>(c.y) - extent.min_y) * sy);
    keyed.push_back(
        {HilbertD2XYInverse(kOrder, gx, gy), {b, static_cast<int32_t>(i)}});
  }
  ParallelSort(&keyed, options.num_threads,
               [](const Keyed& a, const Keyed& b) {
                 if (a.key != b.key) return a.key < b.key;
                 return a.entry.id < b.entry.id;
               },
               WaveContext{});
  std::vector<PackedEntry> sorted;
  sorted.reserve(keyed.size());
  for (const auto& k : keyed) sorted.push_back(k.entry);

  auto pack = [&options](std::vector<PackedEntry> entries, bool is_leaf) {
    return PackRun(entries, is_leaf, options.max_entries);
  };
  auto leaves = pack(std::move(sorted), /*is_leaf=*/true);
  return BuildUp(std::move(leaves), options.max_entries, pack);
}

}  // namespace swiftspatial
