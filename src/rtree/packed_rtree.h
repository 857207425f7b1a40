// PackedRTree: an R-tree serialised into the flat, physically-addressed node
// layout the SwiftSpatial accelerator reads from DRAM (§3.5-3.6).
//
// Layout (little-endian), one structure-of-arrays image per node:
//   node i occupies bytes [i * node_stride, (i+1) * node_stride)
//   node header (8 bytes): uint16 count | uint8 is_leaf | 1 byte padding |
//     uint16 capacity | 2 bytes padding
//   followed by five arrays of `capacity` 4-byte slots each:
//     float32 min_x[capacity] | min_y[capacity] | max_x[capacity] |
//     max_y[capacity] | int32 id[capacity]
//   Array k starts at byte 8 + 4 * k * capacity; slots past `count` are
//   zero. `id` is an object id in leaf nodes and a child node index in
//   directory nodes. `capacity` is the fan-out the image was written for
//   (a tree's max_entries), so the header alone locates the arrays.
//   node_stride is 8 + 20 * capacity rounded up to 64 bytes (one DDR4
//   burst).
//
// Both the CPU join baselines and the simulated accelerator read this same
// byte image, so algorithm comparisons are apples-to-apples. The CPU reads
// it in place: a node's coordinate arrays go straight to the vector compare
// (FilterSoAShort), with no per-node transpose.
#ifndef SWIFTSPATIAL_RTREE_PACKED_RTREE_H_
#define SWIFTSPATIAL_RTREE_PACKED_RTREE_H_

#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "datagen/dataset.h"
#include "geometry/box.h"

namespace swiftspatial {

/// One node entry: an MBR plus an object id (leaf) or child index
/// (directory). The value type of tree construction and of the device
/// model's fetched nodes; in DRAM a node stores its entries as arrays (see
/// the file comment), written only by PackedRTree::WriteNode.
struct PackedEntry {
  Box box;
  int32_t id = 0;
};

/// Node index within a PackedRTree.
using NodeIndex = int32_t;

class PackedRTree;

/// Read-only view over one packed node image. Cheap to copy; borrows the
/// image. The arrays are read in place, so the image must be 4-byte
/// aligned (a tree's and a device region's are: their buffers are heap
/// allocations and every stride is a multiple of 64).
class NodeView {
 public:
  /// Views the node image at `base`; its header gives the capacity.
  explicit NodeView(const uint8_t* base);

  uint16_t count() const;
  bool is_leaf() const;
  /// The entries' coordinates and ids, count() valid slots each.
  const Coord* min_x() const { return Array<Coord>(0); }
  const Coord* min_y() const { return Array<Coord>(1); }
  const Coord* max_x() const { return Array<Coord>(2); }
  const Coord* max_y() const { return Array<Coord>(3); }
  const int32_t* ids() const { return Array<int32_t>(4); }
  /// Entry i (i < count()), gathered from the arrays.
  PackedEntry entry(int i) const;
  /// Union MBR of all entries.
  Box Mbr() const;

 private:
  friend class PackedRTree;
  static std::size_t ArrayOffset(int array, std::size_t capacity) {
    return 8 + 4 * static_cast<std::size_t>(array) * capacity;
  }
  // WriteNode's memcpy implicitly created the arrays' float and int32
  // objects in the byte buffer (as does any memcpy of an image), so the
  // laundered pointer reads them without an aliasing violation.
  template <typename T>
  const T* Array(int array) const {
    static_assert(sizeof(T) == 4);
    return std::launder(
        reinterpret_cast<const T*>(base_ + ArrayOffset(array, capacity_)));
  }

  const uint8_t* base_;
  std::size_t capacity_;
};

/// Immutable packed R-tree (see file comment for the byte layout).
class PackedRTree {
 public:
  /// Node specification used during construction.
  struct BuildNode {
    bool is_leaf = true;
    std::vector<PackedEntry> entries;
  };

  /// Builds from levels ordered leaf-level first; `levels.back()` must hold
  /// exactly the root. Directory entries reference children by their index
  /// within the next-lower level; FromLevels rewrites them into global node
  /// indices.
  static PackedRTree FromLevels(std::vector<std::vector<BuildNode>> levels,
                                int max_entries);

  int max_entries() const { return max_entries_; }
  int height() const { return height_; }  ///< Levels; 1 = root is a leaf.
  NodeIndex root() const { return root_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_leaves() const { return num_leaves_; }
  std::size_t num_objects() const { return num_objects_; }
  std::size_t node_stride() const { return node_stride_; }

  /// Raw DRAM image (num_nodes * node_stride bytes).
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  NodeView node(NodeIndex i) const {
    SWIFT_DCHECK(i >= 0 && static_cast<std::size_t>(i) < num_nodes_);
    return NodeView(bytes_.data() + NodeOffset(i));
  }

  /// Byte offset of node i within the image (the accelerator's node
  /// address, relative to the tree's base address).
  std::size_t NodeOffset(NodeIndex i) const {
    return static_cast<std::size_t>(i) * node_stride_;
  }

  /// All object ids whose MBR intersects `window`, depth-first in entry
  /// order. `nodes_visited`, when non-null, receives the number of nodes
  /// read (the classic node-access cost of a query).
  std::vector<ObjectId> WindowQuery(const Box& window,
                                    std::size_t* nodes_visited = nullptr) const;

  /// Structural invariant check: entry counts within bounds, uniform leaf
  /// depth, directory MBRs containing child MBRs, every node reachable
  /// exactly once.
  Status Validate() const;

  /// Total number of objects referenced by leaves (recomputed).
  std::size_t CountObjects() const;

  /// Largest fan-out: the header holds count and capacity as uint16.
  static constexpr int kMaxEntries = 0xFFFF;

  /// Node stride in bytes for a given fan-out (shared with MemoryLayout).
  static std::size_t StrideFor(int max_entries) {
    const std::size_t raw = 8 + 20 * static_cast<std::size_t>(max_entries);
    return (raw + 63) / 64 * 64;
  }

  /// Writes one node image of fan-out `capacity` at `base` (StrideFor(
  /// capacity) zeroed bytes): the header, then the entries' coordinates
  /// and ids into the arrays. The one writer of the layout: the tree, the
  /// device's tile blocks and hand-made test images all go through it.
  static void WriteNode(uint8_t* base, int capacity, bool is_leaf,
                        std::span<const PackedEntry> entries);

 private:
  PackedRTree() = default;

  int max_entries_ = 0;
  int height_ = 0;
  NodeIndex root_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_leaves_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t node_stride_ = 0;
  std::vector<uint8_t> bytes_;
};

inline NodeView::NodeView(const uint8_t* base) : base_(base) {
  SWIFT_DCHECK(reinterpret_cast<uintptr_t>(base) % 4 == 0);
  uint16_t capacity;
  std::memcpy(&capacity, base + 4, sizeof(capacity));
  capacity_ = capacity;
}

inline uint16_t NodeView::count() const {
  uint16_t v;
  std::memcpy(&v, base_, sizeof(v));
  return v;
}

inline bool NodeView::is_leaf() const { return base_[2] != 0; }

inline PackedEntry NodeView::entry(int i) const {
  return {Box(min_x()[i], min_y()[i], max_x()[i], max_y()[i]), ids()[i]};
}

inline Box NodeView::Mbr() const {
  Box out = Box::Empty();
  const int n = count();
  for (int i = 0; i < n; ++i) out.Expand(entry(i).box);
  return out;
}

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_RTREE_PACKED_RTREE_H_
