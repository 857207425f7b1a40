#include "rtree/packed_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "rtree/bulk_load.h"
#include "common/rng.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

// Builds a tiny two-level tree by hand: 2 leaves under 1 root.
PackedRTree HandBuilt() {
  std::vector<std::vector<PackedRTree::BuildNode>> levels(2);
  PackedRTree::BuildNode leaf0;
  leaf0.is_leaf = true;
  leaf0.entries = {{Box(0, 0, 1, 1), 10}, {Box(2, 2, 3, 3), 11}};
  PackedRTree::BuildNode leaf1;
  leaf1.is_leaf = true;
  leaf1.entries = {{Box(5, 5, 6, 6), 12}};
  levels[0] = {leaf0, leaf1};
  PackedRTree::BuildNode root;
  root.is_leaf = false;
  root.entries = {{Box(0, 0, 3, 3), 0}, {Box(5, 5, 6, 6), 1}};
  levels[1] = {root};
  return PackedRTree::FromLevels(std::move(levels), 4);
}

TEST(PackedRTree, StrideIs64ByteAligned) {
  EXPECT_EQ(PackedRTree::StrideFor(2), 64u);   // 8 + 40 -> 64
  EXPECT_EQ(PackedRTree::StrideFor(16), 384u); // 8 + 320 -> 384
  EXPECT_EQ(PackedRTree::StrideFor(8), 192u);  // 8 + 160 -> 192
  EXPECT_EQ(PackedRTree::StrideFor(3) % 64, 0u);
}

// Reads the little-endian 4-byte value at `offset` of `bytes`.
template <typename T>
T At(const std::vector<uint8_t>& bytes, std::size_t offset) {
  static_assert(sizeof(T) == 4);
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// Pins the node byte image at a fan-out that is not a lane multiple (5):
// the header, then min_x, min_y, max_x, max_y and id arrays of five 4-byte
// slots each, at byte offsets 8, 28, 48, 68 and 88; an under-full node
// leaves its unused slots and the stride's tail zero. Both nodes of a tree
// sit one 128-byte stride apart, and the reader's arrays are these bytes.
TEST(PackedRTree, NodeImageLayout) {
  constexpr int kFanout = 5;
  std::vector<std::vector<PackedRTree::BuildNode>> levels(2);
  PackedRTree::BuildNode leaf;
  leaf.is_leaf = true;
  leaf.entries = {{Box(1, 2, 3, 4), 70}, {Box(-5, -6, 7, 8), 71},
                  {Box(0.5f, 0.25f, 9, 10), 72}};
  levels[0] = {leaf};
  PackedRTree::BuildNode root;
  root.is_leaf = false;
  root.entries = {{Box(-5, -6, 9, 10), 0}};
  levels[1] = {root};
  const PackedRTree t = PackedRTree::FromLevels(std::move(levels), kFanout);
  ASSERT_EQ(t.node_stride(), 128u);  // 8 + 20 * 5 = 108 -> 128
  const std::vector<uint8_t>& bytes = t.bytes();
  ASSERT_EQ(bytes.size(), 2 * 128u);

  // Leaf (node 0): header count 3 | leaf 1 | pad | capacity 5 | pad.
  const uint8_t header[8] = {3, 0, 1, 0, kFanout, 0, 0, 0};
  EXPECT_TRUE(std::equal(header, header + 8, bytes.begin()));
  for (std::size_t e = 0; e < leaf.entries.size(); ++e) {
    const Box& b = leaf.entries[e].box;
    EXPECT_EQ(At<float>(bytes, 8 + 4 * e), b.min_x) << e;
    EXPECT_EQ(At<float>(bytes, 28 + 4 * e), b.min_y) << e;
    EXPECT_EQ(At<float>(bytes, 48 + 4 * e), b.max_x) << e;
    EXPECT_EQ(At<float>(bytes, 68 + 4 * e), b.max_y) << e;
    EXPECT_EQ(At<int32_t>(bytes, 88 + 4 * e), leaf.entries[e].id) << e;
  }
  // Unused slots 3 and 4 of every array, and the padding to the stride.
  for (std::size_t array = 0; array < 5; ++array) {
    for (std::size_t e = 3; e < 5; ++e) {
      EXPECT_EQ(At<int32_t>(bytes, 8 + 20 * array + 4 * e), 0)
          << array << "," << e;
    }
  }
  EXPECT_TRUE(std::all_of(bytes.begin() + 108, bytes.begin() + 128,
                          [](uint8_t b) { return b == 0; }));

  // Root (node 1, one stride on): directory, child id rewritten to node 0.
  const uint8_t root_header[8] = {1, 0, 0, 0, kFanout, 0, 0, 0};
  EXPECT_TRUE(std::equal(root_header, root_header + 8, bytes.begin() + 128));
  EXPECT_EQ(At<float>(bytes, 128 + 8), -5.0f);
  EXPECT_EQ(At<float>(bytes, 128 + 68), 10.0f);
  EXPECT_EQ(At<int32_t>(bytes, 128 + 88), 0);

  // The view reads those very bytes.
  const NodeView nv = t.node(0);
  const uint8_t* base = bytes.data();
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(nv.min_x()), base + 8);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(nv.min_y()), base + 28);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(nv.max_x()), base + 48);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(nv.max_y()), base + 68);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(nv.ids()), base + 88);
  EXPECT_EQ(nv.count(), 3);
  EXPECT_TRUE(nv.is_leaf());
  EXPECT_EQ(nv.entry(2).box, Box(0.5f, 0.25f, 9, 10));
  EXPECT_EQ(nv.Mbr(), Box(-5, -6, 9, 10));
}

TEST(PackedRTree, HandBuiltStructure) {
  const PackedRTree t = HandBuilt();
  EXPECT_EQ(t.height(), 2);
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.num_leaves(), 2u);
  EXPECT_EQ(t.num_objects(), 3u);
  EXPECT_EQ(t.root(), 2);  // leaves first, root last

  const NodeView root = t.node(t.root());
  EXPECT_FALSE(root.is_leaf());
  EXPECT_EQ(root.count(), 2);
  // Child references rewritten to global indices.
  EXPECT_EQ(root.entry(0).id, 0);
  EXPECT_EQ(root.entry(1).id, 1);

  const NodeView leaf = t.node(0);
  EXPECT_TRUE(leaf.is_leaf());
  EXPECT_EQ(leaf.entry(1).id, 11);
  EXPECT_EQ(leaf.Mbr(), Box(0, 0, 3, 3));
}

TEST(PackedRTree, HandBuiltValidates) {
  EXPECT_TRUE(HandBuilt().Validate().ok());
}

TEST(PackedRTree, WindowQueryHandBuilt) {
  const PackedRTree t = HandBuilt();
  auto hits = t.WindowQuery(Box(0.5, 0.5, 2.5, 2.5));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<ObjectId>{10, 11}));
  EXPECT_TRUE(t.WindowQuery(Box(8, 8, 9, 9)).empty());
}

TEST(PackedRTree, WindowQueryMatchesBruteForce) {
  const Dataset d = testutil::Uniform(2000, 17);
  BulkLoadOptions opt;
  opt.max_entries = 16;
  const PackedRTree t = StrBulkLoad(d, opt);
  ASSERT_TRUE(t.Validate().ok());

  Rng rng(55);
  for (int q = 0; q < 50; ++q) {
    const Coord x = static_cast<Coord>(rng.Uniform(0, 900));
    const Coord y = static_cast<Coord>(rng.Uniform(0, 900));
    const Box window(x, y, x + 100, y + 100);
    auto got = t.WindowQuery(window);
    std::vector<ObjectId> expected;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (Intersects(d.box(i), window)) {
        expected.push_back(static_cast<ObjectId>(i));
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(PackedRTree, NodeOffsetMatchesStride) {
  const PackedRTree t = HandBuilt();
  EXPECT_EQ(t.NodeOffset(0), 0u);
  EXPECT_EQ(t.NodeOffset(2), 2 * t.node_stride());
  EXPECT_EQ(t.bytes().size(), t.num_nodes() * t.node_stride());
}

TEST(PackedRTree, SingleNodeTree) {
  std::vector<std::vector<PackedRTree::BuildNode>> levels(1);
  PackedRTree::BuildNode root;
  root.is_leaf = true;
  root.entries = {{Box(0, 0, 1, 1), 0}};
  levels[0] = {root};
  const PackedRTree t = PackedRTree::FromLevels(std::move(levels), 4);
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(t.root(), 0);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.WindowQuery(Box(0, 0, 2, 2)).size(), 1u);
}

TEST(PackedRTree, CountObjectsAgrees) {
  const Dataset d = testutil::Uniform(777, 3);
  BulkLoadOptions opt;
  const PackedRTree t = StrBulkLoad(d, opt);
  EXPECT_EQ(t.CountObjects(), 777u);
  EXPECT_EQ(t.num_objects(), 777u);
}

}  // namespace
}  // namespace swiftspatial
