#include "join/sync_traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hw/accelerator.h"
#include "join/nested_loop.h"
#include "join/parallel_sync_traversal.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

PackedRTree Tree(const Dataset& d, int max_entries = 16) {
  BulkLoadOptions opt;
  opt.max_entries = max_entries;
  return StrBulkLoad(d, opt);
}

// The tests a node-pair join makes. `full` is the pairwise loop's: every R
// entry against every S entry, as the simulated join unit tests them.
// `restricted` is JoinNodePair's: each side's entries against the other
// node's MBR, then the R survivors against the S survivors, or against all
// of the S node once more than one mask word (64) of S survives.
struct PredicateCounts {
  uint64_t full = 0;
  uint64_t restricted = 0;
};

// The pairwise node-pair join the block join replaced: one Intersects call
// per pair, in (R entry, S entry) order.
void PairwiseNodePair(const PackedRTree& r, const PackedRTree& s,
                      NodeIndex r_node, NodeIndex s_node,
                      std::vector<NodePairTask>* next, JoinResult* out,
                      PredicateCounts* predicates) {
  const NodeView rn = r.node(r_node);
  const NodeView sn = s.node(s_node);
  const int rc = rn.count();
  const int sc = sn.count();
  if (rn.is_leaf() == sn.is_leaf()) {
    const Box r_mbr = rn.Mbr();
    const Box s_mbr = sn.Mbr();
    uint64_t live_r = 0, live_s = 0;
    for (int i = 0; i < rc; ++i) live_r += Intersects(rn.entry(i).box, s_mbr);
    for (int j = 0; j < sc; ++j) live_s += Intersects(sn.entry(j).box, r_mbr);
    predicates->full += static_cast<uint64_t>(rc) * sc;
    predicates->restricted +=
        static_cast<uint64_t>(rc + sc) +
        live_r * (live_s <= 64 ? live_s : static_cast<uint64_t>(sc));
    for (int i = 0; i < rc; ++i) {
      const PackedEntry re = rn.entry(i);
      for (int j = 0; j < sc; ++j) {
        const PackedEntry se = sn.entry(j);
        if (!Intersects(re.box, se.box)) continue;
        if (rn.is_leaf()) {
          out->Add(re.id, se.id);
        } else {
          next->push_back({re.id, se.id});
        }
      }
    }
  } else if (rn.is_leaf()) {
    predicates->full += static_cast<uint64_t>(sc);
    predicates->restricted += static_cast<uint64_t>(sc);
    const Box r_mbr = rn.Mbr();
    for (int j = 0; j < sc; ++j) {
      const PackedEntry se = sn.entry(j);
      if (Intersects(r_mbr, se.box)) next->push_back({r_node, se.id});
    }
  } else {
    predicates->full += static_cast<uint64_t>(rc);
    predicates->restricted += static_cast<uint64_t>(rc);
    const Box s_mbr = sn.Mbr();
    for (int i = 0; i < rc; ++i) {
      const PackedEntry re = rn.entry(i);
      if (Intersects(re.box, s_mbr)) next->push_back({re.id, s_node});
    }
  }
}

// Serial DFS (stack) or BFS (level list) over PairwiseNodePair, with the
// same task order as SyncTraversalDfs / SyncTraversalBfs.
JoinResult PairwiseTraversal(const PackedRTree& r, const PackedRTree& s,
                             bool bfs, PredicateCounts* predicates) {
  JoinResult out;
  std::vector<NodePairTask> tasks = {{r.root(), s.root()}};
  std::vector<NodePairTask> next;
  while (!tasks.empty()) {
    if (bfs) {
      next.clear();
      for (const NodePairTask& task : tasks) {
        PairwiseNodePair(r, s, task.r, task.s, &next, &out, predicates);
      }
      tasks.swap(next);
    } else {
      const NodePairTask task = tasks.back();
      tasks.pop_back();
      next.clear();
      PairwiseNodePair(r, s, task.r, task.s, &next, &out, predicates);
      tasks.insert(tasks.end(), next.begin(), next.end());
    }
  }
  return out;
}

// A tree whose root is a node of the given kind holding exactly `boxes`: a
// single leaf, or a directory over one one-entry leaf per box.
PackedRTree NodeTree(const std::vector<Box>& boxes, bool leaf, int capacity) {
  PackedRTree::BuildNode node;
  node.is_leaf = leaf;
  std::vector<PackedRTree::BuildNode> leaves;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    node.entries.push_back({boxes[i], static_cast<int32_t>(i)});
    PackedRTree::BuildNode child;
    child.entries.push_back({boxes[i], static_cast<int32_t>(100 + i)});
    leaves.push_back(std::move(child));
  }
  if (leaf) return PackedRTree::FromLevels({{std::move(node)}}, capacity);
  return PackedRTree::FromLevels({std::move(leaves), {std::move(node)}},
                                 capacity);
}

// Boxes over a six-value coordinate alphabet, so that touching edges and
// corners, points, identical boxes and -0.0 against 0.0 are all frequent.
std::vector<Box> AlphabetBoxes(std::size_t n, Rng* rng) {
  constexpr Coord kAlphabet[] = {-0.0f, 0.0f, 1.0f, 2.0f, 3.0f, 4.0f};
  auto pick = [&] { return kAlphabet[rng->NextBelow(6)]; };
  std::vector<Box> boxes;
  for (std::size_t i = 0; i < n; ++i) {
    const Coord x0 = pick(), x1 = pick(), y0 = pick(), y1 = pick();
    boxes.push_back(Box(std::min(x0, x1), std::min(y0, y1),
                        std::max(x0, x1), std::max(y0, y1)));
  }
  return boxes;
}

// Joins one node pair of every leaf/directory combination, each node
// holding `r_boxes` / `s_boxes`, and expects the pairwise loop's pairs and
// tasks in the same order and its restricted count exactly. Returns how
// many of the four combinations emitted anything; `leaf_stats` and
// `leaf_out`, when non-null, receive the leaf-leaf join's.
int ExpectNodePairMatchesPairwise(const std::vector<Box>& r_boxes,
                                  const std::vector<Box>& s_boxes, int r_cap,
                                  int s_cap, const std::string& name,
                                  JoinStats* leaf_stats = nullptr,
                                  JoinResult* leaf_out = nullptr) {
  int emitting = 0;
  for (const bool r_leaf : {true, false}) {
    for (const bool s_leaf : {true, false}) {
      const PackedRTree r = NodeTree(r_boxes, r_leaf, r_cap);
      const PackedRTree s = NodeTree(s_boxes, s_leaf, s_cap);
      std::vector<NodePairTask> want_next, got_next;
      JoinResult want_out, got_out;
      PredicateCounts want;
      PairwiseNodePair(r, s, r.root(), s.root(), &want_next, &want_out,
                       &want);
      JoinStats stats;
      JoinNodePair(r, s, r.root(), s.root(), &got_next, &got_out, &stats);
      const std::string where = name + " r_leaf=" + std::to_string(r_leaf) +
                                " s_leaf=" + std::to_string(s_leaf);
      EXPECT_EQ(got_out.pairs(), want_out.pairs()) << where;
      EXPECT_EQ(got_next, want_next) << where;
      EXPECT_EQ(stats.predicate_evaluations, want.restricted) << where;
      EXPECT_EQ(stats.tasks, 1u) << where;
      EXPECT_EQ(stats.intermediate_pairs, want_next.size()) << where;
      if (!want_out.empty() || !want_next.empty()) ++emitting;
      if (r_leaf && s_leaf) {
        if (leaf_stats != nullptr) *leaf_stats = stats;
        if (leaf_out != nullptr) *leaf_out = std::move(got_out);
      }
    }
  }
  return emitting;
}

// The block join must reproduce the pairwise loops exactly: the same pairs
// and the same next-level tasks, in the same order, and the same counts,
// for every leaf/directory combination and fan-outs on both sides of the
// 4- and 8-lane groups and of one 64-bit mask word.
TEST(JoinNodePair, BlockJoinEqualsPairwiseLoopInOrder) {
  Rng rng(2024);
  std::vector<std::pair<int, int>> capacities;
  for (const int c : {2, 4, 16, 17, 64, 65, 200}) capacities.push_back({c, c});
  capacities.insert(capacities.end(), {{2, 200}, {200, 2}, {17, 65}});
  int checked = 0;
  for (const auto& [r_cap, s_cap] : capacities) {
    for (const int rc : {1, r_cap - 1, r_cap}) {
      for (const int sc : {1, s_cap - 1, s_cap}) {
        const std::vector<Box> r_boxes = AlphabetBoxes(rc, &rng);
        const std::vector<Box> s_boxes = AlphabetBoxes(sc, &rng);
        // The alphabet makes hits common: the case is not vacuous.
        checked += ExpectNodePairMatchesPairwise(
            r_boxes, s_boxes, r_cap, s_cap,
            "r_cap=" + std::to_string(r_cap) +
                " s_cap=" + std::to_string(s_cap) +
                " rc=" + std::to_string(rc) + " sc=" + std::to_string(sc));
      }
    }
  }
  EXPECT_GT(checked, 300);
}

// Boxes of half-width 0.5 + i/64 about (cx, cy): all overlap each other.
std::vector<Box> Overlapping(int n, Coord cx, Coord cy) {
  std::vector<Box> boxes;
  for (int i = 0; i < n; ++i) {
    const Coord h = 0.5f + static_cast<Coord>(i) / 64;
    boxes.push_back(Box(cx - h, cy - h, cx + h, cy + h));
  }
  return boxes;
}

// The MBR restriction at its edges. Leaf-leaf counts are pinned by hand:
// rc + sc MBR tests plus live R x the block (S's survivors, or all of S
// once more than 64 survive).
TEST(JoinNodePair, MbrRestrictionEdgeCases) {
  using Pairs = std::vector<ResultPair>;
  JoinResult out;
  JoinStats st;
  // Both nodes of fan-out `cap`; `st` and `out` get the leaf-leaf join's.
  const auto join = [&](const std::vector<Box>& r_boxes,
                        const std::vector<Box>& s_boxes, int cap,
                        const std::string& name) {
    ExpectNodePairMatchesPairwise(r_boxes, s_boxes, cap, cap, name, &st,
                                  &out);
  };
  // Node MBRs [0,0,1,3] and [1,0,2,3] touch along x = 1: one entry on
  // each side reaches the edge, and they touch each other there.
  join({Box(0, 0, 1, 1), Box(0, 2, 0.5f, 3)},
       {Box(1, 0.5f, 2, 0.8f), Box(1.5f, 0, 2, 3)}, 16, "edge");
  EXPECT_EQ(out.pairs(), (Pairs{{0, 0}}));
  EXPECT_EQ(st.predicate_evaluations, 2u + 2u + 1u * 1u);
  // Corner contact at (1, 1); -0.0 meets 0.0 at the origin.
  join({Box(0, 0, 1, 1), Box(-1, -1, -0.0f, -0.0f), Box(-1, 0.5f, -0.5f, 1)},
       {Box(1, 1, 2, 2), Box(1.5f, 1.5f, 3, 3), Box(0, -1, 0.5f, 0)}, 16,
       "corner");
  EXPECT_EQ(out.pairs(), (Pairs{{0, 0}, {0, 2}, {1, 2}}));
  EXPECT_EQ(st.predicate_evaluations, 3u + 3u + 2u * 2u);
  // R's entries sit at the corners of its MBR, around S's one box: S
  // survives, no R entry does; the task counts and emits nothing.
  join({Box(0, 0, 1, 1), Box(3, 3, 4, 4)}, {Box(1.5f, 1.5f, 2.5f, 2.5f)}, 16,
       "no R survivor");
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(st.predicate_evaluations, 2u + 1u);
  // The mirror case, and node MBRs that are disjoint.
  join({Box(1.5f, 1.5f, 2.5f, 2.5f)}, {Box(0, 0, 1, 1), Box(3, 3, 4, 4)}, 16,
       "no S survivor");
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(st.predicate_evaluations, 1u + 2u + 1u * 0u);
  join({Box(0, 0, 1, 1)}, {Box(5, 5, 6, 6)}, 16, "disjoint");
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(st.predicate_evaluations, 2u);

  // All-overlap at fan-out 200: every entry survives and all 150 x 200
  // pairs hit; 200 S survivors exceed the 64-slot block, so the probes
  // read the S node in place.
  join(Overlapping(150, 5, 5), Overlapping(200, 5, 5), 200, "all overlap");
  EXPECT_EQ(out.size(), 150u * 200u);
  EXPECT_EQ(st.predicate_evaluations, 150u + 200u + 150u * 200u);
  // Either side of the block's capacity: 64 S survivors fill it, 65 do
  // not fit and the block is all 75 S entries.
  for (const int live : {64, 65}) {
    std::vector<Box> s_boxes = Overlapping(live, 5, 5);
    for (int i = 0; i < 10; ++i) {
      s_boxes.insert(s_boxes.begin() + 3 * i, Box(100 + i, 100, 101 + i, 101));
    }
    join(Overlapping(20, 5, 5), s_boxes, 200,
         "live S " + std::to_string(live));
    EXPECT_EQ(out.size(), 20u * live);
    const uint64_t block = live <= 64 ? live : s_boxes.size();
    EXPECT_EQ(st.predicate_evaluations, 20u + s_boxes.size() + 20u * block);
  }

  // Coincident clumps: stacks of one box and of one point, on both sides,
  // beside a few boxes that survive or not.
  std::vector<Box> r_boxes, s_boxes;
  for (int i = 0; i < 12; ++i) {
    r_boxes.push_back(Box(2, 2, 3, 3));
    s_boxes.push_back(Box(2.5f, 2.5f, 2.5f, 2.5f));
  }
  r_boxes.insert(r_boxes.begin() + 5, Box(9, 9, 10, 10));
  s_boxes.insert(s_boxes.begin() + 7, Box(3, 3, 3, 3));
  s_boxes.push_back(Box(-5, 2, -4, 3));
  join(r_boxes, s_boxes, 16, "clumps");
  EXPECT_EQ(out.size(), 12u * 13u);
  EXPECT_EQ(st.predicate_evaluations, 13u + 14u + 12u * 13u);
  // One point, repeated, against itself: the node MBRs are that point.
  const std::vector<Box> points(16, Box(4, 4, 4, 4));
  join(points, points, 16, "point clump");
  EXPECT_EQ(out.size(), 16u * 16u);
  EXPECT_EQ(st.predicate_evaluations, 16u + 16u + 16u * 16u);
}

// Serial DFS and BFS over the block join emit exactly the pairwise
// traversal's pair sequence, not just its multiset.
TEST(JoinNodePair, SerialTraversalsEqualPairwiseLoopsPairForPair) {
  const Dataset points = testutil::UniformPoints(1000, 76);
  const Dataset polys = testutil::Uniform(800, 77, 1000.0, /*max_edge=*/25.0);
  const PackedRTree rt = Tree(points), st = Tree(polys);
  for (const bool bfs : {false, true}) {
    PredicateCounts predicates;
    const JoinResult want = PairwiseTraversal(rt, st, bfs, &predicates);
    JoinStats stats;
    const JoinResult got =
        bfs ? SyncTraversalBfs(rt, st, &stats) : SyncTraversalDfs(rt, st, &stats);
    ASSERT_GT(want.size(), 0u);
    EXPECT_EQ(got.pairs(), want.pairs()) << (bfs ? "BFS" : "DFS");
    EXPECT_EQ(stats.predicate_evaluations, predicates.restricted)
        << (bfs ? "BFS" : "DFS");
    // The restriction is not vacuous on point-in-polygon trees.
    EXPECT_LT(predicates.restricted, predicates.full / 2)
        << (bfs ? "BFS" : "DFS");
  }
}

TEST(SyncTraversalDfs, MatchesBruteForce) {
  const Dataset r = testutil::Uniform(800, 60);
  const Dataset s = testutil::Uniform(700, 61);
  JoinResult expected = BruteForceJoin(r, s);
  JoinResult got = SyncTraversalDfs(Tree(r), Tree(s));
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(SyncTraversalBfs, MatchesDfs) {
  const Dataset r = testutil::Skewed(900, 62);
  const Dataset s = testutil::Uniform(900, 63);
  const PackedRTree rt = Tree(r), st = Tree(s);
  JoinResult dfs = SyncTraversalDfs(rt, st);
  JoinResult bfs = SyncTraversalBfs(rt, st);
  EXPECT_TRUE(JoinResult::SameMultiset(dfs, bfs));
}

TEST(SyncTraversal, DifferentNodeSizesAgree) {
  const Dataset r = testutil::Uniform(600, 64);
  const Dataset s = testutil::Uniform(600, 65);
  JoinResult base = SyncTraversalDfs(Tree(r, 4), Tree(s, 4));
  for (int m : {8, 16, 32}) {
    JoinResult other = SyncTraversalDfs(Tree(r, m), Tree(s, m));
    EXPECT_TRUE(JoinResult::SameMultiset(base, other)) << "node size " << m;
  }
}

TEST(SyncTraversal, MixedNodeSizesBetweenTrees) {
  const Dataset r = testutil::Uniform(500, 66);
  const Dataset s = testutil::Uniform(500, 67);
  JoinResult expected = BruteForceJoin(r, s);
  JoinResult got = SyncTraversalDfs(Tree(r, 4), Tree(s, 64));
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(SyncTraversal, DifferentHeights) {
  const Dataset big = testutil::Uniform(2000, 68);
  const Dataset small = testutil::Uniform(10, 69, 1000.0, /*max_edge=*/100.0);
  const PackedRTree bt = Tree(big, 8), st = Tree(small, 8);
  ASSERT_GT(bt.height(), st.height());
  JoinResult expected = BruteForceJoin(big, small);
  JoinResult dfs = SyncTraversalDfs(bt, st);
  JoinResult bfs = SyncTraversalBfs(bt, st);
  EXPECT_TRUE(JoinResult::SameMultiset(expected, dfs));
  EXPECT_TRUE(JoinResult::SameMultiset(expected, bfs));
  // Swapped argument order also works (directory on the left).
  JoinResult swapped = SyncTraversalDfs(st, bt);
  EXPECT_EQ(swapped.size(), expected.size());

  // Mixed-height tasks test one MBR against the directory side's entries
  // and count exactly those tests, in both argument orders, as the
  // simulated join unit does; its equal-height tasks test every pair, the
  // CPU's only the survivors of the MBR restriction.
  for (const bool big_first : {true, false}) {
    const PackedRTree& r = big_first ? bt : st;
    const PackedRTree& s = big_first ? st : bt;
    PredicateCounts walked;
    PairwiseTraversal(r, s, /*bfs=*/false, &walked);
    JoinStats dfs_stats, bfs_stats;
    SyncTraversalDfs(r, s, &dfs_stats);
    SyncTraversalBfs(r, s, &bfs_stats);
    const hw::AcceleratorReport device = hw::Accelerator().RunSyncTraversal(r, s);
    EXPECT_EQ(dfs_stats.predicate_evaluations, walked.restricted) << big_first;
    EXPECT_EQ(bfs_stats.predicate_evaluations, walked.restricted) << big_first;
    EXPECT_EQ(device.stats.predicate_evaluations, walked.full) << big_first;
  }
}

// True when some node of `t` holds fewer entries than the fan-out.
bool HasUnderFullNode(const PackedRTree& t) {
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    if (t.node(static_cast<NodeIndex>(i)).count() < t.max_entries()) {
      return true;
    }
  }
  return false;
}

// The CPU traversals (serial DFS and BFS, parallel BFS-DFS) and the
// simulated device read one node image and must visit the same node pairs:
// equal pair multisets (the brute-force join's) and task and intermediate
// pair counts. The CPU traversals count the restricted pairwise tests, the
// device every pairwise test, both exactly. At fan-outs on both sides of
// the 4- and 8-lane groups and of one mask word, for trees of equal and of
// different heights (in both argument orders), every tree holding
// under-full nodes.
TEST(SyncTraversal, CpuAndDeviceTraversalsAgree) {
  // 1499 is prime, so every fan-out leaves an under-full leaf.
  const Dataset big_r = testutil::Uniform(1499, 90, 1000.0, /*max_edge=*/20.0);
  const Dataset big_s = testutil::Uniform(1201, 91, 1000.0, /*max_edge=*/20.0);
  const Dataset small = testutil::Uniform(51, 92, 1000.0, /*max_edge=*/80.0);
  struct Case {
    const Dataset* r;
    const Dataset* s;
    bool equal_heights;
  };
  const Case cases[] = {{&big_r, &big_s, true},
                        {&big_r, &small, false},
                        {&small, &big_r, false}};
  for (const int fanout : {2, 16, 17, 64, 200}) {
    for (const Case& c : cases) {
      const PackedRTree r = Tree(*c.r, fanout);
      const PackedRTree s = Tree(*c.s, fanout);
      const std::string where = "fanout=" + std::to_string(fanout) +
                                " r=" + std::to_string(c.r->size()) +
                                " s=" + std::to_string(c.s->size());
      ASSERT_EQ(r.height() == s.height(), c.equal_heights) << where;
      ASSERT_TRUE(HasUnderFullNode(r) && HasUnderFullNode(s)) << where;

      JoinResult expected = BruteForceJoin(*c.r, *c.s);
      ASSERT_GT(expected.size(), 0u) << where;
      JoinStats dfs_stats, bfs_stats, par_stats;
      JoinResult dfs = SyncTraversalDfs(r, s, &dfs_stats);
      JoinResult bfs = SyncTraversalBfs(r, s, &bfs_stats);
      ParallelSyncTraversalOptions options;
      options.num_threads = 3;
      options.strategy = TraversalStrategy::kBfsDfs;
      options.dfs_switch_factor = 2;
      JoinResult par = ParallelSyncTraversal(r, s, options, &par_stats);
      JoinResult device;
      hw::AcceleratorReport report =
          hw::Accelerator().RunSyncTraversal(r, s, &device);

      EXPECT_TRUE(JoinResult::SameMultiset(expected, dfs)) << where;
      EXPECT_TRUE(JoinResult::SameMultiset(expected, bfs)) << where;
      EXPECT_TRUE(JoinResult::SameMultiset(expected, par)) << where;
      EXPECT_TRUE(JoinResult::SameMultiset(expected, device)) << where;
      for (const JoinStats* other : {&bfs_stats, &par_stats, &report.stats}) {
        EXPECT_EQ(other->tasks, dfs_stats.tasks) << where;
        EXPECT_EQ(other->intermediate_pairs, dfs_stats.intermediate_pairs)
            << where;
      }
      PredicateCounts walked;
      PairwiseTraversal(r, s, /*bfs=*/false, &walked);
      for (const JoinStats* cpu : {&dfs_stats, &bfs_stats, &par_stats}) {
        EXPECT_EQ(cpu->predicate_evaluations, walked.restricted) << where;
      }
      EXPECT_EQ(report.stats.predicate_evaluations, walked.full) << where;
    }
  }
}

TEST(SyncTraversal, DynamicTreeViaPack) {
  const Dataset r = testutil::Uniform(700, 70);
  const Dataset s = testutil::Uniform(700, 71);
  RTree dynamic_r = RTree::BuildByInsertion(r);
  RTree dynamic_s = RTree::BuildByInsertion(s);
  JoinResult expected = BruteForceJoin(r, s);
  JoinResult got = SyncTraversalDfs(dynamic_r.Pack(), dynamic_s.Pack());
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

TEST(SyncTraversalBfs, LevelSizesTraceShape) {
  const Dataset r = testutil::Uniform(2000, 72);
  const Dataset s = testutil::Uniform(2000, 73);
  std::vector<std::size_t> levels;
  SyncTraversalBfs(Tree(r), Tree(s), nullptr, &levels);
  ASSERT_GE(levels.size(), 2u);
  EXPECT_EQ(levels[0], 1u);  // root pair
  // Task counts grow as the traversal descends (fan-out).
  EXPECT_GT(levels.back(), levels[0]);
}

TEST(SyncTraversal, StatsCounters) {
  const Dataset r = testutil::Uniform(400, 74);
  const Dataset s = testutil::Uniform(400, 75);
  JoinStats dfs_stats, bfs_stats;
  SyncTraversalDfs(Tree(r), Tree(s), &dfs_stats);
  SyncTraversalBfs(Tree(r), Tree(s), &bfs_stats);
  // DFS and BFS visit exactly the same node pairs, just in different order.
  EXPECT_EQ(dfs_stats.tasks, bfs_stats.tasks);
  EXPECT_EQ(dfs_stats.predicate_evaluations, bfs_stats.predicate_evaluations);
  EXPECT_EQ(dfs_stats.intermediate_pairs, bfs_stats.intermediate_pairs);
  EXPECT_GT(dfs_stats.tasks, 0u);
  // Every visited non-root task was once an intermediate pair.
  EXPECT_EQ(dfs_stats.intermediate_pairs + 1, dfs_stats.tasks);
}

TEST(SyncTraversal, PointPolygonJoin) {
  const Dataset points = testutil::UniformPoints(1000, 76);
  const Dataset polys = testutil::Uniform(800, 77, 1000.0, /*max_edge=*/25.0);
  JoinResult expected = BruteForceJoin(points, polys);
  JoinResult got = SyncTraversalDfs(Tree(points), Tree(polys));
  EXPECT_TRUE(JoinResult::SameMultiset(expected, got));
}

}  // namespace
}  // namespace swiftspatial
