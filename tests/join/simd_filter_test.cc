// Regression suite for the batched MBR filter kernel: its comparison
// semantics must be bit-identical to geometry::Intersects -- closed
// boundaries (touching edges and corners intersect), zero-area boxes, and
// IEEE behaviour on NaN/infinite coordinates. The kernel is diffed against
// the scalar predicate on adversarial and randomized inputs so the
// cross-engine equivalence oracle (which compares whole join results) cannot
// be silently weakened by a kernel that drifts together with an engine.
#include "join/simd_filter.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "join/nested_loop.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();

bool KernelBit(const Box& probe, const Box& candidate) {
  const BoxBlock block = BoxBlock::FromBoxes({candidate});
  uint64_t mask = ~uint64_t{0};  // pre-polluted: the kernel must overwrite
  FilterBoxBlock(probe, block, &mask);
  EXPECT_TRUE(mask == 0 || mask == 1) << "tail bits must be zero";
  return mask & 1;
}

// Every pair from a hostile coordinate alphabet: shared edges, shared
// corners, zero-area boxes, containment, and non-finite coordinates. The
// kernel must agree with the scalar predicate on all of them, in both
// probe/candidate orders.
TEST(SimdFilter, AgreesWithIntersectsOnAdversarialBoxes) {
  const std::vector<Box> boxes = {
      Box(0, 0, 5, 5),
      Box(5, 0, 10, 5),       // shares the x=5 edge with the first
      Box(5, 5, 10, 10),      // shares only the (5,5) corner
      Box(0, 5, 5, 10),       // shares the y=5 edge
      Box(5, 5, 5, 5),        // zero-area box on the shared corner
      Box(2, 2, 3, 3),        // contained
      Box(-1, -1, 0, 0),      // touches at the origin corner
      Box(6, 6, 7, 7),        // disjoint from the first
      Box(0, 0, 0, 10),       // zero-width vertical line
      Box(0, 5, 10, 5),       // zero-height horizontal line
      Box(5.001f, 5, 10, 10),  // one ULP-ish past touching
      Box(kNaN, 0, 5, 5),     // NaN min_x: matches nothing
      Box(0, 0, kNaN, 5),     // NaN max_x
      Box(-kInf, -kInf, kInf, kInf),  // the whole plane
      Box(kInf, kInf, kInf, kInf),    // point at infinity
      Box(0, 0, -1, -1),      // inverted box (never valid, still defined)
  };
  for (const Box& probe : boxes) {
    for (const Box& candidate : boxes) {
      EXPECT_EQ(KernelBit(probe, candidate), Intersects(probe, candidate))
          << "probe=" << probe.ToString()
          << " candidate=" << candidate.ToString();
    }
  }
}

// Randomized sweep at a block size that exercises the vector body and the
// tail: bit i of the mask must equal Intersects(probe, candidate_i) for
// every candidate, and every bit beyond the block size must stay zero.
TEST(SimdFilter, MaskMatchesScalarPredicateOnRandomBlocks) {
  Rng rng(12345);
  // Sizes straddle every code-path boundary: the AVX2 8-lane step, the
  // scalar fallback's 64-candidate pack blocks, and the per-bit tail.
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 127u, 128u,
                              129u, 200u, 513u}) {
    std::vector<Box> boxes;
    boxes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Coord x = static_cast<Coord>(rng.Uniform(0, 100));
      const Coord y = static_cast<Coord>(rng.Uniform(0, 100));
      boxes.push_back(Box(x, y, x + static_cast<Coord>(rng.Uniform(0, 10)),
                          y + static_cast<Coord>(rng.Uniform(0, 10))));
    }
    const BoxBlock block = BoxBlock::FromBoxes(boxes);
    std::vector<uint64_t> mask(FilterMaskWords(n), ~uint64_t{0});
    for (int p = 0; p < 32; ++p) {
      const Coord x = static_cast<Coord>(rng.Uniform(0, 100));
      const Coord y = static_cast<Coord>(rng.Uniform(0, 100));
      const Box probe(x, y, x + static_cast<Coord>(rng.Uniform(0, 20)),
                      y + static_cast<Coord>(rng.Uniform(0, 20)));
      FilterBoxBlock(probe, block, mask.data());
      for (std::size_t i = 0; i < n; ++i) {
        const bool bit = (mask[i >> 6] >> (i & 63)) & 1;
        EXPECT_EQ(bit, Intersects(probe, boxes[i]))
            << "n=" << n << " candidate " << i;
      }
      // Tail bits past n stay zero so popcounts over words are exact.
      for (std::size_t i = n; i < mask.size() * 64; ++i) {
        EXPECT_EQ((mask[i >> 6] >> (i & 63)) & 1, 0u) << "tail bit " << i;
      }
    }
  }
}

// The probe-blocked kernel must agree bit-for-bit with the per-probe
// kernel (and hence with the scalar predicate) for every probe slot, across
// probe counts straddling its quad/tail boundary and candidate counts
// straddling every vector-body boundary.
TEST(SimdFilter, ProbeBlockMatchesPerProbeKernel) {
  Rng rng(54321);
  for (const std::size_t np : {1u, 2u, 3u, 4u, 5u, 8u, 15u, 16u, 17u}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 63u, 64u, 65u, 130u}) {
      std::vector<Box> candidates;
      candidates.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Coord x = static_cast<Coord>(rng.Uniform(0, 100));
        const Coord y = static_cast<Coord>(rng.Uniform(0, 100));
        candidates.push_back(
            Box(x, y, x + static_cast<Coord>(rng.Uniform(0, 10)),
                y + static_cast<Coord>(rng.Uniform(0, 10))));
      }
      std::vector<Box> probes;
      probes.reserve(np);
      for (std::size_t p = 0; p < np; ++p) {
        const Coord x = static_cast<Coord>(rng.Uniform(0, 100));
        const Coord y = static_cast<Coord>(rng.Uniform(0, 100));
        probes.push_back(
            Box(x, y, x + static_cast<Coord>(rng.Uniform(0, 20)),
                y + static_cast<Coord>(rng.Uniform(0, 20))));
      }
      const BoxBlock block = BoxBlock::FromBoxes(candidates);
      const BoxBlock probe_block = BoxBlock::FromBoxes(probes);
      const std::size_t words = FilterMaskWords(n);
      // Pre-polluted: the probe-blocked kernel must overwrite every word.
      std::vector<uint64_t> blocked(np * words, ~uint64_t{0});
      FilterSoAProbeBlock(probe_block.min_x(), probe_block.min_y(),
                          probe_block.max_x(), probe_block.max_y(), np,
                          block.min_x(), block.min_y(), block.max_x(),
                          block.max_y(), n, blocked.data());
      std::vector<uint64_t> single(words);
      for (std::size_t p = 0; p < np; ++p) {
        FilterBoxBlock(probes[p], block, single.data());
        for (std::size_t w = 0; w < words; ++w) {
          EXPECT_EQ(blocked[p * words + w], single[w])
              << "np=" << np << " n=" << n << " probe " << p << " word "
              << w;
        }
      }
    }
  }
}

// Non-finite probe coordinates through the probe-blocked path: NaN matches
// nothing in every slot of a quad, exactly as the per-probe kernel.
TEST(SimdFilter, ProbeBlockNaNProbesMatchNothing) {
  const std::vector<Box> candidates = {Box(0, 0, 100, 100),
                                       Box(-kInf, -kInf, kInf, kInf)};
  const std::vector<Box> probes = {Box(1, 1, 2, 2), Box(kNaN, 1, 2, 2),
                                   Box(1, 1, 2, kNaN), Box(3, 3, 4, 4)};
  const BoxBlock block = BoxBlock::FromBoxes(candidates);
  const BoxBlock probe_block = BoxBlock::FromBoxes(probes);
  const std::size_t words = FilterMaskWords(candidates.size());
  std::vector<uint64_t> masks(probes.size() * words, ~uint64_t{0});
  FilterSoAProbeBlock(probe_block.min_x(), probe_block.min_y(),
                      probe_block.max_x(), probe_block.max_y(),
                      probes.size(), block.min_x(), block.min_y(),
                      block.max_x(), block.max_y(), candidates.size(),
                      masks.data());
  for (std::size_t p = 0; p < probes.size(); ++p) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const bool bit = (masks[p * words + (i >> 6)] >> (i & 63)) & 1;
      EXPECT_EQ(bit, Intersects(probes[p], candidates[i]))
          << "probe " << p << " candidate " << i;
    }
  }
}

// Short runs, where the kernels hand over to the inline short-block
// compare: every n around its 4- and 8-lane groups and a mask word, with
// NaN coordinates sprinkled among the candidates and edge- and
// corner-touching candidates. FilterSoAShort, FilterSoA (whose tail it is)
// and FilterSoAProbeBlock must all agree with the scalar predicate, with
// zero bits past n.
TEST(SimdFilter, ShortRunsMatchIntersects) {
  Rng rng(777);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {63, 64, 65});
  const std::vector<Box> probes = {Box(2, 2, 6, 6), Box(4, 4, 4, 4),
                                   Box(0, 0, 8, 8), Box(kNaN, 2, 6, 6)};
  for (const std::size_t n : sizes) {
    std::vector<Box> candidates;
    for (std::size_t i = 0; i < n; ++i) {
      const Coord x = static_cast<Coord>(rng.UniformInt(0, 8));
      const Coord y = static_cast<Coord>(rng.UniformInt(0, 8));
      Box box(x, y, x + static_cast<Coord>(rng.UniformInt(0, 2)),
              y + static_cast<Coord>(rng.UniformInt(0, 2)));
      switch (rng.NextBelow(8)) {
        case 0: box.min_x = kNaN; break;
        case 1: box.max_y = kNaN; break;
        default: break;
      }
      candidates.push_back(box);
    }
    const BoxBlock block = BoxBlock::FromBoxes(candidates);
    const BoxBlock probe_block = BoxBlock::FromBoxes(probes);
    const std::size_t words = FilterMaskWords(n);
    std::vector<uint64_t> blocked(probes.size() * words, ~uint64_t{0});
    FilterSoAProbeBlock(probe_block.min_x(), probe_block.min_y(),
                        probe_block.max_x(), probe_block.max_y(),
                        probes.size(), block.min_x(), block.min_y(),
                        block.max_x(), block.max_y(), n, blocked.data());
    for (std::size_t p = 0; p < probes.size(); ++p) {
      std::vector<uint64_t> short_mask(words, ~uint64_t{0});
      std::vector<uint64_t> kernel_mask(words, ~uint64_t{0});
      FilterSoAShort(probes[p], block.min_x(), block.min_y(), block.max_x(),
                     block.max_y(), n, short_mask.data());
      FilterBoxBlock(probes[p], block, kernel_mask.data());
      for (std::size_t i = 0; i < words * 64; ++i) {
        const bool want = i < n && Intersects(probes[p], candidates[i]);
        const uint64_t bit = uint64_t{1} << (i & 63);
        EXPECT_EQ((short_mask[i >> 6] & bit) != 0, want)
            << "short n=" << n << " probe " << p << " bit " << i;
        EXPECT_EQ((kernel_mask[i >> 6] & bit) != 0, want)
            << "kernel n=" << n << " probe " << p << " bit " << i;
        EXPECT_EQ((blocked[p * words + (i >> 6)] & bit) != 0, want)
            << "probe block n=" << n << " probe " << p << " bit " << i;
      }
    }
  }
}

TEST(SimdFilter, BackendIsReported) {
  const std::string backend = SimdFilterBackend();
  EXPECT_TRUE(backend == "avx2" || backend == "scalar") << backend;
#if defined(__AVX2__)
  EXPECT_EQ(backend, "avx2");
#else
  EXPECT_EQ(backend, "scalar");
#endif
}

// The tile join built on the kernel must agree with the scalar nested-loop
// tile join, with and without a dedup tile, including on degenerate data.
TEST(SimdFilter, TileJoinMatchesNestedLoopTileJoin) {
  const Dataset r = testutil::Uniform(300, 77, /*map=*/100.0, /*max_edge=*/15.0);
  const Dataset s = testutil::Skewed(300, 78, /*map=*/100.0);
  std::vector<ObjectId> r_ids, s_ids;
  for (std::size_t i = 0; i < r.size(); ++i) {
    r_ids.push_back(static_cast<ObjectId>(i));
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    s_ids.push_back(static_cast<ObjectId>(i));
  }

  const Box tile(0, 0, 50, 50);  // a dedup tile cutting through the data
  for (const Box* dedup : {static_cast<const Box*>(nullptr), &tile}) {
    JoinResult scalar_result, simd_result;
    JoinStats scalar_stats, simd_stats;
    NestedLoopTileJoin(r, s, r_ids, s_ids, dedup, &scalar_result,
                       &scalar_stats);
    SimdTileJoin(r, s, r_ids, s_ids, dedup, &simd_result, &simd_stats);
    EXPECT_TRUE(JoinResult::SameMultiset(scalar_result, simd_result))
        << (dedup ? "with" : "without") << " dedup tile: " << scalar_result.size()
        << " vs " << simd_result.size() << " pairs";
    EXPECT_EQ(scalar_stats.predicate_evaluations,
              simd_stats.predicate_evaluations);
    EXPECT_EQ(scalar_stats.tasks, simd_stats.tasks);
  }
}

TEST(SimdFilter, TileJoinHandlesEmptySides) {
  const Dataset r = testutil::Uniform(16, 5);
  const Dataset s = testutil::Uniform(16, 6);
  const std::vector<ObjectId> none;
  std::vector<ObjectId> all;
  for (std::size_t i = 0; i < r.size(); ++i) {
    all.push_back(static_cast<ObjectId>(i));
  }
  JoinResult out;
  SimdTileJoin(r, s, none, all, nullptr, &out);
  EXPECT_EQ(out.size(), 0u);
  SimdTileJoin(r, s, all, none, nullptr, &out);
  EXPECT_EQ(out.size(), 0u);
}

}  // namespace
}  // namespace swiftspatial
