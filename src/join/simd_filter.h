// Batched MBR filter kernel: tests one probe box against N candidate boxes
// held in a structure-of-arrays BoxBlock and returns a match bitmask. This
// is the CPU-side counterpart of the SwiftSpatial join unit's parallel
// comparator banks (Fig. 3): instead of one Intersects call per pair, W
// candidates are compared per vector instruction.
//
// Two code paths share one set of semantics:
//   - an AVX2 path (compiled when the translation unit is built with
//     -mavx2 / -march=native, i.e. __AVX2__ is defined) doing 8 boxes per
//     iteration with _CMP_GE_OQ comparisons;
//   - a portable scalar fallback processing 64-candidate blocks: a
//     branchless elementwise compare loop writes one hit byte per candidate
//     (the form compilers auto-vectorize; OR-ing variable-shifted bits
//     directly into the mask word would defeat vectorization), then a
//     separate cheap pack loop folds the 64 bytes into the output word.
// Short runs -- the tails of the scalar blocks and of the AVX2 probe quads,
// and whole R-tree nodes in the synchronous traversal's block join -- go
// through the inline FilterSoAShort, which compares 8 (AVX2) or 4 (SSE2,
// the x86-64 baseline) candidates per instruction and finishes with a
// branch-free scalar loop. With AVX2, FilterSoA is FilterSoAShort.
//
// Comparison semantics are bit-identical to geometry::Intersects: closed
// boundaries (>=), so touching edges and corners match; any comparison
// against NaN is false in both paths (ordered-quiet vector compares mirror
// the scalar IEEE `>=`), so a box with a NaN coordinate matches nothing.
// Callers that must not depend on that quirk reject non-finite boxes at
// ingest instead (EngineConfig::validate_inputs). The regression suite in
// tests/join/simd_filter_test.cc diffs the kernel against the scalar
// predicate on adversarial inputs so these semantics cannot silently drift.
#ifndef SWIFTSPATIAL_JOIN_SIMD_FILTER_H_
#define SWIFTSPATIAL_JOIN_SIMD_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "datagen/dataset.h"
#include "geometry/box.h"
#include "geometry/box_block.h"
#include "join/result.h"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace swiftspatial {

/// Which kernel implementation this binary was compiled with: "avx2" or
/// "scalar" (the auto-vectorizable fallback).
const char* SimdFilterBackend();

/// Number of 64-bit mask words needed for an n-candidate filter call.
constexpr std::size_t FilterMaskWords(std::size_t n) { return (n + 63) / 64; }

/// Short-block compare, inline so that a call per R-tree node entry costs
/// no call: bit i of `mask` is set iff `probe` intersects candidate i, with
/// the semantics of FilterSoA. `mask` must hold FilterMaskWords(n) words;
/// all of them are overwritten and bits at positions >= n are zero. Reads
/// exactly n candidates per array, so callers need no padding.
inline void FilterSoAShort(const Box& probe, const Coord* min_x,
                           const Coord* min_y, const Coord* max_x,
                           const Coord* max_y, std::size_t n,
                           uint64_t* mask) {
#if defined(__AVX2__)
  const __m256 p8_max_x = _mm256_set1_ps(probe.max_x);
  const __m256 p8_min_x = _mm256_set1_ps(probe.min_x);
  const __m256 p8_max_y = _mm256_set1_ps(probe.max_y);
  const __m256 p8_min_y = _mm256_set1_ps(probe.min_y);
#endif
#if defined(__SSE2__)
  const __m128 p4_max_x = _mm_set1_ps(probe.max_x);
  const __m128 p4_min_x = _mm_set1_ps(probe.min_x);
  const __m128 p4_max_y = _mm_set1_ps(probe.max_y);
  const __m128 p4_min_y = _mm_set1_ps(probe.min_y);
#endif
  std::size_t i = 0;
  const std::size_t words = FilterMaskWords(n);
  for (std::size_t w = 0; w < words; ++w) {
    // Every word but the last ends on a multiple of 64, so only the last
    // can leave a remainder for the scalar loop, and no lane group
    // straddles a word.
    const std::size_t end = std::min(n, i + 64);
    uint64_t word = 0;
#if defined(__AVX2__)
    // _CMP_GE_OQ: ordered >=, false when either operand is NaN.
    for (; i + 8 <= end; i += 8) {
      const __m256 hit_x = _mm256_and_ps(
          _mm256_cmp_ps(p8_max_x, _mm256_loadu_ps(min_x + i), _CMP_GE_OQ),
          _mm256_cmp_ps(_mm256_loadu_ps(max_x + i), p8_min_x, _CMP_GE_OQ));
      const __m256 hit_y = _mm256_and_ps(
          _mm256_cmp_ps(p8_max_y, _mm256_loadu_ps(min_y + i), _CMP_GE_OQ),
          _mm256_cmp_ps(_mm256_loadu_ps(max_y + i), p8_min_y, _CMP_GE_OQ));
      word |= static_cast<uint64_t>(static_cast<uint32_t>(
                  _mm256_movemask_ps(_mm256_and_ps(hit_x, hit_y))))
              << (i & 63);
    }
#endif
#if defined(__SSE2__)
    // _mm_cmpge_ps is an ordered compare too: NaN lanes are false.
    for (; i + 4 <= end; i += 4) {
      const __m128 hit_x =
          _mm_and_ps(_mm_cmpge_ps(p4_max_x, _mm_loadu_ps(min_x + i)),
                     _mm_cmpge_ps(_mm_loadu_ps(max_x + i), p4_min_x));
      const __m128 hit_y =
          _mm_and_ps(_mm_cmpge_ps(p4_max_y, _mm_loadu_ps(min_y + i)),
                     _mm_cmpge_ps(_mm_loadu_ps(max_y + i), p4_min_y));
      word |= static_cast<uint64_t>(static_cast<uint32_t>(
                  _mm_movemask_ps(_mm_and_ps(hit_x, hit_y))))
              << (i & 63);
    }
#endif
    for (; i < end; ++i) {
      const bool hit = (probe.max_x >= min_x[i]) & (max_x[i] >= probe.min_x) &
                       (probe.max_y >= min_y[i]) & (max_y[i] >= probe.min_y);
      word |= static_cast<uint64_t>(hit) << (i & 63);
    }
    mask[w] = word;
  }
}

/// Core kernel over raw SoA coordinate arrays: bit i of `mask` is set iff
/// `probe` intersects candidate i (closed boundaries, identical to
/// geometry::Intersects). `mask` must hold FilterMaskWords(n) words; all of
/// them are overwritten and bits at positions >= n are zero.
void FilterSoA(const Box& probe, const Coord* min_x, const Coord* min_y,
               const Coord* max_x, const Coord* max_y, std::size_t n,
               uint64_t* mask);

/// Convenience overload over a BoxBlock.
inline void FilterBoxBlock(const Box& probe, const BoxBlock& block,
                           uint64_t* mask) {
  FilterSoA(probe, block.min_x(), block.min_y(), block.max_x(), block.max_y(),
            block.size(), mask);
}

/// Probe-blocked kernel: filters `np` probes (their coordinates in SoA
/// arrays, exactly as a BoxBlock stores them) against the same n candidates
/// in one pass. Per-probe semantics identical to FilterSoA; the point is
/// bandwidth: the candidate arrays are streamed once per probe *quad*
/// instead of once per probe, with the four candidate loads serving four
/// probe comparisons from registers (the hardware analogue: SwiftSpatial's
/// join unit feeds one fetched S-tile to its comparator banks for a whole
/// block of R entries, not per R row). `masks` must hold
/// np * FilterMaskWords(n) words, probe-major: probe p's words start at
/// p * FilterMaskWords(n). All are overwritten.
void FilterSoAProbeBlock(const Coord* p_min_x, const Coord* p_min_y,
                         const Coord* p_max_x, const Coord* p_max_y,
                         std::size_t np, const Coord* min_x,
                         const Coord* min_y, const Coord* max_x,
                         const Coord* max_y, std::size_t n, uint64_t* masks);

/// Tile-level join through the batched kernel: probes from `r_ids` are
/// gathered into a BoxBlock alongside the `s_ids` candidates and filtered
/// through the probe-blocked kernel (FilterSoAProbeBlock), so both sides of
/// the all-pairs tile join are batched. Matches surviving the optional
/// reference-point dedup are appended to `out`. Drop-in equivalent of
/// NestedLoopTileJoin (same result multiset, same stats accounting);
/// selected in partition drivers with TileJoin::kSimd.
void SimdTileJoin(const Dataset& r, const Dataset& s,
                  const std::vector<ObjectId>& r_ids,
                  const std::vector<ObjectId>& s_ids, const Box* dedup_tile,
                  JoinResult* out, JoinStats* stats = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_SIMD_FILTER_H_
