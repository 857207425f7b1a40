#include "join/simd_filter.h"

#include <algorithm>
#include <bit>

namespace swiftspatial {

namespace {

// ORs the hits of candidates [i, n) into `mask` through the short-block
// compare. The callers' vector and block bodies stop on a multiple of 8, so
// the fewer than 64 remaining candidates never straddle a mask word.
void FilterTail(const Box& probe, const Coord* min_x, const Coord* min_y,
                const Coord* max_x, const Coord* max_y, std::size_t i,
                std::size_t n, uint64_t* mask) {
  if (i == n) return;
  uint64_t tail = 0;
  FilterSoAShort(probe, min_x + i, min_y + i, max_x + i, max_y + i, n - i,
                 &tail);
  mask[i >> 6] |= tail << (i & 63);
}

}  // namespace

const char* SimdFilterBackend() {
#if defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

void FilterSoA(const Box& probe, const Coord* min_x, const Coord* min_y,
               const Coord* max_x, const Coord* max_y, std::size_t n,
               uint64_t* mask) {
#if defined(__AVX2__)
  // 8 candidates per compare throughout.
  FilterSoAShort(probe, min_x, min_y, max_x, max_y, n, mask);
#else
  // Scalar fallback: 64-candidate blocks. The comparisons write one byte
  // per candidate in a branchless elementwise loop the compiler
  // auto-vectorizes (a variable-shift OR into the mask word would defeat
  // it -- the pack is split out so only the cheap byte reduction stays
  // scalar).
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    unsigned char hits[64];
    for (int b = 0; b < 64; ++b) {
      const std::size_t j = i + static_cast<std::size_t>(b);
      hits[b] = static_cast<unsigned char>(
          (probe.max_x >= min_x[j]) & (max_x[j] >= probe.min_x) &
          (probe.max_y >= min_y[j]) & (max_y[j] >= probe.min_y));
    }
    uint64_t word = 0;
    for (int b = 0; b < 64; ++b) {
      word |= static_cast<uint64_t>(hits[b]) << b;
    }
    mask[i >> 6] = word;
  }
  // Tail: fewer than 64 candidates, one whole word.
  if (i < n) {
    FilterSoAShort(probe, min_x + i, min_y + i, max_x + i, max_y + i, n - i,
                   mask + (i >> 6));
  }
#endif
}

void FilterSoAProbeBlock(const Coord* p_min_x, const Coord* p_min_y,
                         const Coord* p_max_x, const Coord* p_max_y,
                         std::size_t np, const Coord* min_x,
                         const Coord* min_y, const Coord* max_x,
                         const Coord* max_y, std::size_t n, uint64_t* masks) {
  const std::size_t words = FilterMaskWords(n);
  std::size_t p = 0;
#if defined(__AVX2__)
  // Probe quads over 8-candidate vectors: the four candidate loads are
  // amortised across four probes held broadcast in registers, quartering
  // the load traffic of the per-probe kernel.
  for (; p + 4 <= np; p += 4) {
    uint64_t* m[4];
    __m256 q_max_x[4], q_min_x[4], q_max_y[4], q_min_y[4];
    for (std::size_t b = 0; b < 4; ++b) {
      m[b] = masks + (p + b) * words;
      std::fill_n(m[b], words, uint64_t{0});
      q_max_x[b] = _mm256_set1_ps(p_max_x[p + b]);
      q_min_x[b] = _mm256_set1_ps(p_min_x[p + b]);
      q_max_y[b] = _mm256_set1_ps(p_max_y[p + b]);
      q_min_y[b] = _mm256_set1_ps(p_min_y[p + b]);
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 c_min_x = _mm256_loadu_ps(min_x + i);
      const __m256 c_max_x = _mm256_loadu_ps(max_x + i);
      const __m256 c_min_y = _mm256_loadu_ps(min_y + i);
      const __m256 c_max_y = _mm256_loadu_ps(max_y + i);
      for (std::size_t b = 0; b < 4; ++b) {
        const __m256 hit_x = _mm256_and_ps(
            _mm256_cmp_ps(q_max_x[b], c_min_x, _CMP_GE_OQ),
            _mm256_cmp_ps(c_max_x, q_min_x[b], _CMP_GE_OQ));
        const __m256 hit_y = _mm256_and_ps(
            _mm256_cmp_ps(q_max_y[b], c_min_y, _CMP_GE_OQ),
            _mm256_cmp_ps(c_max_y, q_min_y[b], _CMP_GE_OQ));
        const auto bits = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_and_ps(hit_x, hit_y)));
        m[b][i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
      }
    }
    // Candidate tail: at most 7 per probe.
    for (std::size_t b = 0; b < 4; ++b) {
      FilterTail(Box(p_min_x[p + b], p_min_y[p + b], p_max_x[p + b],
                     p_max_y[p + b]),
                 min_x, min_y, max_x, max_y, i, n, m[b]);
    }
  }
#else
  // Scalar fallback, candidate-block-major: each 64-candidate chunk (1 KB
  // of SoA coordinates) is walked once per probe while it is L1-hot, so the
  // candidate arrays are streamed from memory once per *probe batch*
  // instead of once per probe. The per-probe inner loop keeps exactly the
  // elementwise-byte compare + separate pack shape of FilterSoA -- the form
  // compilers auto-vectorize; interleaving probes inside the candidate loop
  // would break it.
  for (std::size_t q = 0; q < np; ++q) {
    std::fill_n(masks + q * words, words, uint64_t{0});
  }
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (std::size_t q = 0; q < np; ++q) {
      const Coord qmxx = p_max_x[q], qmnx = p_min_x[q];
      const Coord qmxy = p_max_y[q], qmny = p_min_y[q];
      unsigned char hits[64];
      for (int c = 0; c < 64; ++c) {
        const std::size_t j = i + static_cast<std::size_t>(c);
        hits[c] = static_cast<unsigned char>(
            (qmxx >= min_x[j]) & (max_x[j] >= qmnx) & (qmxy >= min_y[j]) &
            (max_y[j] >= qmny));
      }
      uint64_t word = 0;
      for (int c = 0; c < 64; ++c) {
        word |= static_cast<uint64_t>(hits[c]) << c;
      }
      masks[q * words + (i >> 6)] = word;
    }
  }
  // Candidate tail: at most 63 per probe.
  for (std::size_t q = 0; q < np; ++q) {
    FilterTail(Box(p_min_x[q], p_min_y[q], p_max_x[q], p_max_y[q]), min_x,
               min_y, max_x, max_y, i, n, masks + q * words);
  }
  p = np;  // the block handled every probe
#endif
  // Probe tail of the AVX2 quad path (< 4 remaining; no-op for the scalar
  // fallback): the per-probe kernel.
  for (; p < np; ++p) {
    FilterSoA(Box(p_min_x[p], p_min_y[p], p_max_x[p], p_max_y[p]), min_x,
              min_y, max_x, max_y, n, masks + p * words);
  }
}

void SimdTileJoin(const Dataset& r, const Dataset& s,
                  const std::vector<ObjectId>& r_ids,
                  const std::vector<ObjectId>& s_ids, const Box* dedup_tile,
                  JoinResult* out, JoinStats* stats) {
  const BoxBlock probes = BoxBlock::FromSubset(r, r_ids);
  const BoxBlock block = BoxBlock::FromSubset(s, s_ids);
  const std::size_t words = FilterMaskWords(block.size());
  // Probes per kernel call: a multiple of the quad so only the last call
  // takes the per-probe tail, small enough that the mask staging buffer
  // stays cache-resident even for large tiles.
  constexpr std::size_t kProbeTile = 16;
  std::vector<uint64_t> masks(kProbeTile * words);
  for (std::size_t p0 = 0; p0 < probes.size(); p0 += kProbeTile) {
    const std::size_t np = std::min(kProbeTile, probes.size() - p0);
    FilterSoAProbeBlock(probes.min_x() + p0, probes.min_y() + p0,
                        probes.max_x() + p0, probes.max_y() + p0, np,
                        block.min_x(), block.min_y(), block.max_x(),
                        block.max_y(), block.size(), masks.data());
    for (std::size_t b = 0; b < np; ++b) {
      const Box rb = probes.BoxAt(p0 + b);
      const ObjectId ri = probes.id(p0 + b);
      const uint64_t* mask = masks.data() + b * words;
      for (std::size_t w = 0; w < words; ++w) {
        uint64_t bits = mask[w];
        while (bits != 0) {
          const std::size_t j = (w << 6) + std::countr_zero(bits);
          bits &= bits - 1;
          // The candidate's coordinates come from the SoA arrays already in
          // cache, not a strided re-fetch from the Dataset.
          if (dedup_tile != nullptr &&
              !ReferencePointInTile(rb, block.BoxAt(j), *dedup_tile)) {
            continue;
          }
          out->Add(ri, block.id(j));
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->predicate_evaluations +=
        static_cast<uint64_t>(r_ids.size()) * s_ids.size();
    stats->tasks += 1;
  }
}

}  // namespace swiftspatial
