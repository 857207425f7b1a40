// Scalar-vs-SIMD MBR filter sweep: the microbenchmark behind the BoxBlock /
// simd_filter subsystem. A block of candidate MBRs is filtered by a batch of
// probe boxes three ways --
//   aos_scalar  : per-pair geometry::Intersects over the array-of-structs
//                 Box layout (the pre-SIMD tile-join inner loop),
//   soa_scalar  : the same comparisons over BoxBlock's SoA arrays
//                 (NestedLoopTileJoin's rewired inner loop),
//   simd_kernel : the batched bitmask kernel (FilterBoxBlock; AVX2 when the
//                 binary is compiled with -mavx2/-march=native, otherwise
//                 the auto-vectorized scalar fallback),
//   probe_blocked : the probe-blocked kernel (FilterSoAProbeBlock): both
//                 sides batched, candidate loads amortised across a probe
//                 quad -- the before/after of batching probes as well as
//                 candidates
// -- and predicate throughput (million MBR pairs per second) is reported.
// All four paths must agree on the match count; the sweep aborts if not.
//
// Default: 64 probes x 100k candidates = 6.4M pairs per pass. --scale=N
// changes the candidate count (--scale=1000000 for a 64M-pair sweep);
// --reps=N the timed repetitions.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "geometry/box_block.h"
#include "join/simd_filter.h"

namespace swiftspatial::bench {
namespace {

constexpr int kProbes = 64;
// Rounds behind each gated median, whatever --reps asks for: with one
// round a single slow sample (a preempted run) decides a gate.
constexpr int kMinGateReps = 5;

int Main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Parse(argc, argv, /*default_scale=*/100000);

  std::printf("SIMD filter kernel sweep (backend: %s)\n", SimdFilterBackend());
  TablePrinter table(
      "Batched MBR filter: predicate throughput, one probe vs N candidates",
      {"candidates", "pairs", "matches", "aos_scalar_Mp/s", "soa_scalar_Mp/s",
       "simd_kernel_Mp/s", "probe_blocked_Mp/s", "kernel_vs_aos",
       "blocked_vs_kernel"});

  bool throughput_ok = true;
  JsonReporter json("fig_simd_filter", env);
  double worst_ratio = 1e9;
  double worst_blocked_ratio = 1e9;
  for (const uint64_t scale : env.scales) {
    // Uniform rectangles at a density giving a few matches per probe, so the
    // match-recording branch is exercised but does not dominate.
    UniformConfig cfg;
    cfg.count = scale;
    cfg.map.map_size = 1000.0;
    cfg.min_edge = 0.5;
    cfg.max_edge = 4.0;
    cfg.seed = 7001;
    const Dataset candidates = GenerateUniform(cfg);
    const BoxBlock block = BoxBlock::FromBoxes(candidates.boxes());

    Rng rng(7002);
    std::vector<Box> probes;
    probes.reserve(kProbes);
    for (int p = 0; p < kProbes; ++p) {
      const Coord x = static_cast<Coord>(rng.Uniform(0, 990));
      const Coord y = static_cast<Coord>(rng.Uniform(0, 990));
      probes.push_back(Box(x, y, x + 10, y + 10));
    }

    const uint64_t pairs = static_cast<uint64_t>(kProbes) * scale;
    uint64_t aos_matches = 0, soa_matches = 0, simd_matches = 0;

    const auto aos_scalar = [&] {
      uint64_t m = 0;
      for (const Box& probe : probes) {
        for (const Box& c : candidates.boxes()) m += Intersects(probe, c);
      }
      aos_matches = m;
    };

    const double soa_sec = MedianSeconds(
        [&] {
          uint64_t m = 0;
          const std::size_t n = block.size();
          const Coord* min_x = block.min_x();
          const Coord* min_y = block.min_y();
          const Coord* max_x = block.max_x();
          const Coord* max_y = block.max_y();
          for (const Box& probe : probes) {
            for (std::size_t i = 0; i < n; ++i) {
              m += probe.max_x >= min_x[i] && max_x[i] >= probe.min_x &&
                   probe.max_y >= min_y[i] && max_y[i] >= probe.min_y;
            }
          }
          soa_matches = m;
        },
        env.reps);

    std::vector<uint64_t> mask(FilterMaskWords(block.size()));
    const auto simd_kernel = [&] {
      uint64_t m = 0;
      for (const Box& probe : probes) {
        FilterBoxBlock(probe, block, mask.data());
        for (const uint64_t word : mask) {
          m += static_cast<uint64_t>(__builtin_popcountll(word));
        }
      }
      simd_matches = m;
    };

    // The probe-blocked kernel (both sides batched): probes processed in
    // the same 16-probe tiles SimdTileJoin uses, candidate arrays streamed
    // once per probe quad instead of once per probe. The three gated paths
    // -- AoS, kernel, probe-blocked -- are timed interleaved, as both gates
    // below compare two of them.
    uint64_t blocked_matches = 0;
    const BoxBlock probe_block = BoxBlock::FromBoxes(probes);
    constexpr std::size_t kProbeTile = 16;
    const std::size_t words = FilterMaskWords(block.size());
    std::vector<uint64_t> masks(kProbeTile * words);
    const std::vector<double> gated = InterleavedMedianSeconds(
        {aos_scalar, simd_kernel,
         [&] {
          uint64_t m = 0;
          for (std::size_t p0 = 0; p0 < probe_block.size();
               p0 += kProbeTile) {
            const std::size_t np =
                std::min(kProbeTile, probe_block.size() - p0);
            FilterSoAProbeBlock(
                probe_block.min_x() + p0, probe_block.min_y() + p0,
                probe_block.max_x() + p0, probe_block.max_y() + p0, np,
                block.min_x(), block.min_y(), block.max_x(), block.max_y(),
                block.size(), masks.data());
            for (std::size_t w = 0; w < np * words; ++w) {
              m += static_cast<uint64_t>(__builtin_popcountll(masks[w]));
            }
          }
          blocked_matches = m;
        }},
        std::max(env.reps, kMinGateReps));
    const double aos_sec = gated[0];
    const double simd_sec = gated[1];
    const double blocked_sec = gated[2];

    if (aos_matches != soa_matches || aos_matches != simd_matches ||
        aos_matches != blocked_matches) {
      std::fprintf(stderr,
                   "FATAL: paths disagree (aos=%llu soa=%llu simd=%llu "
                   "probe_blocked=%llu)\n",
                   static_cast<unsigned long long>(aos_matches),
                   static_cast<unsigned long long>(soa_matches),
                   static_cast<unsigned long long>(simd_matches),
                   static_cast<unsigned long long>(blocked_matches));
      return 1;
    }

    const auto mpps = [&](double sec) {
      return static_cast<double>(pairs) / sec / 1e6;
    };
    table.AddRow({std::to_string(scale), std::to_string(pairs),
                  std::to_string(aos_matches),
                  TablePrinter::Fmt(mpps(aos_sec), 0),
                  TablePrinter::Fmt(mpps(soa_sec), 0),
                  TablePrinter::Fmt(mpps(simd_sec), 0),
                  TablePrinter::Fmt(mpps(blocked_sec), 0),
                  Speedup(aos_sec, simd_sec),
                  Speedup(simd_sec, blocked_sec)});
    json.AddRow(std::to_string(scale),
                {{"aos_scalar_seconds", aos_sec},
                 {"soa_scalar_seconds", soa_sec},
                 {"simd_kernel_seconds", simd_sec},
                 {"probe_blocked_seconds", blocked_sec},
                 {"matches", static_cast<double>(aos_matches)}});
    // Throughput pin for the bitmask *pack* path. A scalar-backend
    // regression to a per-bit pack loop (which defeats auto-vectorization
    // of the compare loop) drags kernel throughput down to ~1.0x the
    // strided per-pair AoS baseline; the healthy block-pack kernel
    // measures ~5x (scalar) to ~12x (AVX2). The 1.2x threshold sits above
    // the regression signature with plenty of headroom below the healthy
    // range, so shared-runner timing noise can't flip it.
    worst_ratio = std::min(worst_ratio, aos_sec / simd_sec);
    throughput_ok = throughput_ok && aos_sec / simd_sec >= 1.2;
    // The probe-blocked kernel amortises candidate loads across a probe
    // quad held in registers: ~2x the per-probe kernel on the avx2 backend
    // (load-port bound), parity on the scalar fallback (compute bound --
    // the auto-vectorized compare+pack dominates either way). Guard only
    // against blocking making things *worse*; the generous 0.7x floor sits
    // below both backends' steady state but above a genuinely broken
    // blocking scheme.
    worst_blocked_ratio = std::min(worst_blocked_ratio,
                                   simd_sec / blocked_sec);
    throughput_ok = throughput_ok && simd_sec / blocked_sec >= 0.7;
  }
  table.Print();
  std::printf(
      "Expected shape: the SoA layout alone beats the strided AoS loop, the "
      "batched kernel widens the gap further, and probe-blocking roughly "
      "doubles the avx2 kernel again (scalar backend: parity -- the win is "
      "register-level load amortisation, which auto-vectorized scalar code "
      "cannot express).\n");
  std::printf(
      "throughput assertions (kernel >= 1.2x aos_scalar, worst %.2fx; "
      "probe_blocked >= 0.7x kernel, worst %.2fx): %s\n",
      worst_ratio, worst_blocked_ratio, throughput_ok ? "PASS" : "FAIL");
  if (!json.WriteIfRequested()) return 1;
  return throughput_ok ? 0 : 1;
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }
