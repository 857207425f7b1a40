#include "refine/refinement.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "geometry/polygon.h"

namespace swiftspatial {

namespace {

// Decides one candidate pair from the two MBRs, or leaves it undecided.
MbrVerdict DecidePair(const Box& rb, GeometryKind r_kind, const Box& sb,
                      GeometryKind s_kind) {
  if (r_kind == GeometryKind::kPoint && s_kind == GeometryKind::kPoint) {
    // Point-point: the MBR test is already exact.
    return Intersects(rb, sb) ? MbrVerdict::kHit : MbrVerdict::kMiss;
  }
  if (r_kind == GeometryKind::kPoint) {
    return DecidePointFromMbr(Point{rb.min_x, rb.min_y}, sb);
  }
  if (s_kind == GeometryKind::kPoint) {
    return DecidePointFromMbr(Point{sb.min_x, sb.min_y}, rb);
  }
  return DecideRingsFromMbrs(rb, sb);
}

// Exact test for one undecided pair (never point-point): materialises the
// ring of each polygon-kind side into `ring_a` / `ring_b` (each
// `vertices` points), adding one to `rings_built` per ring, and tests them.
// A pair of rings that are both strictly convex and counter-clockwise takes
// the separating-edge test.
bool VerifyPair(ResultPair pair, const Box& rb, GeometryKind r_kind,
                const Box& sb, GeometryKind s_kind, std::span<Point> ring_a,
                std::span<Point> ring_b, std::size_t& rings_built) {
  if (r_kind == GeometryKind::kPoint) {
    MakeConvexPolygon(static_cast<uint64_t>(pair.s), sb, ring_b);
    ++rings_built;
    return PointInPolygon(Point{rb.min_x, rb.min_y}, ring_b);
  }
  MakeConvexPolygon(static_cast<uint64_t>(pair.r), rb, ring_a);
  ++rings_built;
  if (s_kind == GeometryKind::kPoint) {
    return PointInPolygon(Point{sb.min_x, sb.min_y}, ring_a);
  }
  MakeConvexPolygon(static_cast<uint64_t>(pair.s), sb, ring_b);
  ++rings_built;
  if (IsStrictlyConvexCcw(ring_a) && IsStrictlyConvexCcw(ring_b)) {
    return ConvexRingsIntersect(ring_a, ring_b);
  }
  return PolygonsIntersect(ring_a, ring_b);
}

// Per-candidate outcome: a MbrVerdict, or kVerified plus the exact answer.
// Bit 0 is the keep flag either way.
constexpr uint8_t kHitBit = 1;
constexpr uint8_t kVerified = 4;
static_assert(static_cast<uint8_t>(MbrVerdict::kHit) == kHitBit &&
              (static_cast<uint8_t>(MbrVerdict::kMiss) & kHitBit) == 0 &&
              (static_cast<uint8_t>(MbrVerdict::kUndecided) & kHitBit) == 0);

}  // namespace

JoinResult Refine(const Dataset& r, GeometryKind r_kind, const Dataset& s,
                  GeometryKind s_kind,
                  const std::vector<ResultPair>& candidates,
                  const RefinementOptions& options, RefinementStats* stats) {
  SWIFT_CHECK_GE(options.polygon_vertices, 4);
  const std::size_t threads = std::max<std::size_t>(1, options.num_threads);
  const auto vertices = static_cast<std::size_t>(options.polygon_vertices);

  // Each worker takes whole contiguous ranges of candidates. It decides each
  // candidate from its two MBRs and materialises the rings of, and
  // verifies, only the undecided ones, writing one outcome per candidate
  // and counting the rings it built.
  constexpr std::size_t kRange = 512;
  std::vector<uint8_t> outcome(candidates.size());
  std::vector<Point> rings(threads * 2 * vertices);  // two per worker
  std::vector<std::size_t> rings_built(threads);
  ParallelForWorker(
      (candidates.size() + kRange - 1) / kRange, threads, Schedule::kDynamic,
      [&](std::size_t range, std::size_t worker) {
        const std::span<Point> ring_a(rings.data() + worker * 2 * vertices,
                                      vertices);
        const std::span<Point> ring_b(ring_a.data() + vertices, vertices);
        const std::size_t end =
            std::min(candidates.size(), (range + 1) * kRange);
        std::size_t built = 0;
        for (std::size_t i = range * kRange; i < end; ++i) {
          const ResultPair pair = candidates[i];
          const Box& rb = r.box(static_cast<std::size_t>(pair.r));
          const Box& sb = s.box(static_cast<std::size_t>(pair.s));
          const MbrVerdict verdict = DecidePair(rb, r_kind, sb, s_kind);
          outcome[i] =
              verdict != MbrVerdict::kUndecided
                  ? static_cast<uint8_t>(verdict)
                  : kVerified | (VerifyPair(pair, rb, r_kind, sb, s_kind,
                                            ring_a, ring_b, built)
                                     ? kHitBit
                                     : 0);
        }
        rings_built[worker] += built;
      });

  // Compact the survivors in candidate order.
  std::size_t kept = 0;
  std::size_t undecided = 0;
  for (const uint8_t o : outcome) {
    kept += o & kHitBit;
    undecided += (o & kVerified) != 0;
  }
  JoinResult out;
  out.Reserve(kept);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if ((outcome[i] & kHitBit) != 0) out.Add(candidates[i].r, candidates[i].s);
  }
  if (stats != nullptr) {
    const auto decided_hits = static_cast<std::size_t>(
        std::count(outcome.begin(), outcome.end(),
                   static_cast<uint8_t>(MbrVerdict::kHit)));
    stats->candidates = candidates.size();
    stats->verified = out.size();
    stats->false_positives = candidates.size() - out.size();
    stats->decided_hits = decided_hits;
    stats->decided_misses = candidates.size() - undecided - decided_hits;
    stats->rings_materialised =
        std::accumulate(rings_built.begin(), rings_built.end(),
                        std::size_t{0});
  }
  return out;
}

}  // namespace swiftspatial
