#include "refine/refinement.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "geometry/polygon.h"

namespace swiftspatial {

namespace {

// One stored polygon: its ring in the store, and whether the ring passed
// IsStrictlyConvexCcw at materialisation.
struct StoredRing {
  std::span<const Point> vertices;
  bool convex = false;
};

// Every polygon-kind object a candidate list references on one side,
// materialised once into one contiguous vertex array: slot k holds ring
// k's `vertices` points at [k * vertices, (k + 1) * vertices). An id's slot
// is its rank among the referenced ids, so slots follow id order and
// materialisation reads the dataset's boxes front to back. The rank comes
// from a bitmap of referenced ids plus a per-word count of the set bits
// before it, 12 bytes per 64 ids, so a lookup is one popcount on data that
// stays in cache, and no polygon owns an allocation. Written by the
// parallel build and read-only afterwards, so the verifiers share it
// without synchronisation; because MakeConvexPolygon is a pure function of
// (id, MBR, vertex count), the stored rings are bit-identical to per-pair
// materialisation.
class PolygonStore {
 public:
  /// Stores the rings of the ids `id_of` selects from `candidates`,
  /// materialising them in parallel over blocks of the id range.
  template <typename IdOf>
  void Build(const Dataset& d, const std::vector<ResultPair>& candidates,
             const IdOf& id_of, int vertices, std::size_t threads) {
    SWIFT_CHECK_GE(vertices, 4);
    vertices_ = static_cast<std::size_t>(vertices);
    ObjectId max_id = 0;
    for (const ResultPair& pair : candidates) {
      max_id = std::max(max_id, id_of(pair));
    }
    referenced_.assign(static_cast<std::size_t>(max_id) / 64 + 1, 0);
    for (const ResultPair& pair : candidates) {
      const auto id = static_cast<std::size_t>(id_of(pair));
      referenced_[id / 64] |= uint64_t{1} << (id % 64);
    }
    rank_.resize(referenced_.size());
    std::size_t slots = 0;
    for (std::size_t w = 0; w < referenced_.size(); ++w) {
      rank_[w] = static_cast<uint32_t>(slots);
      slots += static_cast<std::size_t>(std::popcount(referenced_[w]));
    }
    ring_points_.resize(slots * vertices_);
    convex_.resize(slots);
    constexpr std::size_t kWordsPerBlock = 64;  // 4096 ids
    ParallelFor(
        (referenced_.size() + kWordsPerBlock - 1) / kWordsPerBlock, threads,
        Schedule::kDynamic, [&](std::size_t block) {
          const std::size_t end =
              std::min(referenced_.size(), (block + 1) * kWordsPerBlock);
          for (std::size_t w = block * kWordsPerBlock; w < end; ++w) {
            std::size_t k = rank_[w];
            for (uint64_t bits = referenced_[w]; bits != 0;
                 bits &= bits - 1, ++k) {
              const std::size_t id =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
              const std::span<Point> ring(ring_points_.data() + k * vertices_,
                                          vertices_);
              MakeConvexPolygon(static_cast<uint64_t>(id), d.box(id), ring);
              convex_[k] = IsStrictlyConvexCcw(ring);
            }
          }
        });
  }

  StoredRing Get(ObjectId id) const {
    const auto i = static_cast<std::size_t>(id);
    const uint64_t below =
        referenced_[i / 64] & ((uint64_t{1} << (i % 64)) - 1);
    const std::size_t k =
        rank_[i / 64] + static_cast<std::size_t>(std::popcount(below));
    return {std::span<const Point>(ring_points_.data() + k * vertices_,
                                   vertices_),
            convex_[k] != 0};
  }

 private:
  std::size_t vertices_ = 0;
  std::vector<uint64_t> referenced_;  // bit per id: named by a candidate
  std::vector<uint32_t> rank_;        // per word: set bits in earlier words
  std::vector<Point> ring_points_;    // slot-major rings
  std::vector<uint8_t> convex_;       // per slot: IsStrictlyConvexCcw
};

// Exact test for one candidate pair against the stored geometry.
bool VerifyPair(const Dataset& r, GeometryKind r_kind, const Dataset& s,
                GeometryKind s_kind, const PolygonStore& r_store,
                const PolygonStore& s_store, ResultPair pair) {
  const Box& rb = r.box(static_cast<std::size_t>(pair.r));
  const Box& sb = s.box(static_cast<std::size_t>(pair.s));

  if (r_kind == GeometryKind::kPoint && s_kind == GeometryKind::kPoint) {
    // Point-point: MBR test is already exact.
    return Intersects(rb, sb);
  }
  if (r_kind == GeometryKind::kPoint) {
    return PointInPolygon(Point{rb.min_x, rb.min_y},
                          s_store.Get(pair.s).vertices);
  }
  if (s_kind == GeometryKind::kPoint) {
    return PointInPolygon(Point{sb.min_x, sb.min_y},
                          r_store.Get(pair.r).vertices);
  }
  const StoredRing a = r_store.Get(pair.r);
  const StoredRing b = s_store.Get(pair.s);
  if (a.convex && b.convex) return ConvexRingsIntersect(a.vertices, b.vertices);
  return PolygonsIntersect(a.vertices, b.vertices);
}

}  // namespace

JoinResult Refine(const Dataset& r, GeometryKind r_kind, const Dataset& s,
                  GeometryKind s_kind,
                  const std::vector<ResultPair>& candidates,
                  const RefinementOptions& options, RefinementStats* stats) {
  const std::size_t threads = std::max<std::size_t>(1, options.num_threads);

  PolygonStore r_store, s_store;
  if (r_kind == GeometryKind::kPolygon) {
    r_store.Build(
        r, candidates, [](const ResultPair& p) { return p.r; },
        options.polygon_vertices, threads);
  }
  if (s_kind == GeometryKind::kPolygon) {
    s_store.Build(
        s, candidates, [](const ResultPair& p) { return p.s; },
        options.polygon_vertices, threads);
  }

  // Each worker verifies whole contiguous ranges and writes one keep flag
  // per candidate; the survivors are then compacted in candidate order.
  constexpr std::size_t kRange = 512;
  std::vector<uint8_t> keep(candidates.size());
  ParallelFor((candidates.size() + kRange - 1) / kRange, threads,
              Schedule::kDynamic, [&](std::size_t range) {
                const std::size_t end =
                    std::min(candidates.size(), (range + 1) * kRange);
                for (std::size_t i = range * kRange; i < end; ++i) {
                  keep[i] = VerifyPair(r, r_kind, s, s_kind, r_store, s_store,
                                       candidates[i]);
                }
              });

  JoinResult out;
  out.Reserve(static_cast<std::size_t>(
      std::count(keep.begin(), keep.end(), uint8_t{1})));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i] != 0) out.Add(candidates[i].r, candidates[i].s);
  }
  if (stats != nullptr) {
    stats->candidates = candidates.size();
    stats->verified = out.size();
    stats->false_positives = candidates.size() - out.size();
  }
  return out;
}

}  // namespace swiftspatial
