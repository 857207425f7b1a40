#include "join/plane_sweep.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <type_traits>

namespace swiftspatial {

namespace {

// One object of an exact sweep input: its box, copied out of the dataset so
// the scan walks contiguous memory, plus the id it reports.
struct SweepEntry {
  Coord min_x, min_y, max_x, max_y;
  ObjectId id;

  Box box() const { return Box(min_x, min_y, max_x, max_y); }
};

bool EntryBefore(const SweepEntry& a, const SweepEntry& b) {
  return SweepBefore(a.min_x, a.id, b.min_x, b.id);
}

// Copies the boxes of `ids` into `entries` in sweep order. Sorts only when
// `ids` was not already in that order, so presorted lists pay one pass.
void GatherInSweepOrder(const Dataset& d, const std::vector<ObjectId>& ids,
                        std::vector<SweepEntry>* entries) {
  entries->resize(ids.size());
  bool ordered = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Box& b = d.box(static_cast<std::size_t>(ids[i]));
    SweepEntry& e = (*entries)[i];
    e = {b.min_x, b.min_y, b.max_x, b.max_y, ids[i]};
    if (i > 0 && EntryBefore(e, (*entries)[i - 1])) ordered = false;
  }
  if (!ordered) std::sort(entries->begin(), entries->end(), EntryBefore);
}

// Tests `probe` against the opposite-side entries [it, end) that start no
// later than it ends. Each of them overlaps `probe` on x (none starts
// before it, by sweep order), so only y is tested; `on_pair(r, s)` gets
// every pair that overlaps on y. Returns the number of y-tests performed.
template <bool kProbeIsR, typename Entry, typename OnPair>
uint64_t ScanForward(const Entry& probe, const Entry* it, const Entry* end,
                     OnPair& on_pair) {
  const Entry* const begin = it;
  for (; it != end && it->min_x <= probe.max_x; ++it) {
    if (probe.max_y >= it->min_y && it->max_y >= probe.min_y) {
      if constexpr (kProbeIsR) {
        on_pair(probe, *it);
      } else {
        on_pair(*it, probe);
      }
    }
  }
  return static_cast<uint64_t>(it - begin);
}

// The one sweep loop: takes the side whose next object starts first (R on
// ties) and scans the other side forward; once either side is exhausted, no
// pair is left. Returns the number of y-tests.
template <typename Entry, typename OnPair>
uint64_t Sweep(std::span<const Entry> r, std::span<const Entry> s,
               OnPair on_pair) {
  uint64_t checks = 0;
  const Entry* ri = r.data();
  const Entry* const r_end = ri + r.size();
  const Entry* si = s.data();
  const Entry* const s_end = si + s.size();
  while (ri != r_end && si != s_end) {
    if (ri->min_x <= si->min_x) {
      checks += ScanForward<true>(*ri, si, s_end, on_pair);
      ++ri;
    } else {
      checks += ScanForward<false>(*si, ri, r_end, on_pair);
      ++si;
    }
  }
  return checks;
}

static_assert(std::is_same_v<Coord, float> && sizeof(ObjectId) == 4,
              "SweepKey packs a float min_x and a 32-bit id");

// The sweep order as one integer: the order-preserving bits of min_x above
// the id, so ascending keys are ascending (min_x, id) -- SweepBefore's
// order. -0.0f becomes +0.0f first, because the two compare equal and must
// tie and break by id.
uint64_t SweepKey(Coord min_x, ObjectId id) {
  const Coord x = min_x == 0.0f ? 0.0f : min_x;
  uint32_t bits = std::bit_cast<uint32_t>(x);
  bits = (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
  return (uint64_t{bits} << 32) | static_cast<uint32_t>(id);
}

}  // namespace

void SortForSweep(const Dataset& d, std::vector<ObjectId>* ids) {
  std::vector<uint64_t> keys(ids->size());
  bool ordered = true;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const ObjectId id = (*ids)[i];
    keys[i] = SweepKey(d.box(static_cast<std::size_t>(id)).min_x, id);
    if (i > 0 && keys[i] < keys[i - 1]) ordered = false;
  }
  if (ordered) return;
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    (*ids)[i] = static_cast<ObjectId>(static_cast<uint32_t>(keys[i]));
  }
}

CellLattice::CellLattice(const Box& tile)
    : origin_{tile.min_x, tile.min_y, tile.min_x, tile.min_y} {
  const auto scale = [](Coord lo, Coord hi) {
    const double width = static_cast<double>(hi) - lo;
    return width > 0 ? static_cast<float>(std::min(
                           double{kSteps} / width,
                           double{std::numeric_limits<float>::max()}))
                     : 0.0f;
  };
  const float sx = scale(tile.min_x, tile.max_x);
  const float sy = scale(tile.min_y, tile.max_y);
  scale_ = {sx, sy, sx, sy};
}

void SortCellForSweep(const Dataset& d, std::span<CellEntry> cell) {
  if (cell.size() < 2) return;
  // Per-worker scratch, reused across the tiles of every half it sorts.
  thread_local std::vector<CellEntry> spare;
  spare.resize(cell.size());
  // Two stable counting passes, low byte of min_x then high byte, so each
  // run of equal min_x keeps its ascending ids. A cell holds an object at
  // most once and ids are 32-bit, so 32-bit counts do not overflow.
  std::array<std::array<uint32_t, 257>, 2> start{};
  for (const CellEntry& e : cell) {
    ++start[0][(e.min_x & 0xffu) + 1];
    ++start[1][(e.min_x >> 8) + 1];
  }
  for (auto& digit : start) {
    std::partial_sum(digit.begin(), digit.end(), digit.begin());
  }
  for (const CellEntry& e : cell) spare[start[0][e.min_x & 0xffu]++] = e;
  for (const CellEntry& e : spare) cell[start[1][e.min_x >> 8]++] = e;

  const auto exact_before = [&d](const CellEntry& a, const CellEntry& b) {
    return SweepBefore(d.box(static_cast<std::size_t>(a.id)).min_x, a.id,
                       d.box(static_cast<std::size_t>(b.id)).min_x, b.id);
  };
  for (auto run = cell.begin(); run != cell.end();) {
    const auto end = std::find_if(run + 1, cell.end(), [run](const auto& e) {
      return e.min_x != run->min_x;
    });
    if (end - run > 1) std::sort(run, end, exact_before);
    run = end;
  }
}

void PlaneSweepTileJoin(const Dataset& r, const Dataset& s,
                        const std::vector<ObjectId>& r_ids,
                        const std::vector<ObjectId>& s_ids,
                        const Box* dedup_tile, JoinResult* out,
                        JoinStats* stats) {
  uint64_t checks = 0;
  if (!r_ids.empty() && !s_ids.empty()) {
    // Per-worker scratch, reused across calls: a repeated join allocates
    // nothing once the buffers have grown to the largest input the thread
    // has joined, and they keep that size until the thread exits.
    thread_local std::vector<SweepEntry> r_entries;
    thread_local std::vector<SweepEntry> s_entries;
    GatherInSweepOrder(r, r_ids, &r_entries);
    GatherInSweepOrder(s, s_ids, &s_entries);
    checks = Sweep<SweepEntry>(
        r_entries, s_entries,
        [dedup_tile, out](const SweepEntry& re, const SweepEntry& se) {
          if (dedup_tile != nullptr &&
              !ReferencePointInTile(re.box(), se.box(), *dedup_tile)) {
            return;
          }
          out->Add(re.id, se.id);
        });
  }
  if (stats != nullptr) {
    stats->predicate_evaluations += checks;
    stats->tasks += 1;
  }
}

void PlaneSweepCellJoin(const Dataset& r, const Dataset& s,
                        std::span<const CellEntry> r_cell,
                        std::span<const CellEntry> s_cell,
                        const Box& dedup_tile, JoinResult* out,
                        JoinStats* stats) {
  uint64_t rechecks = 0;
  const uint64_t checks = Sweep<CellEntry>(
      r_cell, s_cell,
      [&](const CellEntry& re, const CellEntry& se) {
        ++rechecks;
        const Box& rb = r.box(static_cast<std::size_t>(re.id));
        const Box& sb = s.box(static_cast<std::size_t>(se.id));
        if (Intersects(rb, sb) && ReferencePointInTile(rb, sb, dedup_tile)) {
          out->Add(re.id, se.id);
        }
      });
  if (stats != nullptr) {
    stats->predicate_evaluations += checks;
    stats->exact_rechecks += rechecks;
    stats->tasks += 1;
  }
}

}  // namespace swiftspatial
