#include "join/plane_sweep.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

namespace swiftspatial {

namespace {

// One object of a sweep input: its box, copied out of the dataset so the
// scan walks contiguous memory, plus the id it reports.
struct SweepEntry {
  Box box;
  ObjectId id;
};

bool EntryBefore(const SweepEntry& a, const SweepEntry& b) {
  return SweepBefore(a.box.min_x, a.id, b.box.min_x, b.id);
}

// Copies the boxes of `ids` into `entries` in sweep order. Sorts only when
// `ids` was not already in that order, so presorted plans pay one pass.
void GatherInSweepOrder(const Dataset& d, const std::vector<ObjectId>& ids,
                        std::vector<SweepEntry>* entries) {
  entries->resize(ids.size());
  bool ordered = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SweepEntry& e = (*entries)[i];
    e.box = d.box(static_cast<std::size_t>(ids[i]));
    e.id = ids[i];
    if (i > 0 && EntryBefore(e, (*entries)[i - 1])) ordered = false;
  }
  if (!ordered) std::sort(entries->begin(), entries->end(), EntryBefore);
}

// Tests `probe` against the opposite-side entries [it, end) that start no
// later than it ends. Each of them overlaps `probe` on x (none starts
// before it, by sweep order), so only y is tested. Returns the number of
// y-tests performed.
template <bool kProbeIsR>
uint64_t ScanForward(const SweepEntry& probe, const SweepEntry* it,
                     const SweepEntry* end, const Box* dedup_tile,
                     JoinResult* out) {
  const Box& p = probe.box;
  const SweepEntry* const begin = it;
  for (; it != end && it->box.min_x <= p.max_x; ++it) {
    const Box& o = it->box;
    if (p.max_y >= o.min_y && o.max_y >= p.min_y) {
      const Box& rb = kProbeIsR ? p : o;
      const Box& sb = kProbeIsR ? o : p;
      if (dedup_tile != nullptr &&
          !ReferencePointInTile(rb, sb, *dedup_tile)) {
        continue;
      }
      out->Add(kProbeIsR ? probe.id : it->id, kProbeIsR ? it->id : probe.id);
    }
  }
  return static_cast<uint64_t>(it - begin);
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

void PlaneSweepTileJoin(const Dataset& r, const Dataset& s,
                        const std::vector<ObjectId>& r_ids,
                        const std::vector<ObjectId>& s_ids,
                        const Box* dedup_tile, JoinResult* out,
                        JoinStats* stats) {
  uint64_t checks = 0;
  if (!r_ids.empty() && !s_ids.empty()) {
    // Per-worker scratch, reused across calls: a warm cell join allocates
    // nothing once the buffers have grown to the largest cell the thread
    // has joined, and they keep that size until the thread exits.
    thread_local std::vector<SweepEntry> r_entries;
    thread_local std::vector<SweepEntry> s_entries;
    GatherInSweepOrder(r, r_ids, &r_entries);
    GatherInSweepOrder(s, s_ids, &s_entries);

    const SweepEntry* ri = r_entries.data();
    const SweepEntry* const r_end = ri + r_entries.size();
    const SweepEntry* si = s_entries.data();
    const SweepEntry* const s_end = si + s_entries.size();
    // Take the side whose next object starts first (R on ties) and scan the
    // other side forward; once either side is exhausted, no pair is left.
    while (ri != r_end && si != s_end) {
      if (ri->box.min_x <= si->box.min_x) {
        checks += ScanForward<true>(*ri, si, s_end, dedup_tile, out);
        ++ri;
      } else {
        checks += ScanForward<false>(*si, ri, r_end, dedup_tile, out);
        ++si;
      }
    }
  }
  if (stats != nullptr) {
    stats->predicate_evaluations += checks;
    stats->tasks += 1;
  }
}

}  // namespace swiftspatial
