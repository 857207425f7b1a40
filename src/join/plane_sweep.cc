#include "join/plane_sweep.h"

#include <algorithm>

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
// Returns whether `ids` was already in order.
bool GatherInSweepOrder(const Dataset& d, const std::vector<ObjectId>& ids,
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
  return ordered;
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

}  // namespace

void SortForSweep(const Dataset& d, std::vector<ObjectId>* ids) {
  std::vector<SweepEntry> entries;
  if (GatherInSweepOrder(d, *ids, &entries)) return;
  for (std::size_t i = 0; i < entries.size(); ++i) (*ids)[i] = entries[i].id;
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
