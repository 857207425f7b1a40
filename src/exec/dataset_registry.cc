#include "exec/dataset_registry.h"

#include <bit>
#include <functional>
#include <optional>
#include <utility>

namespace swiftspatial::exec {

namespace {
obs::MetricsRegistry& ResolveMetrics(const DatasetRegistryOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::Global();
}
}  // namespace

// The store one Prepare sees for one dataset version: lookups and inserts
// go to the registry's sides_.
class DatasetRegistry::SideStore final : public GridSideStore {
 public:
  SideStore(DatasetRegistry* registry, std::string name, uint64_t version)
      : registry_(registry), name_(std::move(name)), version_(version) {}

  std::shared_ptr<const GridSide> GetOrBuild(
      const JoinGridSpec& spec,
      const std::function<std::shared_ptr<const GridSide>()>& build)
      override {
    const SideKey key(name_, version_,
                      std::bit_cast<uint32_t>(spec.extent.min_x),
                      std::bit_cast<uint32_t>(spec.extent.min_y),
                      std::bit_cast<uint32_t>(spec.extent.max_x),
                      std::bit_cast<uint32_t>(spec.extent.max_y), spec.cols,
                      spec.rows);
    DatasetRegistry& reg = *registry_;
    {
      MutexLock lock(&reg.mu_);
      auto hit = reg.sides_.find(key);
      if (hit != reg.sides_.end()) {
        ++reg.stats_.side_hits;
        reg.m_side_hits_->Increment();
        hit->second.last_used = ++reg.lru_tick_;
        return hit->second.side;
      }
      ++reg.stats_.side_misses;
      reg.m_side_misses_->Increment();
    }

    std::shared_ptr<const GridSide> side = build();  // outside the lock

    MutexLock lock(&reg.mu_);
    if (reg.datasets_.at(name_).version != version_) {
      return side;  // re-registered meanwhile: nothing will ask again
    }
    auto [it, inserted] = reg.sides_.emplace(key, SideEntry{});
    it->second.last_used = ++reg.lru_tick_;
    if (!inserted) return it->second.side;  // lost the race: share the winner
    it->second.side = side;
    it->second.bytes = side->MemoryBytes();
    reg.stats_.resident_bytes += it->second.bytes;
    reg.EvictOverBudgetLocked();
    reg.SyncGaugesLocked();
    return side;
  }

 private:
  DatasetRegistry* const registry_;
  const std::string name_;
  const uint64_t version_;
};

DatasetRegistry::DatasetRegistry(DatasetRegistryOptions options)
    : options_(options),
      m_hits_(ResolveMetrics(options).GetCounter("swiftspatial_cache_hits_total", {}, "Plan-cache hits")),
      m_misses_(ResolveMetrics(options).GetCounter("swiftspatial_cache_misses_total", {}, "Plan-cache misses")),
      m_evictions_(ResolveMetrics(options).GetCounter("swiftspatial_cache_evictions_total", {}, "Plan-cache LRU evictions")),
      m_invalidated_(ResolveMetrics(options).GetCounter("swiftspatial_cache_invalidated_total", {}, "Plan-cache entries dropped by dataset re-registration")),
      m_entries_(ResolveMetrics(options).GetGauge("swiftspatial_cache_entries", {}, "Resident plan-cache entries")),
      m_resident_bytes_(ResolveMetrics(options).GetGauge("swiftspatial_cache_resident_bytes", {}, "Bytes of resident plan artifacts and grid halves")),
      m_side_hits_(ResolveMetrics(options).GetCounter("swiftspatial_cache_side_hits_total", {}, "Grid halves reused by a plan miss")),
      m_side_misses_(ResolveMetrics(options).GetCounter("swiftspatial_cache_side_misses_total", {}, "Grid halves built by a plan miss")) {}

void DatasetRegistry::SyncGaugesLocked() {
  m_entries_->Set(static_cast<double>(stats_.entries));
  m_resident_bytes_->Set(static_cast<double>(stats_.resident_bytes));
}

DatasetHandle DatasetRegistry::Put(std::string name, Dataset dataset) {
  // The scan and the move into shared storage run before the lock.
  DatasetStats stats = dataset.Scan();
  auto shared = std::make_shared<const Dataset>(std::move(dataset));

  // Everything the update drops is released after the lock is let go: the
  // old version's data and its plans' and halves' lists can be large.
  std::shared_ptr<const Dataset> old_dataset;
  std::vector<std::shared_ptr<const PreparedPlan>> dropped_plans;
  std::vector<std::shared_ptr<const GridSide>> dropped_sides;
  MutexLock lock(&mu_);
  Entry& entry = datasets_[name];
  entry.version += 1;
  entry.stats = std::move(stats);
  old_dataset = std::exchange(entry.dataset, std::move(shared));

  // Invalidate every plan and half built over an older version of this
  // dataset. The new version's keys differ, so anything mentioning `name`
  // at a version other than the fresh one is unreachable -- drop it now
  // rather than letting dead artifacts squat on the byte budget.
  for (auto it = plans_.begin(); it != plans_.end();) {
    const auto& [r_name, r_version, s_name, s_version, engine, fingerprint] =
        it->first;
    (void)engine;
    (void)fingerprint;
    const bool stale = (r_name == name && r_version != entry.version) ||
                       (s_name == name && s_version != entry.version);
    if (stale) {
      stats_.resident_bytes -= it->second.bytes;
      ++stats_.invalidated;
      m_invalidated_->Increment();
      dropped_plans.push_back(std::move(it->second.plan));
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = sides_.begin(); it != sides_.end();) {
    if (std::get<0>(it->first) == name &&
        std::get<1>(it->first) != entry.version) {
      stats_.resident_bytes -= it->second.bytes;
      dropped_sides.push_back(std::move(it->second.side));
      it = sides_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.entries = plans_.size();
  SyncGaugesLocked();
  return DatasetHandle{std::move(name), entry.version};
}

Result<ResidentDataset> DatasetRegistry::Get(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    std::string known;
    for (const auto& [n, e] : datasets_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::NotFound("no registered dataset \"" + name +
                            "\" (registered: " + known + ")");
  }
  ResidentDataset resident;
  resident.dataset = it->second.dataset;
  resident.version = it->second.version;
  resident.stats = it->second.stats;
  return resident;
}

std::vector<std::string> DatasetRegistry::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, entry] : datasets_) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

Result<std::shared_ptr<const PreparedPlan>> DatasetRegistry::GetOrPrepare(
    const std::string& engine, const std::string& r_name,
    const std::string& s_name, const EngineConfig& config,
    const WaveContext& wave) {
  const uint64_t fingerprint = ConfigFingerprint(config);

  std::optional<JoinInput> r, s;
  CacheKey key;
  {
    MutexLock lock(&mu_);
    const auto r_it = datasets_.find(r_name);
    const auto s_it = datasets_.find(s_name);
    if (r_it == datasets_.end() || s_it == datasets_.end()) {
      return Status::NotFound(
          "no registered dataset \"" +
          (r_it == datasets_.end() ? r_name : s_name) + "\"");
    }
    key = CacheKey(r_name, r_it->second.version, s_name, s_it->second.version,
                   engine, fingerprint);
    auto hit = plans_.find(key);
    if (hit != plans_.end()) {
      ++stats_.hits;
      m_hits_->Increment();
      hit->second.last_used = ++lru_tick_;
      return hit->second.plan;
    }
    ++stats_.misses;
    m_misses_->Increment();
    r.emplace(r_it->second.dataset);
    r->stats = r_it->second.stats;
    s.emplace(s_it->second.dataset);
    s->stats = s_it->second.stats;
  }

  // Cold: prepare outside the lock -- planning can be expensive, and warm
  // lookups of other keys must not queue behind it. Concurrent misses on
  // the same key may each prepare; the first insert wins below and later
  // ones adopt it, so every caller shares one plan.
  SideStore r_sides(this, r_name, std::get<1>(key));
  SideStore s_sides(this, s_name, std::get<3>(key));
  r->grid_sides = &r_sides;
  s->grid_sides = &s_sides;
  auto prepared =
      PrepareJoin(engine, std::move(*r), std::move(*s), config, wave);
  if (!prepared.ok()) return prepared.status();
  std::shared_ptr<const PreparedPlan> plan = std::move(*prepared);

  MutexLock lock(&mu_);
  // A dataset re-registered while this plan was built: hand the plan to
  // the caller, but do not store what no later lookup can reach.
  if (datasets_.at(r_name).version != std::get<1>(key) ||
      datasets_.at(s_name).version != std::get<3>(key)) {
    return plan;
  }
  auto [it, inserted] = plans_.emplace(std::move(key), CacheEntry{});
  it->second.last_used = ++lru_tick_;  // before eviction: never the LRU pick
  if (!inserted) return it->second.plan;  // lost the race: share the winner
  it->second.plan = plan;
  it->second.bytes = plan->MemoryBytes();
  stats_.resident_bytes += it->second.bytes;
  // May evict other entries (ours is the newest); return the local handle
  // so even a pathologically small budget that drops everything is safe.
  EvictOverBudgetLocked();
  stats_.entries = plans_.size();
  SyncGaugesLocked();
  return plan;
}

void DatasetRegistry::EvictOverBudgetLocked() {
  if (options_.max_plan_bytes == 0) return;
  while (stats_.resident_bytes > options_.max_plan_bytes) {
    // The least recently used plan or half, never the entry just inserted
    // (it holds the newest tick). A half that anything besides the store
    // still holds -- a resident plan pairing it, or a request in flight --
    // is skipped: dropping it would free nothing. It becomes a candidate
    // once the plans holding it are gone.
    auto plan_victim = plans_.end();
    auto side_victim = sides_.end();
    uint64_t oldest = lru_tick_;
    for (auto it = plans_.begin(); it != plans_.end(); ++it) {
      if (it->second.last_used < oldest) {
        oldest = it->second.last_used;
        plan_victim = it;
      }
    }
    for (auto it = sides_.begin(); it != sides_.end(); ++it) {
      if (it->second.last_used < oldest && it->second.side.use_count() == 1) {
        oldest = it->second.last_used;
        side_victim = it;
      }
    }
    if (side_victim != sides_.end()) {
      stats_.resident_bytes -= side_victim->second.bytes;
      sides_.erase(side_victim);
    } else if (plan_victim != plans_.end()) {
      stats_.resident_bytes -= plan_victim->second.bytes;
      ++stats_.evictions;
      m_evictions_->Increment();
      plans_.erase(plan_victim);
    } else {
      return;
    }
  }
}

PlanCacheStats DatasetRegistry::plan_cache_stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace swiftspatial::exec
