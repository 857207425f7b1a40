// DatasetRegistry: resident datasets + the plan-artifact cache -- the
// warm-serving state that lets steady-state requests skip Prepare entirely.
//
// Serving reality is a few datasets hit by many requests: re-planning every
// request rebuilds the same packed R-trees, grid assignments, and
// ShardPlans millions of times. Instead, register a Dataset once under a
// name and it becomes resident:
//
//   DatasetRegistry registry;
//   registry.Put("buildings", std::move(buildings));
//   registry.Put("roads", std::move(roads));
//   auto plan = registry.GetOrPrepare("partitioned", "buildings", "roads",
//                                     config);   // cold: plans + caches
//   auto again = registry.GetOrPrepare(...);     // warm: cache hit, no Prepare
//   auto run = RunPreparedJoin(**again, config); // bit-identical to cold
//
// Registering the same name again stores the new data under a bumped
// version; every plan cached for older versions is invalidated immediately
// (requests already executing against an old plan finish safely -- plans
// are shared_ptr-held and pin their datasets). The cache key is
// (r name@version, s name@version, engine, config fingerprint), so engines
// and configurations never share artifacts. All methods are thread-safe;
// plan construction runs outside the registry lock, so a slow cold Prepare
// never blocks warm lookups of other keys.
#ifndef SWIFTSPATIAL_EXEC_DATASET_REGISTRY_H_
#define SWIFTSPATIAL_EXEC_DATASET_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "datagen/dataset.h"
#include "geometry/box.h"
#include "join/engine.h"
#include "obs/metrics.h"

namespace swiftspatial::exec {

/// Names one registered dataset at one version. Version bumps on every
/// re-registration; artifacts are keyed by version, so a handle pins the
/// exact data a plan was built over.
struct DatasetHandle {
  std::string name;
  uint64_t version = 0;
};

/// Summary statistics computed once at registration -- the hook for
/// cost-model-driven engine selection over resident datasets (cardinality,
/// extent, and average MBR edge lengths are the standard cost-model
/// inputs).
struct DatasetStats {
  std::size_t count = 0;
  Box extent;
  double avg_width = 0;
  double avg_height = 0;
};

/// A resolved resident dataset: shared ownership of the data plus the
/// version and registration-time stats.
struct ResidentDataset {
  std::shared_ptr<const Dataset> dataset;
  uint64_t version = 0;
  DatasetStats stats;
};

/// Counters for the plan-artifact cache. `resident_bytes` covers the plan
/// artifacts (PreparedPlan::MemoryBytes), not the datasets.
struct PlanCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Entries dropped by the byte-budget LRU policy.
  std::size_t evictions = 0;
  /// Entries dropped because their dataset was re-registered (version bump).
  std::size_t invalidated = 0;
  std::size_t entries = 0;
  std::size_t resident_bytes = 0;
};

struct DatasetRegistryOptions {
  /// Byte budget for cached plan artifacts; least-recently-used entries are
  /// evicted once the budget is exceeded. 0 = unbounded.
  std::size_t max_plan_bytes = 0;
  /// Metrics sink for the swiftspatial_cache_* series; nullptr selects
  /// obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
};

/// Thread-safe resident-dataset store + plan-artifact cache.
class DatasetRegistry {
 public:
  explicit DatasetRegistry(DatasetRegistryOptions options = {});
  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Registers `dataset` under `name`, or updates an existing registration
  /// -- the version bumps and every plan cached for the old version is
  /// invalidated (in-flight executions against old plans finish safely).
  DatasetHandle Put(std::string name, Dataset dataset) EXCLUDES(mu_);

  /// Resolves a registered dataset, or NotFound listing the known names.
  Result<ResidentDataset> Get(const std::string& name) const EXCLUDES(mu_);

  /// Sorted names of all registered datasets.
  std::vector<std::string> Names() const EXCLUDES(mu_);

  /// The warm path: returns the cached PreparedPlan for (engine, r@current,
  /// s@current, config) or -- on a miss -- prepares one (PrepareJoin) and
  /// caches it. Concurrent misses on the same key may both prepare; the
  /// first insert wins and both callers share it. Plans returned here stay
  /// valid (and pin their datasets) for as long as the caller holds them,
  /// even across invalidation or eviction.
  Result<std::shared_ptr<const PreparedPlan>> GetOrPrepare(
      const std::string& engine, const std::string& r_name,
      const std::string& s_name, const EngineConfig& config = {})
      EXCLUDES(mu_);

  PlanCacheStats plan_cache_stats() const EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const Dataset> dataset;
    uint64_t version = 0;
    DatasetStats stats;
  };

  /// Plan-cache key: both dataset names at exact versions, the engine, and
  /// the config fingerprint.
  using CacheKey = std::tuple<std::string, uint64_t, std::string, uint64_t,
                              std::string, uint64_t>;

  struct CacheEntry {
    std::shared_ptr<const PreparedPlan> plan;
    std::size_t bytes = 0;
    uint64_t last_used = 0;  // LRU tick
  };

  /// Drops LRU entries until resident_bytes fits the budget. Requires mu_.
  void EvictOverBudgetLocked() REQUIRES(mu_);

  /// Mirrors entries/resident_bytes into the exported gauges. Requires mu_.
  void SyncGaugesLocked() REQUIRES(mu_);

  const DatasetRegistryOptions options_;

  // Pre-resolved metric handles (lock-free to update; see obs/metrics.h).
  obs::Counter* const m_hits_;
  obs::Counter* const m_misses_;
  obs::Counter* const m_evictions_;
  obs::Counter* const m_invalidated_;
  obs::Gauge* const m_entries_;
  obs::Gauge* const m_resident_bytes_;

  mutable Mutex mu_;
  std::map<std::string, Entry> datasets_ GUARDED_BY(mu_);
  std::map<CacheKey, CacheEntry> plans_ GUARDED_BY(mu_);
  PlanCacheStats stats_ GUARDED_BY(mu_);
  uint64_t lru_tick_ GUARDED_BY(mu_) = 0;
};

}  // namespace swiftspatial::exec

#endif  // SWIFTSPATIAL_EXEC_DATASET_REGISTRY_H_
