// System-style CPU baselines standing in for the closed or JVM-based systems
// of §5 (PostGIS, Apache Sedona, SpatialSpark), which cannot run in this
// environment. Rather than insert artificial sleeps, each baseline
// re-implements the *mechanisms* the paper credits for those systems'
// slowness (see the substitution table in DESIGN.md):
//
//  * InterpretedEngineJoin (PostGIS-like): an index-nested-loop join over an
//    R-tree where every candidate pair is verified by an interpreted
//    expression tree (virtual dispatch per comparison) against generic
//    serialized tuples (field extraction per access) -- the abstraction
//    overhead of a tuple-at-a-time database executor.
//
//  * BigDataFrameworkJoin (Sedona/SpatialSpark-like): grid partitioning with
//    a materialised shuffle (rows serialized to per-partition byte buffers,
//    then deserialized into individually heap-allocated "boxed" row objects),
//    a per-partition index build at join time, per-partition joins, and a
//    final merge -- the shuffle/boxing/merge overhead of a distributed
//    dataflow engine on a single node.
#ifndef SWIFTSPATIAL_JOIN_ENGINE_BASELINES_H_
#define SWIFTSPATIAL_JOIN_ENGINE_BASELINES_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "join/result.h"

namespace swiftspatial {

struct InterpretedEngineOptions {
  std::size_t num_threads = 1;  ///< max_parallel_workers analogue
  int index_max_entries = 16;
};

/// PostGIS-like join (see file comment). Index is built on `s`; `r` streams
/// through the executor.
JoinResult InterpretedEngineJoin(const Dataset& r, const Dataset& s,
                                 const InterpretedEngineOptions& options,
                                 JoinStats* stats = nullptr,
                                 const WaveContext& wave = {});

struct BigDataFrameworkOptions {
  /// Spatial partitions (the paper finds 64 optimal for SpatialSpark).
  int num_partitions = 64;
  std::size_t num_threads = 1;
  int index_max_entries = 16;
};

/// Sedona/SpatialSpark-like join (see file comment).
JoinResult BigDataFrameworkJoin(const Dataset& r, const Dataset& s,
                                const BigDataFrameworkOptions& options,
                                JoinStats* stats = nullptr,
                                const WaveContext& wave = {});

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_ENGINE_BASELINES_H_
