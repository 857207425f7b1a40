// Join result containers and statistics shared by every join implementation
// (CPU baselines and the simulated accelerator), plus helpers used by tests
// to compare result multisets across algorithms.
#ifndef SWIFTSPATIAL_JOIN_RESULT_H_
#define SWIFTSPATIAL_JOIN_RESULT_H_

#include <cstdint>
#include <vector>

#include "datagen/dataset.h"

namespace swiftspatial {

/// One qualifying pair: ids from datasets R and S. Matches the accelerator's
/// 8-byte result format (§3.5).
struct ResultPair {
  ObjectId r = 0;
  ObjectId s = 0;

  friend bool operator==(const ResultPair& a, const ResultPair& b) {
    return a.r == b.r && a.s == b.s;
  }
  friend bool operator<(const ResultPair& a, const ResultPair& b) {
    if (a.r != b.r) return a.r < b.r;
    return a.s < b.s;
  }
};
static_assert(sizeof(ResultPair) == 8, "pair must match the DRAM layout");

/// Accumulates join results. Multi-threaded joins give each worker its own
/// JoinResult and merge at the end.
class JoinResult {
 public:
  void Add(ObjectId r, ObjectId s) { pairs_.push_back({r, s}); }
  void Reserve(std::size_t n) { pairs_.reserve(n); }

  /// Appends and clears `other`.
  void Merge(JoinResult&& other);

  std::size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  const std::vector<ResultPair>& pairs() const { return pairs_; }
  std::vector<ResultPair>& mutable_pairs() { return pairs_; }

  /// Sorts pairs lexicographically (for comparisons and stable output).
  void Sort();

  /// True if both hold the same multiset of pairs. Both are sorted as a side
  /// effect.
  static bool SameMultiset(JoinResult& a, JoinResult& b);

 private:
  std::vector<ResultPair> pairs_;
};

/// Counters reported by join implementations.
struct JoinStats {
  /// MBR predicate evaluations: the box tests a join made. On the simulated
  /// device one per join-unit cycle, the unit of Fig. 13's
  /// cycles-per-predicate; the CPU R-tree traversal (JoinNodePair) counts
  /// its MBR-restricted tests, which are not cycles.
  uint64_t predicate_evaluations = 0;
  /// Node-pair or tile-pair join tasks executed.
  uint64_t tasks = 0;
  /// Intermediate (non-leaf) qualifying pairs produced, i.e. the task-queue
  /// traffic of synchronous traversal.
  uint64_t intermediate_pairs = 0;
  /// Candidate pairs whose two exact boxes a grid cell join read by id:
  /// the pairs whose rounded cell entries overlap (PlaneSweepCellJoin).
  uint64_t exact_rechecks = 0;

  JoinStats& operator+=(const JoinStats& o) {
    predicate_evaluations += o.predicate_evaluations;
    tasks += o.tasks;
    intermediate_pairs += o.intermediate_pairs;
    exact_rechecks += o.exact_rechecks;
    return *this;
  }
};

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_RESULT_H_
