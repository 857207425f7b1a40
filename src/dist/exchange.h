// Exchange: the message-passing layer between cluster nodes and the merge
// coordinator. Each node owns one FIFO link to the coordinator -- a bounded
// queue (per-link backpressure: a node whose consumer lags blocks on *its
// own* link, never on another node's) with a bandwidth/latency cost model
// charged per message, so benches can report exchange bytes and modelled
// wire seconds alongside compute.
//
// The per-link FIFO order is the correctness backbone of fault recovery: a
// node sends result chunks, then per-shard completion markers, and -- on
// failure -- a final kNodeFailed, so by the time the coordinator processes
// the failure message it has already seen every result the node ever
// shipped, making "which shards committed before the crash" an exact set
// rather than a race.
#ifndef SWIFTSPATIAL_DIST_EXCHANGE_H_
#define SWIFTSPATIAL_DIST_EXCHANGE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/sync.h"
#include "exec/cancellation.h"
#include "join/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace swiftspatial::dist {

/// Per-link wire model. The defaults approximate one 10 GbE NIC per node.
struct LinkConfig {
  double bandwidth_bytes_per_sec = 1.25e9;
  double latency_seconds = 50e-6;
  /// Maximum buffered messages per link before Send blocks (backpressure).
  std::size_t queue_capacity = 64;
};

/// Accounting per link, stable once the link closes.
struct LinkStats {
  uint64_t messages = 0;
  uint64_t payload_bytes = 0;
  /// Modelled seconds on the wire: per-message latency + bytes / bandwidth.
  double modelled_seconds = 0;
  /// High-water mark of buffered messages (bounded by queue_capacity).
  std::size_t max_depth = 0;
  /// Times a Send found the link full and had to block (backpressure
  /// stalls; counted once per blocking Send, not per wakeup).
  uint64_t stalls = 0;
};

/// One message on a node -> coordinator link.
struct Message {
  enum class Kind {
    /// A batch of result pairs for (shard, attempt). A shard's chunks
    /// always precede its kShardDone on the link.
    kShardChunk,
    /// (shard, attempt) finished; every one of its chunks has been sent.
    /// The coordinator commits the shard on this marker.
    kShardDone,
    /// Terminal: the node retired cleanly. Closes the link.
    kNodeDone,
    /// Terminal: the node failed mid-join. Ordered after every message the
    /// node ever sent (see file comment). Closes the link.
    kNodeFailed,
  };

  Kind kind = Kind::kShardChunk;
  int node = 0;
  /// Index into the ShardPlan's shard array (not the stable Shard::id; the
  /// coordinator translates for sinks).
  int shard = -1;
  /// Re-execution attempt; the coordinator drops stale-attempt messages.
  uint64_t attempt = 0;
  std::vector<ResultPair> pairs;
  /// Trace context of the sending shard-attempt span (inactive when the
  /// run is untraced). The coordinator parents its commit spans here, so
  /// the span tree stays connected across the node boundary.
  obs::TraceContext trace;
};

/// N bounded FIFO links feeding one coordinator. Thread-safe: any node
/// thread may Send on its own link while the coordinator Recvs.
class Exchange {
 public:
  /// `cancel` is the external kill switch (e.g. a streaming consumer's
  /// Cancel): blocked Send/Recv calls observe it and return false.
  /// `metrics` feeds the swiftspatial_dist_exchange_* counters; nullptr
  /// selects obs::MetricsRegistry::Global().
  Exchange(std::size_t num_nodes, const LinkConfig& config,
           exec::CancellationToken cancel = {},
           obs::MetricsRegistry* metrics = nullptr);

  /// Enqueues `msg` on link msg.node, blocking while that link is full.
  /// Terminal messages (kNodeDone / kNodeFailed) close the link behind
  /// them. Returns false (dropping the message) once cancelled -- nodiscard
  /// because a dropped false is a silently lost message: callers must
  /// either stop producing or record why the loss is benign.
  [[nodiscard]] bool Send(Message msg) EXCLUDES(mu_);

  /// Pops the next message from any open link, scanning links round-robin
  /// for fairness. Blocks while all links are open but empty; returns false
  /// once cancelled, or when every link has closed and drained.
  [[nodiscard]] bool Recv(Message* out) EXCLUDES(mu_);

  /// Makes every blocked Send/Recv return false. Idempotent.
  void Cancel() EXCLUDES(mu_);
  bool cancelled() const EXCLUDES(mu_);

  std::size_t num_links() const { return num_links_; }
  LinkStats link_stats(std::size_t node) const EXCLUDES(mu_);
  /// Sums / maxima over links, for report aggregation.
  uint64_t total_payload_bytes() const EXCLUDES(mu_);
  uint64_t total_messages() const EXCLUDES(mu_);
  double max_link_seconds() const EXCLUDES(mu_);

 private:
  struct Link {
    std::deque<Message> queue;
    LinkStats stats;
    bool closed = false;
  };

  uint64_t MessageBytes(const Message& msg) const;

  const LinkConfig config_;
  exec::CancellationToken external_cancel_;
  // Pre-resolved process-wide counters (lock-free to bump).
  obs::Counter* const m_messages_;
  obs::Counter* const m_payload_bytes_;
  obs::Counter* const m_stalls_;
  /// Link count, fixed at construction (the lock-free num_links answer).
  const std::size_t num_links_;

  mutable Mutex mu_;
  CondVar cv_data_;   // coordinator: message or all-closed
  CondVar cv_space_;  // senders: space on their link
  std::vector<Link> links_ GUARDED_BY(mu_);
  std::size_t open_links_ GUARDED_BY(mu_);
  std::size_t next_link_ GUARDED_BY(mu_) = 0;  // round-robin scan position
  bool cancelled_ GUARDED_BY(mu_) = false;
};

}  // namespace swiftspatial::dist

#endif  // SWIFTSPATIAL_DIST_EXCHANGE_H_
