// Service-level metrics for the warm-graph query server.
//
// The serving regime is judged on tail latency, not per-phase means, so
// the server keeps a latency histogram (p50/p95/p99 over request
// turnaround, queue wait included), typed counters for every admission /
// coalescing / rejection path, and a per-graph residency table. All of it
// is dumpable at runtime via the `stats` request and printed on graceful
// shutdown. Counter names are part of the CLI contract: the CI serve
// smoke greps them.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace epgs::serve {

/// Fixed-memory latency histogram: geometric buckets (factor 2^(1/4))
/// from 1 microsecond, so a million-request day costs the same bytes as
/// an idle one. Quantiles interpolate within the winning bucket — at
/// ~19% bucket width the p99 error is far below scheduling noise.
class LatencyHistogram {
 public:
  void add(double seconds);

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// q in [0,1]; 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double min_seconds() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max_seconds() const { return count_ ? max_ : 0.0; }

 private:
  static constexpr std::size_t kBuckets = 128;
  static constexpr double kFirstBound = 1e-6;  ///< bucket 0 upper bound

  [[nodiscard]] static std::size_t bucket_of(double seconds);
  [[nodiscard]] static double lower_bound_of(std::size_t bucket);
  [[nodiscard]] static double upper_bound_of(std::size_t bucket);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One resident graph, as reported in the stats snapshot.
struct GraphResidency {
  std::string name;
  std::uint64_t bytes = 0;   ///< the edge list's
  std::uint64_t hits = 0;    ///< warm acquisitions since load
  std::size_t systems = 0;   ///< built systems kept with the graph
  std::uint64_t system_bytes = 0;  ///< their build rows' bytes
  bool resident = true;
};

/// Point-in-time copy of every counter (so rendering never holds the
/// metrics lock while formatting).
struct MetricsSnapshot {
  std::uint64_t served = 0;            ///< ok run replies delivered
  std::uint64_t coalesced = 0;         ///< requests piggybacked on a batch
  std::uint64_t batches = 0;           ///< batches executed
  std::uint64_t rejected_overload = 0; ///< queue-full admission rejections
  std::uint64_t rejected_deadline = 0; ///< expired before/during execution
  std::uint64_t errors = 0;            ///< config/internal error replies
  std::uint64_t protocol_errors = 0;   ///< malformed frames/requests
  std::uint64_t cold_loads = 0;        ///< graph loads paid by a request
  std::uint64_t warm_hits = 0;         ///< requests served from residency
  std::uint64_t evictions = 0;         ///< graphs LRU-evicted for budget
  std::uint64_t builds_paid = 0;       ///< systems a request built
  std::uint64_t builds_reused = 0;     ///< systems a request found built
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
  std::uint64_t latency_count = 0;
  std::uint64_t resident_bytes = 0;    ///< graph-store bytes, systems too
  std::uint64_t process_rss_bytes = 0; ///< /proc/self/statm, governor-style
  std::vector<GraphResidency> graphs;
};

/// Thread-safe metrics sink shared by the server, scheduler, and graph
/// store.
class Metrics {
 public:
  void record_latency(double seconds);
  void add_served(std::uint64_t n);
  void add_coalesced(std::uint64_t n);
  void add_batch();
  void add_rejected_overload();
  void add_rejected_deadline(std::uint64_t n);
  void add_error(std::uint64_t n);
  void add_protocol_error();
  void add_cold_load();
  void add_warm_hit();
  void add_eviction();
  void add_builds(std::uint64_t paid, std::uint64_t reused);

  /// Copy out every counter; residency rows come from the caller (the
  /// graph store owns them).
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  LatencyHistogram latency_;
  std::uint64_t served_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t rejected_deadline_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t cold_loads_ = 0;
  std::uint64_t warm_hits_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t builds_paid_ = 0;
  std::uint64_t builds_reused_ = 0;
};

/// Human- and grep-friendly rendering, shared by the `stats` reply and
/// the shutdown dump. One `key value` pair per line, keys snake_case.
[[nodiscard]] std::string render_metrics(const MetricsSnapshot& snap);

}  // namespace epgs::serve
