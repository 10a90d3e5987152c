#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/proc_stats.hpp"

namespace epgs::serve {

namespace {
// 2^(1/4): four buckets per octave.
constexpr double kGrowth = 1.189207115002721;
}  // namespace

std::size_t LatencyHistogram::bucket_of(double seconds) {
  if (seconds <= kFirstBound) return 0;
  const double idx = std::log(seconds / kFirstBound) / std::log(kGrowth);
  const auto b = static_cast<std::size_t>(std::ceil(idx));
  return std::min(b, kBuckets - 1);
}

double LatencyHistogram::lower_bound_of(std::size_t bucket) {
  return bucket == 0 ? 0.0 : kFirstBound * std::pow(kGrowth,
                                 static_cast<double>(bucket - 1));
}

double LatencyHistogram::upper_bound_of(std::size_t bucket) {
  return kFirstBound * std::pow(kGrowth, static_cast<double>(bucket));
}

void LatencyHistogram::add(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  counts_[bucket_of(seconds)]++;
  if (count_ == 0 || seconds < min_) min_ = seconds;
  if (count_ == 0 || seconds > max_) max_ = seconds;
  count_++;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, ceil — the classic histogram
  // percentile), then linear interpolation across the winning bucket.
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (cum + counts_[b] >= rank) {
      const double lo = std::max(lower_bound_of(b), min_);
      const double hi = std::min(upper_bound_of(b), max_);
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(counts_[b]);
      return lo + (hi - lo) * frac;
    }
    cum += counts_[b];
  }
  return max_;
}

void Metrics::record_latency(double seconds) {
  std::lock_guard<std::mutex> lk(mutex_);
  latency_.add(seconds);
}

void Metrics::add_served(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mutex_);
  served_ += n;
}

void Metrics::add_coalesced(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mutex_);
  coalesced_ += n;
}

void Metrics::add_batch() {
  std::lock_guard<std::mutex> lk(mutex_);
  batches_++;
}

void Metrics::add_rejected_overload() {
  std::lock_guard<std::mutex> lk(mutex_);
  rejected_overload_++;
}

void Metrics::add_rejected_deadline(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mutex_);
  rejected_deadline_ += n;
}

void Metrics::add_error(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mutex_);
  errors_ += n;
}

void Metrics::add_protocol_error() {
  std::lock_guard<std::mutex> lk(mutex_);
  protocol_errors_++;
}

void Metrics::add_cold_load() {
  std::lock_guard<std::mutex> lk(mutex_);
  cold_loads_++;
}

void Metrics::add_warm_hit() {
  std::lock_guard<std::mutex> lk(mutex_);
  warm_hits_++;
}

void Metrics::add_eviction() {
  std::lock_guard<std::mutex> lk(mutex_);
  evictions_++;
}

void Metrics::add_builds(std::uint64_t paid, std::uint64_t reused) {
  std::lock_guard<std::mutex> lk(mutex_);
  builds_paid_ += paid;
  builds_reused_ += reused;
}

MetricsSnapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> lk(mutex_);
  MetricsSnapshot s;
  s.served = served_;
  s.coalesced = coalesced_;
  s.batches = batches_;
  s.rejected_overload = rejected_overload_;
  s.rejected_deadline = rejected_deadline_;
  s.errors = errors_;
  s.protocol_errors = protocol_errors_;
  s.cold_loads = cold_loads_;
  s.warm_hits = warm_hits_;
  s.evictions = evictions_;
  s.builds_paid = builds_paid_;
  s.builds_reused = builds_reused_;
  s.p50_seconds = latency_.quantile(0.50);
  s.p95_seconds = latency_.quantile(0.95);
  s.p99_seconds = latency_.quantile(0.99);
  s.max_seconds = latency_.max_seconds();
  s.latency_count = latency_.count();
  s.process_rss_bytes = resident_set_bytes();
  return s;
}

std::string render_metrics(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "served " << snap.served << "\n"
     << "coalesced " << snap.coalesced << "\n"
     << "batches " << snap.batches << "\n"
     << "rejected_overload " << snap.rejected_overload << "\n"
     << "rejected_deadline " << snap.rejected_deadline << "\n"
     << "errors " << snap.errors << "\n"
     << "protocol_errors " << snap.protocol_errors << "\n"
     << "cold_loads " << snap.cold_loads << "\n"
     << "warm_hits " << snap.warm_hits << "\n"
     << "evictions " << snap.evictions << "\n"
     << "builds_paid " << snap.builds_paid << "\n"
     << "builds_reused " << snap.builds_reused << "\n";
  os.precision(6);
  os << std::fixed;
  os << "latency_count " << snap.latency_count << "\n"
     << "latency_p50_ms " << snap.p50_seconds * 1e3 << "\n"
     << "latency_p95_ms " << snap.p95_seconds * 1e3 << "\n"
     << "latency_p99_ms " << snap.p99_seconds * 1e3 << "\n"
     << "latency_max_ms " << snap.max_seconds * 1e3 << "\n"
     << "resident_graph_bytes " << snap.resident_bytes << "\n"
     << "process_rss_bytes " << snap.process_rss_bytes << "\n";
  for (const auto& g : snap.graphs) {
    os << "graph " << g.name << " bytes=" << g.bytes << " hits=" << g.hits
       << " systems=" << g.systems << " system_bytes=" << g.system_bytes
       << "\n";
  }
  return os.str();
}

}  // namespace epgs::serve
