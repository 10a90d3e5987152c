// Machine calibration recorded beside every report (provenance, not a
// metric): the streaming bandwidth and OpenMP region latency that decide
// whether a thread-count result is about the code or about the box.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>

#include "workloads.hpp"

namespace epgbench {

namespace {

/// L3 size from sysfs ("105M", "32768K"); 0 when unknown.
std::uint64_t l3_bytes() {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream level(base + "level");
    int lvl = 0;
    if (!(level >> lvl) || lvl != 3) continue;
    std::ifstream size(base + "size");
    std::uint64_t n = 0;
    char unit = 0;
    if (!(size >> n)) return 0;
    size >> unit;
    if (unit == 'K') n <<= 10;
    if (unit == 'M') n <<= 20;
    if (unit == 'G') n <<= 30;
    return n;
  }
  return 0;
}

/// Best-of-3 read bandwidth (GB/s) of a sum over `a` with `threads`.
double stream_gbps(const double* a, std::size_t n, int threads) {
  double best = 0.0;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    double sum = 0.0;
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(+ : sum)
    for (std::size_t i = 0; i < n; ++i) sum += a[i];
    const double s = seconds_since(t0);
    sink = sink + sum;
    best = std::max(best, static_cast<double>(n * sizeof(double)) / s / 1e9);
  }
  return best;
}

}  // namespace

void run_calibrate(JsonObject& out) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::uint64_t l3 = l3_bytes();
  // At least 4x the L3 (64 MiB floor when sysfs has no L3 entry).
  const std::uint64_t bytes = std::max<std::uint64_t>(4 * l3, 64ull << 20);
  const std::size_t n = bytes / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const int max_threads = std::max(1, static_cast<int>(nproc));
#pragma omp parallel for num_threads(max_threads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i & 7);

  out.integer("nproc", static_cast<std::uint64_t>(nproc));
  out.integer("l3_bytes", l3);
  out.integer("stream_array_bytes", n * sizeof(double));
  for (const int t : {1, 2, 4}) {
    out.number("stream_gbps_" + std::to_string(t) + "t",
               stream_gbps(a.get(), n, t));
  }

  // Empty parallel region at the default team size: the fixed cost every
  // OpenMP kernel launch pays.
  // The master's store keeps the region from being optimized away.
  constexpr int kWarmup = 100;
  constexpr int kRegions = 2000;
  volatile int team = 0;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kWarmup + kRegions; ++i) {
    if (i == kWarmup) t0 = Clock::now();
#pragma omp parallel
    {
      if (omp_get_thread_num() == 0) team = omp_get_num_threads();
    }
  }
  out.number("omp_region_us", seconds_since(t0) / kRegions * 1e6);
  out.integer("omp_default_threads", static_cast<std::uint64_t>(team));
}

}  // namespace epgbench
