// Analytic power model (RAPL substitute).
//
// The paper reads CPU-package and DRAM power from Intel RAPL MSRs via
// PAPI. Those counters are not accessible in most containers/CI, so the
// framework estimates power from quantities it *can* measure: elapsed
// time, thread count, and the per-phase work counters every system logs
// (edges processed, bytes touched). The model is deliberately simple and
// fully documented so results are reproducible:
//
//   cpu_watts = cpu_idle + (cpu_peak - cpu_idle) * u * (0.5 + 0.5*c)
//   ram_watts = ram_idle + (ram_peak - ram_idle) * m
//
// where u = threads/hw_threads (capped at 1), c = edge throughput
// relative to a calibration ceiling, m = memory traffic relative to a
// bandwidth ceiling. Energy = watts * seconds. The "sleep(10)" baseline
// of Table III corresponds to a zero-work sample (u = c = m = 0).
//
// Defaults are calibrated to the paper's 2x Xeon E5-2699 v3 testbed so
// Table III's magnitudes are comparable: idle ~24.7 W package (the
// measured "increase over sleep" ratios of 2.9-3.9x then land active
// power in the paper's 70-97 W band) and 9-22 W DRAM (Fig 9's band).
#pragma once

#include "core/phase_log.hpp"

namespace epgs::power {

struct MachineModel {
  double cpu_idle_w = 24.7;
  double cpu_peak_w = 145.0;
  double ram_idle_w = 9.0;
  double ram_peak_w = 22.0;
  /// Edge-throughput ceiling (edges/s) at which a workload is considered
  /// fully compute-bound on this machine.
  double edge_rate_ceiling = 2.5e9;
  /// Memory-traffic ceiling (bytes/s) for the DRAM term.
  double mem_bandwidth_ceiling = 60e9;
  int hw_threads = 72;
};

/// One measured region: how long it ran, on how many threads, doing how
/// much counted work.
struct WorkloadSample {
  double seconds = 0.0;
  int threads = 1;
  WorkStats work;
};

struct PowerEstimate {
  double cpu_watts = 0.0;
  double ram_watts = 0.0;
  double cpu_joules = 0.0;
  double ram_joules = 0.0;

  [[nodiscard]] double total_joules() const {
    return cpu_joules + ram_joules;
  }
};

/// Deterministic power/energy estimate for a sample.
PowerEstimate estimate(const MachineModel& machine,
                       const WorkloadSample& sample);

/// The idle ("sleep") baseline: same duration, zero work, one thread.
PowerEstimate sleep_baseline(const MachineModel& machine, double seconds);

}  // namespace epgs::power
