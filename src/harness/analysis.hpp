// Phase 5: analysis. The original framework hands a CSV to R scripts;
// here the box statistics, scalability curves and energy tables those
// scripts produced are computed natively.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "harness/runner.hpp"
#include "power/model.hpp"

namespace epgs::harness {

/// Box-plot statistics of one (system, phase[, algorithm]) group.
/// Throws EpgsError when the group is empty.
BoxStats phase_stats(const ExperimentResult& result, std::string_view system,
                     std::string_view phase, std::string_view algorithm = {});

/// True when the group has at least one record.
bool has_records(const ExperimentResult& result, std::string_view system,
                 std::string_view phase, std::string_view algorithm = {});

// --- Outcome accounting -----------------------------------------------

/// Per-system outcome counts (indexed by Outcome), for the end-of-sweep
/// summary table: comparative studies report DNFs per system rather than
/// hiding them.
struct OutcomeSummary {
  std::string system;
  std::array<int, static_cast<std::size_t>(kNumOutcomes)> counts{};

  [[nodiscard]] int total() const;
  [[nodiscard]] int failures() const;  ///< total() minus successes
};

/// One row per system, in first-seen record order.
std::vector<OutcomeSummary> outcome_summary(
    const std::vector<RunRecord>& records);

/// Render the summary as an aligned text table. Always renders every row
/// (a clean sweep shows its all-success counts), but columns whose count
/// is zero for every system are elided to keep the table narrow.
std::string render_outcome_table(const std::vector<OutcomeSummary>& rows);

/// Repeated identical failures collapsed into one row. A chaos sweep (or
/// a genuinely broken adapter) produces the same failure dozens of times
/// across roots and retries; triage wants "GAP/bfs crashed 32x with stack
/// 1a2b..", not 32 interleaved lines. Records group on everything that
/// identifies the failure mode — system, algorithm, phase, outcome, and
/// the crash-forensics stack fingerprint when one was captured — with the
/// first-seen error message kept as the representative.
struct FailureGroup {
  std::string system;
  std::string algorithm;  ///< empty for load/build failures
  std::string phase;
  Outcome outcome = Outcome::kCrash;
  std::string crash_fingerprint;  ///< empty when no post-mortem exists
  std::string message;            ///< representative (first seen)
  int count = 0;
};

/// Aggregate every non-success record, most frequent group first (ties
/// in first-seen order). Success records never contribute, so a clean
/// sweep returns empty.
std::vector<FailureGroup> failure_groups(
    const std::vector<RunRecord>& records);

/// Aligned text table of the groups; empty string for no failures.
std::string render_failure_groups(const std::vector<FailureGroup>& groups);

// --- Scalability (Figs 5 and 6) ---------------------------------------

struct ScalabilityPoint {
  int threads = 1;
  double mean_seconds = 0.0;
  double speedup = 1.0;     ///< T1 / Tn
  double efficiency = 1.0;  ///< T1 / (n * Tn)
};

struct ScalabilityCurve {
  std::string system;
  std::vector<ScalabilityPoint> points;
};

/// Run `base` once per thread count in `ladder` ("because of timing
/// considerations, only four trials were run" — base.num_roots should be
/// small) and derive speedup/efficiency from the mean algorithm time.
/// `ladder` entries exceeding the hardware are still run (oversubscribed),
/// as on the paper's 72-thread box.
std::vector<ScalabilityCurve> scalability_sweep(ExperimentConfig base,
                                                const std::vector<int>& ladder);

// --- Iteration telemetry (KernelRun timelines) -------------------------

/// One point of a per-iteration trajectory, averaged across the trials
/// whose timelines reached this iteration index.
struct TrajectoryPoint {
  std::uint64_t iter = 0;
  int samples = 0;             ///< trials contributing this iteration
  double mean_seconds = 0.0;   ///< mean per-iteration wall time
  double mean_frontier = 0.0;  ///< mean active-set size
  double mean_edges = 0.0;     ///< mean edges traversed this iteration
  /// Mean convergence residual; NaN when no contributing sample carried
  /// one (traversal kernels report frontiers, not residuals).
  double mean_residual = 0.0;
  [[nodiscard]] bool has_residual() const;
};

/// The per-iteration trajectory of one (system, algorithm): KernelRun
/// timelines of every successful "run algorithm" record, averaged per
/// iteration index. Empty when no matching record carries telemetry
/// (journal-replayed units keep theirs). This is the data behind
/// a convergence plot (residual vs iteration) or a BFS frontier curve.
std::vector<TrajectoryPoint> iteration_trajectory(
    const ExperimentResult& result, std::string_view system,
    std::string_view algorithm);

/// Render every (system, algorithm) trajectory in `result` as one CSV
/// (header: system,algorithm,iter,samples,mean_seconds,mean_frontier,
/// mean_edges,mean_residual; residual empty when absent) for plotting.
std::string trajectories_to_csv(const ExperimentResult& result);

// --- Energy (Table III and Fig 9) --------------------------------------

struct EnergyRow {
  std::string system;
  double time_s = 0.0;            ///< mean algorithm time per root
  double avg_cpu_power_w = 0.0;   ///< mean of per-root CPU power
  double avg_ram_power_w = 0.0;
  double energy_per_root_j = 0.0; ///< CPU+RAM energy per root
  double sleep_energy_j = 0.0;    ///< idle power * time
  double increase_over_sleep = 0.0;
};

/// Table III: one row per system, derived from per-root BFS samples.
std::vector<EnergyRow> energy_table(const ExperimentResult& result,
                                    const power::MachineModel& machine,
                                    std::string_view algorithm = "BFS");

/// Fig 9: the per-root power estimates behind the box plots.
std::vector<power::PowerEstimate> per_trial_power(
    const ExperimentResult& result, std::string_view system,
    std::string_view algorithm, const power::MachineModel& machine);

}  // namespace epgs::harness
