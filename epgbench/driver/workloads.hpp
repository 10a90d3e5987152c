// The benchmark's workloads. Each runs its set-up once, then a fixed
// amount of measured work through the entry points users reach,
// checks every output, and reports raw samples; run.py turns them into
// metrics. With a trace directory set, the workload then repeats the work
// once traced and replays it through each module's public functions to
// time the layers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/records.hpp"
#include "harness/runner.hpp"

namespace epgbench {

/// `epg run`-style sweep: run_experiment(cfg, StagedDataset) after a
/// set-up of materialize (in-RAM data path) or a cold prepare_dataset
/// (native-file data path).
struct SweepParams {
  epgs::harness::Algorithm algorithm = epgs::harness::Algorithm::kBfs;
  std::vector<std::string> systems;
  int scale = 16;
  int roots = 16;
  int threads = 1;
  bool native_files = false;
  int reps = 1;
  std::uint64_t seed = 1;
  std::string trace_dir;  ///< empty = untraced
};

/// An in-process serve::Server driven by one closed-loop client that
/// opens a new connection per query.
struct ServeParams {
  int scale = 14;
  int passes = 1;
  std::uint64_t seed = 1;
  bool inject_bad_request = false;
  std::string trace_dir;  ///< empty = untraced
};

void run_sweep(const SweepParams& p, JsonObject& out, Tally& tally);
void run_serve(const ServeParams& p, JsonObject& out, Tally& tally);

/// Machine calibration: nproc, streaming bandwidth at 1/2/4 threads over
/// an array at least 4x the L3, and empty OpenMP parallel-region latency.
void run_calibrate(JsonObject& out);

// Shared by both workloads (sweep.cpp).
class Tracer;

/// Symmetrized, deduped Kronecker spec (edge factor 16) whose seed
/// derives from `seed`.
[[nodiscard]] epgs::harness::GraphSpec graph_spec(int scale,
                                                  std::uint64_t seed);

/// Supervised attempts over the result's (system, algorithm, trial) units.
[[nodiscard]] std::uint64_t count_attempts(
    const epgs::harness::ExperimentResult& r);

/// Replay run_experiment(cfg, staged)'s children through the modules'
/// public functions, following the program's own sweep plan, under a
/// "harness.replay" span. Adds work counts to `layers`.
void replay_run_experiment(const epgs::harness::ExperimentConfig& cfg,
                           const epgs::harness::StagedDataset& staged,
                           Tracer& tr, std::map<std::string, double>& layers,
                           Tally& tally);

/// Replay a set-up's children (generate, symmetrize, dedupe, and
/// homogenize when `homogenize_dir` is set) under a "setup.replay" span.
void replay_set_up(const epgs::harness::GraphSpec& spec,
                   const std::string& homogenize_dir, Tracer& tr,
                   std::map<std::string, double>& layers);

/// Total seconds per span name, keyed "<name>_s".
[[nodiscard]] std::map<std::string, double> span_totals(const Tracer& tr);

}  // namespace epgbench
