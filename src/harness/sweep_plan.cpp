#include "harness/sweep_plan.hpp"

#include <memory>

#include "core/parallel.hpp"
#include "systems/common/registry.hpp"

namespace epgs::harness {
namespace {

bool algorithm_supported(const Capabilities& caps, Algorithm alg) {
  switch (alg) {
    case Algorithm::kBfs: return caps.bfs;
    case Algorithm::kSssp: return caps.sssp;
    case Algorithm::kPageRank: return caps.pagerank;
    case Algorithm::kCdlp: return caps.cdlp;
    case Algorithm::kLcc: return caps.lcc;
    case Algorithm::kWcc: return caps.wcc;
    case Algorithm::kTc: return caps.tc;
    case Algorithm::kBc: return caps.bc;
  }
  return false;
}

}  // namespace

SweepPlan plan_sweep(const ExperimentConfig& cfg,
                     const HomogenizedDataset* files,
                     const std::map<std::string, JournalEntry>& journaled) {
  SweepPlan plan;
  plan.dataset = cfg.graph.name();
  plan.threads = cfg.threads > 0 ? cfg.threads : max_threads();
  plan.data_path =
      files != nullptr ? DataPath::kNativeFile : DataPath::kInMemory;

  for (const auto& system_name : cfg.systems) {
    SystemPlan sp;
    sp.system = system_name;

    std::unique_ptr<System> sys;
    try {
      sys = make_system(system_name);
    } catch (const std::exception& e) {
      // A bad name fails this system only; the sweep continues.
      sp.config_error = e.what();
      plan.systems.push_back(std::move(sp));
      continue;
    }

    const Capabilities caps = sys->capabilities();
    sp.separate_construction = caps.separate_construction;
    sp.rebuild_per_trial = cfg.reconstruct_per_trial &&
                           caps.separate_construction &&
                           sys->name() != "Graph500";
    sp.build_key = system_name + "|build|-1";
    sp.build_replayed = journaled.count(sp.build_key) != 0;
    sp.load_key = system_name + "|load|-1";
    sp.load_replayed = journaled.count(sp.load_key) != 0;
    if (files != nullptr) {
      sp.native_file = files->path(sys->native_format());
    }

    for (const Algorithm alg : cfg.algorithms) {
      if (!algorithm_supported(caps, alg)) {
        continue;  // the paper's plots just omit the bar
      }
      const std::string alg_name(algorithm_name(alg));
      for (int trial = 0; trial < cfg.num_roots; ++trial) {
        PlannedTrial t;
        t.alg = alg;
        t.alg_name = alg_name;
        t.trial = trial;
        t.key = system_name + "|" + alg_name + "|" + std::to_string(trial);
        t.replayed = journaled.count(t.key) != 0;
        sp.trials.push_back(std::move(t));
      }
    }
    plan.systems.push_back(std::move(sp));
  }
  return plan;
}

}  // namespace epgs::harness
