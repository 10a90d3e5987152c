// Fig 3: SSSP time box plots (GAP, GraphBIG, GraphMat, PowerGraph) and
// construction times (GAP, GraphMat), same 32 roots as Fig 2. "Both
// PowerGraph and GraphBIG construct their data structures at the same
// time as they read the file."
#include "bench_common.hpp"

using namespace epgs;
using namespace epgs::bench;

int main() {
  print_header("Fig 3 — SSSP time and data structure construction",
               "Pollard & Norris 2017, Figure 3 (Kronecker scale 22, same "
               "32 roots as Fig 2)");

  harness::ExperimentConfig cfg;
  cfg.graph.kind = harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = bench_scale();
  cfg.graph.add_weights = true;  // SSSP needs weights (Graph500-style)
  cfg.systems = {"GAP", "GraphBIG", "GraphMat", "PowerGraph"};
  cfg.algorithms = {harness::Algorithm::kSssp};
  cfg.num_roots = bench_roots();
  cfg.threads = bench_threads();

  const auto result = harness::run_experiment(cfg);

  std::printf("\nSSSP Time (same roots as Fig 2):\n");
  for (const auto& s : cfg.systems) {
    print_group(result, s, phase::kAlgorithm, "SSSP");
  }

  std::printf("\nSSSP Data Structure Construction:\n");
  for (const auto& s : {"GAP", "GraphMat"}) {
    print_group(result, s, phase::kBuild);
  }
  std::printf("  %-12s (fused read+build; omitted)\n", "GraphBIG");
  std::printf("  %-12s (fused read+build; omitted)\n", "PowerGraph");

  const auto median = [&](const std::string& s) {
    return harness::phase_stats(result, s, phase::kAlgorithm).median;
  };
  // Each verdict tests its whole sentence: GAP's median against every
  // other system's, and every system's against PowerGraph's.
  const auto all_of = [&](auto&& holds) {
    for (const auto& s : cfg.systems) {
      if (!holds(s)) return "NO";
    }
    return "yes";
  };
  const double gap = median("GAP");
  const double pg = median("PowerGraph");
  std::printf("\nshape: GAP is the clear winner: %s | PowerGraph slowest "
              "on this small synthetic graph: %s\n",
              all_of([&](const std::string& s) { return gap <= median(s); }),
              all_of([&](const std::string& s) { return median(s) <= pg; }));
  return 0;
}
