// Fig 4: PageRank time (log axis, left) and iteration counts (right).
// All systems use the homogenized L1 stopping criterion with
// epsilon = 6e-8 except GraphMat, which "continues to run until none of
// the vertices' ranks change" (or, here, until its float ranks repeat
// those of two iterations back) — so it posts the most iterations while
// GAP posts the fewest.
#include "bench_common.hpp"

using namespace epgs;
using namespace epgs::bench;

int main() {
  print_header("Fig 4 — PageRank time and iterations",
               "Pollard & Norris 2017, Figure 4 (Kronecker scale 22, 32 "
               "trials, epsilon = 6e-8)");

  harness::ExperimentConfig cfg;
  cfg.graph.kind = harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = bench_scale();
  cfg.systems = {"GAP", "PowerGraph", "GraphBIG", "GraphMat"};
  cfg.algorithms = {harness::Algorithm::kPageRank};
  cfg.num_roots = std::max(2, bench_roots() / 2);  // deterministic reruns
  cfg.threads = bench_threads();
  cfg.pagerank.epsilon = 6e-8;

  const auto result = harness::run_experiment(cfg);

  std::printf("\nPageRank Time:\n");
  for (const auto& s : cfg.systems) {
    print_group(result, s, phase::kAlgorithm, "PageRank");
  }

  std::printf("\nPageRank Iterations:\n");
  for (const auto& s : cfg.systems) {
    const auto iters = result.iterations_of(s, "PageRank");
    if (iters.empty()) {
      std::printf("  %-12s (not provided)\n", s.c_str());
    } else {
      std::printf("  %-12s %d iterations\n", s.c_str(),
                  static_cast<int>(iters.front()));
    }
  }

  const auto it_of = [&](const char* s) {
    return result.iterations_of(s, "PageRank").front();
  };
  std::printf("\nshape: GAP fewest iterations: %s | GraphMat most "
              "iterations (infinity-norm criterion): %s\n",
              (it_of("GAP") <= it_of("GraphBIG") &&
               it_of("GAP") <= it_of("GraphMat") &&
               it_of("GAP") <= it_of("PowerGraph"))
                  ? "yes"
                  : "NO",
              (it_of("GraphMat") >= it_of("GAP") &&
               it_of("GraphMat") >= it_of("GraphBIG") &&
               it_of("GraphMat") >= it_of("PowerGraph"))
                  ? "yes"
                  : "NO");

  // The paper also notes each platform's PageRank RSD is 1/4 to 1/2 of
  // its SSSP RSD (runtimes are steadier without root dependence); print
  // the RSDs so the claim can be eyeballed against bench_fig3 output.
  std::printf("relative standard deviations:");
  for (const auto& s : cfg.systems) {
    std::printf(" %s=%.3f", s.c_str(),
                harness::phase_stats(result, s, phase::kAlgorithm)
                    .relative_stddev());
  }
  std::printf("\n");
  return 0;
}
