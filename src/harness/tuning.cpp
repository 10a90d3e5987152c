#include "harness/tuning.hpp"

#include <limits>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"

namespace epgs::harness {

std::vector<BfsTuningCandidate> default_bfs_grid() {
  std::vector<BfsTuningCandidate> grid;
  for (const double alpha : {1.0, 4.0, 15.0, 60.0, 1e9}) {
    for (const double beta : {2.0, 18.0, 64.0}) {
      grid.push_back({alpha, beta});
    }
  }
  return grid;
}

std::vector<weight_t> default_delta_grid() {
  return {1.0f, 2.0f, 8.0f, 32.0f, 128.0f, 1e9f};
}

BfsTuningResult tune_bfs(const EdgeList& graph,
                         const std::vector<vid_t>& roots,
                         const std::vector<BfsTuningCandidate>& grid) {
  EPGS_CHECK(!grid.empty(), "empty tuning grid");
  EPGS_CHECK(!roots.empty(), "no roots to tune with");

  BfsTuningResult result;
  result.best_mean_seconds = std::numeric_limits<double>::infinity();
  for (const auto& cand : grid) {
    systems::GapSystem::Options opts;
    opts.alpha = cand.alpha;
    opts.beta = cand.beta;
    systems::GapSystem sys(opts);
    sys.borrow_edges(graph);
    sys.build();

    std::vector<double> times;
    times.reserve(roots.size());
    for (const vid_t root : roots) {
      WallTimer t;
      (void)sys.bfs(root);
      times.push_back(t.seconds());
    }
    const double mean = mean_of(times);
    result.mean_seconds.push_back(mean);
    if (mean < result.best_mean_seconds) {
      result.best_mean_seconds = mean;
      result.best = cand;
    }
  }
  return result;
}

DeltaTuningResult tune_delta(const EdgeList& weighted_graph,
                             const std::vector<vid_t>& roots,
                             const std::vector<weight_t>& deltas) {
  EPGS_CHECK(!deltas.empty(), "empty delta grid");
  EPGS_CHECK(!roots.empty(), "no roots to tune with");
  EPGS_CHECK(weighted_graph.weighted,
             "delta tuning needs a weighted graph");

  DeltaTuningResult result;
  result.best_mean_seconds = std::numeric_limits<double>::infinity();
  for (const weight_t delta : deltas) {
    systems::GapSystem::Options opts;
    opts.delta = delta;
    systems::GapSystem sys(opts);
    sys.borrow_edges(weighted_graph);
    sys.build();

    std::vector<double> times;
    times.reserve(roots.size());
    for (const vid_t root : roots) {
      WallTimer t;
      (void)sys.sssp(root);
      times.push_back(t.seconds());
    }
    const double mean = mean_of(times);
    result.mean_seconds.push_back(mean);
    if (mean < result.best_mean_seconds) {
      result.best_mean_seconds = mean;
      result.best_delta = delta;
    }
  }
  return result;
}

}  // namespace epgs::harness
