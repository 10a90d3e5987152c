// GAP-specific behaviour: direction-optimizing BFS under forced regimes,
// delta-stepping parameterization, dual-CSR construction.
#include "systems/gap/gap_system.hpp"

#include <gtest/gtest.h>

#include "gen/kronecker.hpp"
#include "graph/transforms.hpp"
#include "systems/common/reference.hpp"
#include "systems/common/validation.hpp"
#include "test_util.hpp"

namespace epgs::systems {
namespace {

EdgeList kron_graph() {
  gen::KroneckerParams p;
  p.scale = 9;
  p.edgefactor = 8;
  return dedupe(symmetrize(gen::kronecker(p)));
}

TEST(GapSystem, BuildsBothDirections) {
  GapSystem sys;
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 1, 1.0f}, Edge{2, 1, 1.0f}};
  sys.set_edges(el);
  sys.build();
  EXPECT_EQ(sys.out_csr().degree(0), 1u);
  EXPECT_EQ(sys.in_csr().degree(1), 2u);
  EXPECT_EQ(sys.out_csr().num_edges(), sys.in_csr().num_edges());
}

// One direction-switch setting and what it forces.
struct BfsRegime {
  GapSystem::Options opts;
  const char* forces;
};

class GapBfsRegime : public ::testing::TestWithParam<BfsRegime> {};

TEST_P(GapBfsRegime, ValidTreeUnderAnyHeuristic) {
  const auto& opts = GetParam().opts;
  GapSystem sys(opts);
  const auto el = kron_graph();
  sys.set_edges(el);
  sys.build();
  const auto csr = CSRGraph::from_edges(el);
  for (const vid_t root : {vid_t{1}, vid_t{5}, vid_t{100}}) {
    const auto r = sys.bfs(root);
    const auto err = validate_bfs(csr, r);
    EXPECT_FALSE(err.has_value())
        << GetParam().forces << " (alpha=" << opts.alpha
        << " beta=" << opts.beta << ") root=" << root << ": "
        << err.value_or("");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Heuristics, GapBfsRegime,
    ::testing::Values(
        BfsRegime{GapSystem::Options{}, "defaults"},
        BfsRegime{{.alpha = 1e9, .beta = 18.0}, "never bottom-up"},
        BfsRegime{{.alpha = 1e-9, .beta = 18.0}, "instant switch"},
        BfsRegime{{.alpha = 1e-9, .beta = 1e9}, "stay bottom-up"},
        BfsRegime{{.alpha = 15.0, .beta = 2.0}, "eager return"}),
    [](const auto& info) { return "case" + std::to_string(info.index); });

class GapDeltaSweep : public ::testing::TestWithParam<float> {};

TEST_P(GapDeltaSweep, SsspExactForAnyDelta) {
  GapSystem::Options opts;
  opts.delta = GetParam();
  GapSystem sys(opts);
  const auto el = with_random_weights(kron_graph(), 3, 31);
  sys.set_edges(el);
  sys.build();
  const auto csr = CSRGraph::from_edges(el);
  const auto truth = ref::dijkstra(csr, 1);
  const auto r = sys.sssp(1);
  for (vid_t v = 0; v < truth.size(); ++v) {
    ASSERT_EQ(r.dist[v], truth[v]) << "delta=" << opts.delta;
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, GapDeltaSweep,
                         ::testing::Values(1.0f, 2.0f, 8.0f, 64.0f, 1e9f),
                         [](const auto& info) {
                           return "delta" + std::to_string(info.index);
                         });

TEST(GapSystem, IntegerWeightModeTruncates) {
  // Section IV-A hazard: with integer weight storage, 0.2 casts to 0 and
  // shortest distances change.
  EdgeList el;
  el.num_vertices = 3;
  el.weighted = true;
  el.edges = {Edge{0, 1, 0.2f}, Edge{1, 2, 0.2f}, Edge{0, 2, 1.0f}};

  GapSystem float_mode;
  float_mode.set_edges(el);
  float_mode.build();
  EXPECT_FLOAT_EQ(float_mode.sssp(0).dist[2], 0.4f);

  GapSystem::Options opts;
  opts.integer_weights = true;
  GapSystem int_mode(opts);
  int_mode.set_edges(el);
  int_mode.build();
  EXPECT_FLOAT_EQ(int_mode.sssp(0).dist[2], 0.0f)
      << "0.2-weight edges truncate to free edges in int mode";
}

TEST(GapSystem, IntegerWeightModeNoOpForIntegralWeights) {
  const auto el = with_random_weights(test::line_graph(12), 4, 31);
  GapSystem::Options opts;
  opts.integer_weights = true;
  GapSystem int_mode(opts);
  int_mode.set_edges(el);
  int_mode.build();
  GapSystem float_mode;
  float_mode.set_edges(el);
  float_mode.build();
  EXPECT_EQ(int_mode.sssp(0).dist, float_mode.sssp(0).dist);
}

TEST(GapSystem, NoCdlpOrLccToolkits) {
  GapSystem sys;
  sys.set_edges(test::line_graph(4));
  sys.build();
  EXPECT_THROW(sys.cdlp(), UnsupportedAlgorithm);
  EXPECT_THROW(sys.lcc(), UnsupportedAlgorithm);
}

TEST(GapSystem, PageRankUsesFewIterationsOnRegularGraph) {
  // On a k-regular graph PageRank is exactly uniform from iteration 1, so
  // GAP's L1 criterion must stop almost immediately — the "GAP requires
  // the fewest iterations" end of Fig 4.
  GapSystem sys;
  sys.set_edges(test::cycle_graph(64));
  sys.build();
  const auto pr = sys.pagerank();
  EXPECT_LE(pr.iterations, 3);
}

TEST(GapSystem, WccOnDisconnectedForest) {
  GapSystem sys;
  sys.set_edges(test::two_triangles());
  sys.build();
  const auto r = sys.wcc();
  EXPECT_EQ(r.component, (std::vector<vid_t>{0, 0, 0, 3, 3, 3, 6}));
  EXPECT_EQ(r.num_components(), 3u);
}

TEST(GapSystem, BfsFromIsolatedRoot) {
  GapSystem sys;
  sys.set_edges(test::two_triangles());
  sys.build();
  const auto r = sys.bfs(6);
  EXPECT_EQ(r.parent[6], 6u);
  for (vid_t v = 0; v < 6; ++v) EXPECT_EQ(r.parent[v], kNoVertex);
}

TEST(GapSystem, SsspUnreachableStaysInfinite) {
  GapSystem sys;
  sys.set_edges(test::two_triangles());
  sys.build();
  const auto r = sys.sssp(0);
  EXPECT_EQ(r.dist[3], kInfDist);
  EXPECT_FLOAT_EQ(r.dist[2], 1.0f);
}

}  // namespace
}  // namespace epgs::systems
