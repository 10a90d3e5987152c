// Property sweeps: randomized graph configurations, checked against the
// oracles. These catch the interactions single fixed graphs miss —
// generator seed x skew x weight range x root position.
#include <gtest/gtest.h>

#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/transforms.hpp"
#include "harness/experiment.hpp"
#include "systems/common/reference.hpp"
#include "systems/common/registry.hpp"
#include "systems/common/validation.hpp"

namespace epgs {
namespace {

struct SweepConfig {
  std::uint64_t seed;
  int scale;
  int edgefactor;
  double a;  // Kronecker skew
  std::uint32_t max_weight;
};

class RandomGraphSweep : public ::testing::TestWithParam<SweepConfig> {
 protected:
  void SetUp() override {
    const auto& cfg = GetParam();
    gen::KroneckerParams p;
    p.scale = cfg.scale;
    p.edgefactor = cfg.edgefactor;
    p.seed = cfg.seed;
    p.a = cfg.a;
    p.b = p.c = (1.0 - cfg.a) / 3.0;
    graph_ = with_random_weights(dedupe(symmetrize(gen::kronecker(p))),
                                 cfg.seed ^ 0xABCDULL, cfg.max_weight);
    csr_ = CSRGraph::from_edges(graph_);
    roots_ = harness::select_roots(graph_, 3, cfg.seed);
  }

  EdgeList graph_;
  CSRGraph csr_;
  std::vector<vid_t> roots_;
};

TEST_P(RandomGraphSweep, AllBfsSystemsValidate) {
  for (const auto name : all_system_names()) {
    auto sys = make_system(name);
    if (!sys->capabilities().bfs) continue;
    sys->set_edges(graph_);
    sys->build();
    for (const vid_t root : roots_) {
      const auto err = validate_bfs(csr_, sys->bfs(root));
      ASSERT_FALSE(err.has_value())
          << name << " seed=" << GetParam().seed << " root=" << root
          << ": " << err.value_or("");
    }
  }
}

TEST_P(RandomGraphSweep, AllSsspSystemsExact) {
  for (const auto name : all_system_names()) {
    auto sys = make_system(name);
    if (!sys->capabilities().sssp) continue;
    sys->set_edges(graph_);
    sys->build();
    const auto truth = ref::dijkstra(csr_, roots_[0]);
    const auto result = sys->sssp(roots_[0]);
    for (vid_t v = 0; v < truth.size(); ++v) {
      ASSERT_EQ(result.dist[v], truth[v])
          << name << " seed=" << GetParam().seed << " vertex=" << v;
    }
  }
}

TEST_P(RandomGraphSweep, WccAgreesEverywhere) {
  const auto truth = ref::wcc(graph_);
  for (const auto name : all_system_names()) {
    auto sys = make_system(name);
    if (!sys->capabilities().wcc) continue;
    sys->set_edges(graph_);
    sys->build();
    ASSERT_EQ(sys->wcc().component, truth.component)
        << name << " seed=" << GetParam().seed;
  }
}

TEST_P(RandomGraphSweep, PageRankDistributionsAgree) {
  PageRankParams params;
  const auto in = CSRGraph::from_edges(graph_).transposed();
  const auto truth = ref::pagerank(csr_, in, params);
  for (const auto name : all_system_names()) {
    auto sys = make_system(name);
    if (!sys->capabilities().pagerank) continue;
    sys->set_edges(graph_);
    sys->build();
    const auto result = sys->pagerank(params);
    const double rel_tol =
        sys->name() == "GraphMat" ? 1e-3 : 1e-6;  // float ranks
    const double uniform = 1.0 / static_cast<double>(truth.rank.size());
    for (std::size_t v = 0; v < truth.rank.size(); ++v) {
      ASSERT_NEAR(result.rank[v], truth.rank[v],
                  rel_tol * (uniform + truth.rank[v]))
          << name << " seed=" << GetParam().seed << " vertex=" << v;
    }
  }
}

TEST_P(RandomGraphSweep, TriangleCountsAgree) {
  const auto in = CSRGraph::from_edges(graph_).transposed();
  const auto truth = ref::triangle_count(csr_, in);
  for (const auto name : all_system_names()) {
    auto sys = make_system(name);
    if (!sys->capabilities().tc) continue;
    sys->set_edges(graph_);
    sys->build();
    ASSERT_EQ(sys->tc().triangles, truth.triangles)
        << name << " seed=" << GetParam().seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RandomGraphSweep,
    ::testing::Values(SweepConfig{1, 7, 4, 0.57, 255},
                      SweepConfig{2, 8, 8, 0.57, 3},
                      SweepConfig{3, 7, 16, 0.45, 15},
                      SweepConfig{4, 8, 2, 0.70, 255},
                      SweepConfig{5, 6, 12, 0.25, 1},
                      SweepConfig{6, 9, 6, 0.60, 63}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace epgs
