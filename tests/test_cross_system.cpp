// Cross-system agreement: every system under test must produce results
// equivalent to the serial reference oracles on a battery of graphs —
// the property that makes the paper's runtime comparison meaningful at
// all (same problem, same answer, different machinery).
#include <gtest/gtest.h>

#include <cmath>

#include "core/parallel.hpp"
#include "gen/datasets.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/transforms.hpp"
#include "systems/common/reference.hpp"
#include "systems/common/registry.hpp"
#include "systems/common/validation.hpp"
#include "systems/gap/gap_system.hpp"
#include "systems/graphmat/graphmat_system.hpp"
#include "systems/ligra/ligra_system.hpp"
#include "systems/powergraph/powergraph_system.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

struct GraphCase {
  std::string name;
  EdgeList edges;
};

// ctest runs every parameterized case in its own process, so building
// the whole battery eagerly would regenerate all nine graphs per test.
// Keep (name, generator) specs and materialise only the requested case.
struct GraphCaseSpec {
  const char* name;
  EdgeList (*make)();
};

const std::vector<GraphCaseSpec>& battery_specs() {
  static const std::vector<GraphCaseSpec> specs = {
      {"two_triangles", [] { return test::two_triangles(); }},
      {"line16w", [] { return test::line_graph(16, /*weighted=*/true); }},
      {"star12", [] { return test::star_graph(12); }},
      {"cycle9", [] { return test::cycle_graph(9); }},
      {"directed_pr", [] { return test::pagerank_graph(); }},
      {"kron_s8",
       [] {
         gen::KroneckerParams p;
         p.scale = 8;
         p.edgefactor = 8;
         return with_random_weights(dedupe(symmetrize(gen::kronecker(p))),
                                    7, 15);
       }},
      {"loops_dupes",
       [] {
         // Self loops and parallel edges: systems must agree on the
         // messy input too (the raw Kronecker stream contains both).
         EdgeList el;
         el.num_vertices = 6;
         el.weighted = true;
         el.edges = {Edge{0, 0, 3.0f}, Edge{0, 1, 2.0f}, Edge{1, 0, 2.0f},
                     Edge{0, 1, 5.0f}, Edge{1, 0, 5.0f}, Edge{1, 2, 1.0f},
                     Edge{2, 1, 1.0f}, Edge{2, 2, 1.0f}, Edge{3, 4, 4.0f},
                     Edge{4, 3, 4.0f}, Edge{3, 4, 4.0f}, Edge{4, 3, 4.0f}};
         return el;
       }},
      {"patents_like",
       [] {
         gen::PatentsLikeParams p;
         p.fraction = 0.0004;  // ~1.5k vertices, directed
         return gen::patents_like(p);
       }},
      {"dota_like",
       [] {
         gen::DotaLikeParams p;
         p.fraction = 0.004;  // ~250 vertices, dense weighted
         return gen::dota_like(p);
       }},
  };
  return specs;
}

class CrossSystem
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
 protected:
  void SetUp() override {
    const auto& [system_name, case_index] = GetParam();
    const auto& spec = battery_specs()[case_index];
    graph_ = GraphCase{spec.name, spec.make()};
    sys_ = make_system(system_name);
    sys_->set_edges(graph_.edges);
    sys_->build();
    out_ = CSRGraph::from_edges(graph_.edges);
    in_ = CSRGraph::from_edges(graph_.edges).transposed();
  }

  vid_t pick_root() const {
    // Any vertex with an out-edge, preferring a high-degree one.
    vid_t best = 0;
    for (vid_t v = 0; v < out_.num_vertices(); ++v) {
      if (out_.degree(v) > out_.degree(best)) best = v;
    }
    return best;
  }

  GraphCase graph_{};
  std::unique_ptr<System> sys_;
  CSRGraph out_, in_;
};

TEST_P(CrossSystem, BfsProducesValidShortestTree) {
  if (!sys_->capabilities().bfs) GTEST_SKIP() << "no BFS toolkit";
  const vid_t root = pick_root();
  const auto result = sys_->bfs(root);
  const auto err = validate_bfs(out_, result);
  EXPECT_FALSE(err.has_value()) << sys_->name() << " on " << graph_.name
                                << ": " << err.value_or("");
}

TEST_P(CrossSystem, SsspMatchesDijkstraExactly) {
  if (!sys_->capabilities().sssp) GTEST_SKIP() << "no SSSP toolkit";
  const vid_t root = pick_root();
  const auto result = sys_->sssp(root);
  const auto truth = ref::dijkstra(out_, root);
  ASSERT_EQ(result.dist.size(), truth.size());
  for (vid_t v = 0; v < truth.size(); ++v) {
    EXPECT_EQ(result.dist[v], truth[v])
        << sys_->name() << " on " << graph_.name << " vertex " << v;
  }
}

TEST_P(CrossSystem, PageRankMatchesReference) {
  if (!sys_->capabilities().pagerank) GTEST_SKIP() << "no PageRank";
  PageRankParams params;
  const auto result = sys_->pagerank(params);
  const auto err = validate_pagerank(result, 1e-4);
  EXPECT_FALSE(err.has_value()) << err.value_or("");

  const auto truth = ref::pagerank(out_, in_, params);
  // GraphMat's single-precision ranks and its different stopping
  // criterion warrant a looser tolerance.
  const double rel_tol = sys_->name() == "GraphMat" ? 1e-3 : 1e-6;
  ASSERT_EQ(result.rank.size(), truth.rank.size());
  const double uniform = 1.0 / static_cast<double>(result.rank.size());
  for (std::size_t v = 0; v < truth.rank.size(); ++v) {
    EXPECT_NEAR(result.rank[v], truth.rank[v],
                rel_tol * (uniform + truth.rank[v]))
        << sys_->name() << " on " << graph_.name << " vertex " << v;
  }
}

TEST_P(CrossSystem, CdlpMatchesReference) {
  if (!sys_->capabilities().cdlp) GTEST_SKIP() << "no CDLP";
  const auto result = sys_->cdlp(10);
  const auto truth = ref::cdlp(out_, in_, 10);
  EXPECT_EQ(result.label, truth.label)
      << sys_->name() << " on " << graph_.name;
}

TEST_P(CrossSystem, LccMatchesReference) {
  if (!sys_->capabilities().lcc) GTEST_SKIP() << "no LCC";
  const auto result = sys_->lcc();
  const auto truth = ref::lcc(out_, in_);
  ASSERT_EQ(result.coefficient.size(), truth.coefficient.size());
  for (std::size_t v = 0; v < truth.coefficient.size(); ++v) {
    EXPECT_NEAR(result.coefficient[v], truth.coefficient[v], 1e-12)
        << sys_->name() << " on " << graph_.name << " vertex " << v;
  }
}

TEST_P(CrossSystem, TriangleCountMatchesReference) {
  if (!sys_->capabilities().tc) GTEST_SKIP() << "no TC toolkit";
  const auto result = sys_->tc();
  const auto truth = ref::triangle_count(out_, in_);
  EXPECT_EQ(result.triangles, truth.triangles)
      << sys_->name() << " on " << graph_.name;
}

TEST_P(CrossSystem, BetweennessMatchesBrandes) {
  if (!sys_->capabilities().bc) GTEST_SKIP() << "no BC toolkit";
  const vid_t source = pick_root();
  const auto result = sys_->bc(source);
  const auto truth = ref::brandes_bc(out_, in_, source);
  ASSERT_EQ(result.dependency.size(), truth.dependency.size());
  for (std::size_t v = 0; v < truth.dependency.size(); ++v) {
    EXPECT_NEAR(result.dependency[v], truth.dependency[v],
                1e-9 * (1.0 + truth.dependency[v]))
        << sys_->name() << " on " << graph_.name << " vertex " << v;
  }
}

TEST_P(CrossSystem, WccMatchesReferenceAndValidates) {
  if (!sys_->capabilities().wcc) GTEST_SKIP() << "no WCC";
  const auto result = sys_->wcc();
  const auto truth = ref::wcc(graph_.edges);
  EXPECT_EQ(result.component, truth.component)
      << sys_->name() << " on " << graph_.name;
  EXPECT_FALSE(validate_wcc(graph_.edges, result).has_value());
}

std::vector<std::tuple<std::string, std::size_t>> all_cases() {
  std::vector<std::tuple<std::string, std::size_t>> cases;
  auto names = all_system_names();
  const auto ext = extension_system_names();
  names.insert(names.end(), ext.begin(), ext.end());
  for (const auto sys : names) {
    for (std::size_t g = 0; g < battery_specs().size(); ++g) {
      cases.emplace_back(std::string(sys), g);
    }
  }
  return cases;
}

// Kernel 1's in-adjacency: GAP and Ligra read in-edges from the out-CSR
// itself when it is symmetric (so the build holds and reports one CSR),
// and GraphMat's A^T is whatever the counting transpose would give.
template <typename S>
void expect_in_csr_is_transpose(const S& sys, const PhaseLog& log) {
  const CSRGraph& out = sys.out_csr();
  EXPECT_TRUE(sys.in_csr() == out.transposed());
  if (out.is_symmetric()) {
    EXPECT_EQ(&sys.in_csr(), &out);
    EXPECT_EQ(log.find(phase::kBuild)->work.bytes_touched, out.bytes());
  }
}

TEST_P(CrossSystem, InAdjacencyIsTheTranspose) {
  if (const auto* gap = dynamic_cast<const systems::GapSystem*>(sys_.get())) {
    expect_in_csr_is_transpose(*gap, sys_->log());
  } else if (const auto* ligra =
                 dynamic_cast<const systems::LigraSystem*>(sys_.get())) {
    expect_in_csr_is_transpose(*ligra, sys_->log());
  } else if (const auto* gm =
                 dynamic_cast<const systems::GraphMatSystem*>(sys_.get())) {
    EXPECT_TRUE(gm->matrix_t() ==
                systems::graphmat_detail::DCSR::from_csr(out_.transposed()));
  } else {
    GTEST_SKIP() << "no in-adjacency of its own";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystemsAllGraphs, CrossSystem, ::testing::ValuesIn(all_cases()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             battery_specs()[std::get<1>(info.param)].name;
    });

// Thread-count sweep: the lock-free frontier machinery must produce
// results equivalent to the serial references at every parallelism
// level the paper sweeps (Fig 5/6). BFS parent trees are validated
// structurally (any valid shortest-path tree is accepted), SSSP
// distances and PageRank ranks must match the oracles exactly /
// within tolerance.
class CrossSystemThreads : public ::testing::TestWithParam<int> {};

TEST_P(CrossSystemThreads, BfsSsspPageRankEquivalentAtEveryThreadCount) {
  const int num_threads = GetParam();
  ThreadScope scope(num_threads);

  const auto el = with_random_weights(dedupe(symmetrize([] {
                                       gen::KroneckerParams p;
                                       p.scale = 8;
                                       p.edgefactor = 8;
                                       return gen::kronecker(p);
                                     }())),
                                      3, 12);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const vid_t root = 1;
  const auto bfs_truth = ref::bfs_levels(out, root);
  const auto sssp_truth = ref::dijkstra(out, root);
  PageRankParams pr_params;
  const auto pr_truth = ref::pagerank(out, in, pr_params);

  auto names = all_system_names();
  const auto ext = extension_system_names();
  names.insert(names.end(), ext.begin(), ext.end());
  for (const auto name : names) {
    auto sys = make_system(name);
    sys->set_edges(el);
    sys->build();
    const auto caps = sys->capabilities();
    if (caps.bfs) {
      const auto r = sys->bfs(root);
      const auto err = validate_bfs(out, r);
      EXPECT_FALSE(err.has_value())
          << name << " BFS @" << num_threads << "t: " << err.value_or("");
      EXPECT_EQ(r.levels(), bfs_truth)
          << name << " BFS levels @" << num_threads << "t";
    }
    if (caps.sssp) {
      const auto r = sys->sssp(root);
      ASSERT_EQ(r.dist.size(), sssp_truth.size()) << name;
      for (vid_t v = 0; v < sssp_truth.size(); ++v) {
        ASSERT_EQ(r.dist[v], sssp_truth[v])
            << name << " SSSP @" << num_threads << "t vertex " << v;
      }
    }
    if (caps.pagerank) {
      const auto r = sys->pagerank(pr_params);
      ASSERT_EQ(r.rank.size(), pr_truth.rank.size()) << name;
      const double rel_tol = sys->name() == "GraphMat" ? 1e-3 : 1e-6;
      const double uniform = 1.0 / static_cast<double>(r.rank.size());
      for (std::size_t v = 0; v < pr_truth.rank.size(); ++v) {
        ASSERT_NEAR(r.rank[v], pr_truth.rank[v],
                    rel_tol * (uniform + pr_truth.rank[v]))
            << name << " PageRank @" << num_threads << "t vertex " << v;
      }
    }
  }
}

// The PageRank kernels of GAP, GraphBIG, GraphMat and Ligra are pure
// functions of the graph: contributions are precomputed, GraphBIG's
// push bins reduce in a fixed chunk order, and the global sums use the
// deterministic block reduction. So the ranks must be
// *bit-identical* across thread counts, not merely within tolerance —
// the single-threaded run of the same kernel is the baseline.
// (PowerGraph sizes its vertex cut from the worker count by design, so
// its ranks are a function of the partition count — covered at a fixed
// partitioning by PrVariants.PowerGraphDeterministicAtFixedPartitions.)
TEST_P(CrossSystemThreads, PageRankBitIdenticalAcrossThreadCounts) {
  const int num_threads = GetParam();
  const auto el = dedupe(symmetrize([] {
    gen::KroneckerParams p;
    p.scale = 8;
    p.edgefactor = 8;
    return gen::kronecker(p);
  }()));
  PageRankParams pr_params;

  auto names = all_system_names();
  const auto ext = extension_system_names();
  names.insert(names.end(), ext.begin(), ext.end());
  std::erase(names, "PowerGraph");  // partition count tracks threads
  for (const auto name : names) {
    std::vector<double> baseline;
    {
      ThreadScope scope(1);
      auto sys = make_system(name);
      if (!sys->capabilities().pagerank) continue;
      sys->set_edges(el);
      sys->build();
      baseline = sys->pagerank(pr_params).rank;
    }
    ThreadScope scope(num_threads);
    auto sys = make_system(name);
    sys->set_edges(el);
    sys->build();
    const auto r = sys->pagerank(pr_params);
    ASSERT_EQ(r.rank.size(), baseline.size()) << name;
    for (std::size_t v = 0; v < baseline.size(); ++v) {
      ASSERT_EQ(r.rank[v], baseline[v])
          << name << " PageRank not deterministic @" << num_threads
          << "t vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, CrossSystemThreads,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

// With the partition count held fixed, PowerGraph's GAS PageRank is
// deterministic too: per-vertex gather order is local edge order,
// master-side combine order is replica order, and both are independent
// of the thread schedule.
TEST(PrVariants, PowerGraphDeterministicAtFixedPartitions) {
  const auto el = dedupe(symmetrize([] {
    gen::KroneckerParams p;
    p.scale = 8;
    p.edgefactor = 8;
    return gen::kronecker(p);
  }()));
  PageRankParams pr_params;

  const auto run = [&](int threads) {
    ThreadScope scope(threads);
    systems::PowerGraphSystem::Options opts;
    opts.num_partitions = 8;
    systems::PowerGraphSystem sys(opts);
    sys.set_edges(el);
    sys.build();
    return sys.pagerank(pr_params).rank;
  };
  const auto baseline = run(1);
  for (const int t : {2, 4, 8}) {
    const auto ranks = run(t);
    ASSERT_EQ(ranks.size(), baseline.size());
    for (std::size_t v = 0; v < baseline.size(); ++v) {
      ASSERT_EQ(ranks[v], baseline[v]) << "threads " << t << " vertex " << v;
    }
  }
}

// Every system must agree with every *other* system on BFS level sets
// (parent trees may differ; levels may not).
TEST(CrossSystemPairwise, BfsLevelSetsAgree) {
  const auto el = dedupe(symmetrize([] {
    gen::KroneckerParams p;
    p.scale = 7;
    return gen::kronecker(p);
  }()));
  const auto csr = CSRGraph::from_edges(el);
  const auto truth = ref::bfs_levels(csr, 1);

  for (const auto name : all_system_names()) {
    auto sys = make_system(name);
    if (!sys->capabilities().bfs) continue;
    sys->set_edges(el);
    sys->build();
    const auto levels = sys->bfs(1).levels();
    EXPECT_EQ(levels, truth) << name;
  }
}

}  // namespace
}  // namespace epgs
