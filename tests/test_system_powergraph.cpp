// PowerGraph-specific behaviour: vertex-cut invariants, replication
// factor, and GAS engine counters.
#include "systems/powergraph/powergraph_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/parallel.hpp"
#include "gen/datasets.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/transforms.hpp"
#include "systems/common/reference.hpp"
#include "systems/powergraph/vertex_cut.hpp"
#include "test_util.hpp"

namespace epgs::systems {
namespace {

using powergraph_detail::VertexCut;

EdgeList kron_graph() {
  gen::KroneckerParams p;
  p.scale = 8;
  p.edgefactor = 8;
  return dedupe(symmetrize(gen::kronecker(p)));
}

TEST(VertexCut, EdgesArePartitionedExactly) {
  const auto el = kron_graph();
  const auto vc = VertexCut::build(el, 4);
  eid_t total = 0;
  for (int p = 0; p < vc.num_partitions(); ++p) {
    total += vc.edges_of(p).size();
  }
  EXPECT_EQ(total, el.num_edges()) << "every edge on exactly one partition";
}

TEST(VertexCut, ReplicasCoverEndpoints) {
  const auto el = kron_graph();
  const auto vc = VertexCut::build(el, 4);
  for (int p = 0; p < vc.num_partitions(); ++p) {
    for (const auto& e : vc.edges_of(p)) {
      const auto& ru = vc.replicas_of(e.src);
      const auto& rv = vc.replicas_of(e.dst);
      EXPECT_NE(std::find(ru.begin(), ru.end(), p), ru.end());
      EXPECT_NE(std::find(rv.begin(), rv.end(), p), rv.end());
    }
  }
}

TEST(VertexCut, ReplicasAreUniqueAndBounded) {
  const auto el = kron_graph();
  const int np = 6;
  const auto vc = VertexCut::build(el, np);
  const auto deg = total_degrees(el);
  for (vid_t v = 0; v < el.num_vertices; ++v) {
    auto r = vc.replicas_of(v);
    std::sort(r.begin(), r.end());
    EXPECT_EQ(std::unique(r.begin(), r.end()), r.end());
    EXPECT_LE(r.size(), static_cast<std::size_t>(np));
    EXPECT_LE(r.size(), std::max<std::size_t>(deg[v], 1));
    if (deg[v] > 0) EXPECT_GE(r.size(), 1u);
  }
}

TEST(VertexCut, MasterIsAReplica) {
  const auto el = kron_graph();
  const auto vc = VertexCut::build(el, 5);
  for (vid_t v = 0; v < el.num_vertices; ++v) {
    const auto& r = vc.replicas_of(v);
    if (r.empty()) continue;
    EXPECT_NE(std::find(r.begin(), r.end(), vc.master_of(v)), r.end());
  }
}

TEST(VertexCut, ReplicationFactorWithinBounds) {
  const auto el = kron_graph();
  for (const int np : {1, 2, 4, 8}) {
    const auto vc = VertexCut::build(el, np);
    const double rf = vc.replication_factor();
    EXPECT_GE(rf, 1.0) << np;
    EXPECT_LE(rf, static_cast<double>(np)) << np;
  }
}

TEST(VertexCut, SinglePartitionHasNoReplication) {
  const auto vc = VertexCut::build(test::two_triangles(), 1);
  EXPECT_DOUBLE_EQ(vc.replication_factor(), 1.0);
}

TEST(VertexCut, GreedyBeatsWorstCaseOnHubs) {
  // On a star, the greedy heuristic keeps leaf vertices on a single
  // partition each; only the hub should be replicated widely.
  const auto vc = VertexCut::build(test::star_graph(200), 8);
  std::size_t leaf_replicas = 0;
  for (vid_t v = 1; v < 200; ++v) {
    leaf_replicas += vc.replicas_of(v).size();
  }
  EXPECT_EQ(leaf_replicas, 199u) << "each leaf on exactly one partition";
}

TEST(VertexCut, LoadIsReasonablyBalanced) {
  const auto el = kron_graph();
  const int np = 4;
  const auto vc = VertexCut::build(el, np);
  std::vector<std::size_t> loads;
  for (int p = 0; p < np; ++p) loads.push_back(vc.edges_of(p).size());
  const auto mx = *std::max_element(loads.begin(), loads.end());
  const auto avg = el.num_edges() / static_cast<double>(np);
  EXPECT_LT(static_cast<double>(mx), 2.0 * avg);
}

TEST(VertexCut, InvalidPartitionCountThrows) {
  EXPECT_THROW(VertexCut::build(test::line_graph(4), 0), EpgsError);
  EXPECT_THROW(VertexCut::build(test::line_graph(4), 999), EpgsError);
}

TEST(PowerGraphSystem, PartitionCountOptionRespected) {
  PowerGraphSystem sys(PowerGraphSystem::Options{.num_partitions = 3});
  sys.set_edges(kron_graph());
  sys.build();
  EXPECT_EQ(sys.partitioning().num_partitions(), 3);
}

TEST(PowerGraphSystem, EngineInitLoggedSeparately) {
  PowerGraphSystem sys(PowerGraphSystem::Options{.num_partitions = 4});
  sys.set_edges(test::two_triangles());
  sys.build();
  (void)sys.wcc();
  EXPECT_TRUE(sys.log().find(phase::kEngineInit).has_value())
      << "PowerGraph pays an engine-construction cost per algorithm";
}

TEST(PowerGraphSystem, SsspOnDenseHubGraph) {
  // The dota-like graph is the case the paper highlights for PowerGraph.
  gen::DotaLikeParams p;
  p.fraction = 0.003;
  const auto el = gen::dota_like(p);
  PowerGraphSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto csr = CSRGraph::from_edges(el);
  const auto truth = ref::dijkstra(csr, 0);
  const auto r = sys.sssp(0);
  for (vid_t v = 0; v < truth.size(); ++v) {
    ASSERT_EQ(r.dist[v], truth[v]);
  }
}

TEST(PowerGraphSystem, GatherScatterCountersNonZero) {
  PowerGraphSystem sys(PowerGraphSystem::Options{.num_partitions = 2});
  sys.set_edges(test::cycle_graph(10));
  sys.build();
  (void)sys.wcc();
  const auto alg = sys.log().find(phase::kAlgorithm);
  ASSERT_TRUE(alg.has_value());
  EXPECT_GT(alg->work.edges_processed, 0u);
  EXPECT_GT(alg->work.vertex_updates, 0u) << "mirror syncs must be counted";
}

TEST(PowerGraphSystem, ResultsBitIdenticalAcrossThreadCounts) {
  // The auto partition count is 4 at 1, 2 and 4 threads, so the cut,
  // the local ids and every gather and merge order are the same: the
  // thread count must not change a bit of any result or work counter.
  gen::KroneckerParams kp;
  kp.scale = 10;
  const auto el =
      with_random_weights(dedupe(symmetrize(gen::kronecker(kp))), 7, 63);
  struct Outputs {
    std::vector<weight_t> dist;
    std::vector<double> rank;
    std::vector<vid_t> label;
    std::vector<WorkStats> work;
  };
  const auto run_at = [&](int threads) {
    ThreadScope scope(threads);
    PowerGraphSystem sys;
    sys.set_edges(el);
    sys.build();
    EXPECT_EQ(sys.partitioning().num_partitions(), 4) << threads;
    Outputs o;
    const auto work = [&] {
      o.work.push_back(sys.log().entries().back().work);
    };
    o.dist = sys.sssp(1).dist;
    work();
    o.rank = sys.pagerank().rank;
    work();
    o.label = sys.wcc().component;
    work();
    return o;
  };
  const Outputs base = run_at(1);
  for (const int threads : {2, 4}) {
    const Outputs o = run_at(threads);
    ASSERT_EQ(o.dist.size(), base.dist.size());
    EXPECT_EQ(std::memcmp(o.dist.data(), base.dist.data(),
                          base.dist.size() * sizeof(weight_t)),
              0)
        << "SSSP at " << threads << " threads";
    ASSERT_EQ(o.rank.size(), base.rank.size());
    EXPECT_EQ(std::memcmp(o.rank.data(), base.rank.data(),
                          base.rank.size() * sizeof(double)),
              0)
        << "PageRank at " << threads << " threads";
    EXPECT_EQ(o.label, base.label) << "WCC at " << threads << " threads";
    for (std::size_t i = 0; i < base.work.size(); ++i) {
      EXPECT_EQ(o.work[i].edges_processed, base.work[i].edges_processed) << i;
      EXPECT_EQ(o.work[i].vertex_updates, base.work[i].vertex_updates) << i;
      EXPECT_EQ(o.work[i].bytes_touched, base.work[i].bytes_touched) << i;
    }
  }
}

}  // namespace
}  // namespace epgs::systems
