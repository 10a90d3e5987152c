// GraphMat-specific behaviour: DCSR storage, the SpMSpV vertex-program
// engine, and the PageRank stopping criterion (infinity norm zero, or a
// period-2 float cycle).
#include "systems/graphmat/graphmat_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/transforms.hpp"
#include "systems/common/reference.hpp"
#include "systems/graph500/graph500_system.hpp"
#include "systems/graphmat/dcsr.hpp"
#include "test_util.hpp"

namespace epgs::systems {
namespace {

using graphmat_detail::DCSR;

DCSR dcsr(const EdgeList& el, bool transpose) {
  CSRGraph out = CSRGraph::from_edges(el);
  return DCSR::from_csr(transpose ? out.transposed() : std::move(out));
}

TEST(Dcsr, OnlyNonEmptyRowsStored) {
  EdgeList el;
  el.num_vertices = 100;
  el.edges = {Edge{5, 6, 1.0f}, Edge{5, 7, 1.0f}, Edge{90, 5, 1.0f}};
  const auto m = dcsr(el, /*transpose=*/false);
  EXPECT_EQ(m.num_vertices(), 100u);
  EXPECT_EQ(m.num_nonzeros(), 3u);
  EXPECT_EQ(m.num_rows(), 2u);  // rows 5 and 90 only
  EXPECT_EQ(m.row_id(0), 5u);
  EXPECT_EQ(m.row_id(1), 90u);
  EXPECT_EQ(m.row_cols(0).size(), 2u);
}

TEST(Dcsr, FindRow) {
  EdgeList el;
  el.num_vertices = 10;
  el.edges = {Edge{2, 3, 1.0f}, Edge{8, 1, 1.0f}};
  const auto m = dcsr(el, false);
  EXPECT_EQ(m.find_row(2), 0u);
  EXPECT_EQ(m.find_row(8), 1u);
  EXPECT_EQ(m.find_row(3), DCSR::npos);
  EXPECT_EQ(m.find_row(9), DCSR::npos);
}

TEST(Dcsr, TransposeIsInAdjacency) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{0, 3, 1.0f}, Edge{1, 3, 1.0f}, Edge{2, 0, 1.0f}};
  const auto t = dcsr(el, /*transpose=*/true);
  const auto row3 = t.find_row(3);
  ASSERT_NE(row3, DCSR::npos);
  const auto cols = t.row_cols(row3);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 0u);  // sorted sources
  EXPECT_EQ(cols[1], 1u);
}

TEST(Dcsr, WeightsTravelWithColumns) {
  EdgeList el;
  el.num_vertices = 3;
  el.weighted = true;
  el.edges = {Edge{0, 2, 9.0f}, Edge{0, 1, 4.0f}};
  const auto m = dcsr(el, false);
  ASSERT_TRUE(m.weighted());
  const auto cols = m.row_cols(0);
  const auto vals = m.row_vals(0);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_FLOAT_EQ(vals[0], 4.0f);
  EXPECT_EQ(cols[1], 2u);
  EXPECT_FLOAT_EQ(vals[1], 9.0f);
}

TEST(Dcsr, EmptyMatrix) {
  EdgeList el;
  el.num_vertices = 5;
  const auto m = dcsr(el, false);
  EXPECT_EQ(m.num_rows(), 0u);
  EXPECT_EQ(m.num_nonzeros(), 0u);
  EXPECT_GT(m.bytes(), 0u);  // offsets array exists
}

TEST(Dcsr, FromCsrKeepsRowsAndDropsEmptyOnes) {
  EdgeList el;
  el.num_vertices = 8;
  el.weighted = true;
  el.edges = {Edge{1, 4, 2.0f}, Edge{1, 2, 3.0f}, Edge{4, 1, 5.0f},
              Edge{6, 6, 1.0f}, Edge{6, 0, 4.0f}};
  const CSRGraph csr = CSRGraph::from_edges(el);
  CSRGraph moved = csr;
  const vid_t* cols = moved.targets().data();
  const auto m = DCSR::from_csr(std::move(moved));
  EXPECT_EQ(m.num_vertices(), 8u);
  EXPECT_EQ(m.num_nonzeros(), 5u);
  ASSERT_EQ(m.num_rows(), 3u);  // rows 1, 4 and 6
  EXPECT_EQ(m.row_cols(0).data(), cols);  // adopted, not copied
  std::size_t r = 0;
  for (vid_t u = 0; u < csr.num_vertices(); ++u) {
    if (csr.degree(u) == 0) {
      EXPECT_EQ(m.find_row(u), DCSR::npos) << u;
      continue;
    }
    ASSERT_EQ(m.find_row(u), r) << u;
    EXPECT_EQ(m.row_id(r), u);
    EXPECT_EQ(m.row_cols(r).data(), cols + csr.offsets()[u]);
    EXPECT_TRUE(std::ranges::equal(m.row_cols(r), csr.neighbors(u)));
    EXPECT_TRUE(std::ranges::equal(m.row_vals(r), csr.edge_weights(u)));
    ++r;
  }
}

TEST(GraphMatSystem, BfsDepthsViaSpmv) {
  GraphMatSystem sys;
  sys.set_edges(test::line_graph(6));
  sys.build();
  const auto r = sys.bfs(0);
  EXPECT_EQ(r.levels(), (std::vector<vid_t>{0, 1, 2, 3, 4, 5}));
  // The min-sender tie-break makes parents deterministic.
  EXPECT_EQ(r.parent, (std::vector<vid_t>{0, 0, 1, 2, 3, 4}));
}

TEST(GraphMatSystem, PageRankIgnoresEpsilonAndRunsToFixpoint) {
  // "with GraphMat there is no computation of |p_k(i) - p_k(i-1)|" — a
  // huge epsilon must not stop it early.
  GraphMatSystem sys;
  sys.set_edges(test::pagerank_graph());
  sys.build();
  PageRankParams loose;
  loose.epsilon = 1.0;  // would stop the others after one iteration
  const auto pr_loose = sys.pagerank(loose);
  PageRankParams tight;
  tight.epsilon = 1e-12;
  const auto pr_tight = sys.pagerank(tight);
  EXPECT_EQ(pr_loose.iterations, pr_tight.iterations)
      << "GraphMat's stopping criterion must not depend on epsilon";
  EXPECT_GT(pr_loose.iterations, 3);
}

TEST(GraphMatSystem, PageRankIteratesAtLeastAsLongAsReference) {
  // The infinity-norm-zero criterion is strictly stricter than the L1
  // epsilon criterion — the mechanism behind GraphMat's tall bar in the
  // right panel of Fig 4.
  const auto el = test::pagerank_graph();
  GraphMatSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  PageRankParams params;
  const auto truth = ref::pagerank(out, in, params);
  const auto pr = sys.pagerank(params);
  EXPECT_GE(pr.iterations, truth.iterations);
}

TEST(GraphMatSystem, PageRankTerminatesAtFloatFixpoint) {
  GraphMatSystem sys;
  sys.set_edges(test::cycle_graph(16));
  sys.build();
  PageRankParams params;
  params.max_iterations = 1000;
  const auto pr = sys.pagerank(params);
  EXPECT_LT(pr.iterations, 1000) << "must reach an exact float fixpoint";
}

TEST(GraphMatSystem, PageRankStopsAtItsFloatCycleBeforeTheCap) {
  // On Kronecker graphs a few ranks alternate by an ulp or two, so "no
  // rank changed" never holds; the kernel must stop once the ranks repeat
  // those of two iterations back, not at the 300-iteration cap.
  for (const int scale : {10, 12}) {
    gen::KroneckerParams p;
    p.scale = scale;
    const EdgeList el = dedupe(symmetrize(gen::kronecker(p)));
    for (const int threads : {1, 4}) {
      ThreadScope scope(threads);
      GraphMatSystem sys;
      sys.set_edges(el);
      sys.build();
      const PageRankParams params;
      const auto pr = sys.pagerank(params);
      EXPECT_LT(pr.iterations, params.max_iterations)
          << "s" << scale << " at " << threads << " threads";
      // Each row counts the ranks the previous iteration changed.
      const auto entry = sys.log().find(phase::kAlgorithm);
      ASSERT_TRUE(entry.has_value());
      ASSERT_EQ(entry->timeline.size(),
                static_cast<std::size_t>(pr.iterations));
      EXPECT_EQ(entry->timeline.front().frontier, el.num_vertices);
      EXPECT_LT(entry->timeline.back().frontier, el.num_vertices);
    }
  }
}

TEST(GraphMatSystem, SsspViaSemiringMinPlus) {
  EdgeList el;
  el.num_vertices = 4;
  el.weighted = true;
  el.edges = {Edge{0, 1, 4.0f}, Edge{0, 2, 1.0f}, Edge{2, 1, 1.0f},
              Edge{1, 3, 1.0f}};
  GraphMatSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto r = sys.sssp(0);
  EXPECT_FLOAT_EQ(r.dist[1], 2.0f);
  EXPECT_FLOAT_EQ(r.dist[3], 3.0f);
}

// ---------------------------------------------------------------------
// The SpMSpV engine: BFS and SSSP push from active sources along rows of
// A, each destination tile on one thread.
// ---------------------------------------------------------------------

std::uint64_t algorithm_edges(const System& sys) {
  const auto alg = sys.log().find(phase::kAlgorithm);
  return alg.has_value() ? alg->work.edges_processed : 0;
}

EdgeList kron_graph(int scale, bool symmetric, bool weighted) {
  gen::KroneckerParams p;
  p.scale = scale;
  EdgeList el = gen::kronecker(p);
  if (symmetric) el = symmetrize(el);
  el = dedupe(std::move(el));
  return weighted ? with_random_weights(el, 7, 255) : el;
}

/// Roots with at least two out-edges, spread over the id range.
std::vector<vid_t> busy_roots(const EdgeList& el, int count) {
  const CSRGraph g = CSRGraph::from_edges(el);
  std::vector<vid_t> roots;
  for (vid_t v = 0; v < g.num_vertices() &&
                    roots.size() < static_cast<std::size_t>(count);
       v += 37) {
    if (g.degree(v) >= 2) roots.push_back(v);
  }
  return roots;
}

TEST(GraphMatEngine, PushesEachReachedEdgeOnce) {
  // A BFS source is active in exactly one epoch, so a length-L path
  // reports its nnz edges over L epochs, not ~ L * nnz.
  const vid_t n = 32;
  GraphMatSystem sys;
  sys.set_edges(test::line_graph(n));
  sys.build();
  (void)sys.bfs(0);
  const auto alg = sys.log().find(phase::kAlgorithm);
  ASSERT_TRUE(alg.has_value());
  EXPECT_EQ(alg->work.edges_processed, std::uint64_t{2} * (n - 1));
  EXPECT_EQ(alg->timeline.size(), static_cast<std::size_t>(n));
}

TEST(GraphMatEngine, BfsEdgesEqualGraph500sOnKronecker) {
  // Both scan the out-edges of every reached vertex once, whatever the
  // thread count: a tile's row segments add up to the row.
  const EdgeList el = kron_graph(10, /*symmetric=*/true, /*weighted=*/false);
  for (const vid_t root : busy_roots(el, 3)) {
    for (const int threads : {1, 4}) {
      ThreadScope scope(threads);
      GraphMatSystem gm;
      gm.set_edges(el);
      gm.build();
      (void)gm.bfs(root);
      Graph500System g5;
      g5.set_edges(el);
      g5.build();
      (void)g5.bfs(root);
      EXPECT_GT(algorithm_edges(gm), 0u);
      EXPECT_EQ(algorithm_edges(gm), algorithm_edges(g5))
          << "root " << root << " at " << threads << " threads";
    }
  }
}

TEST(GraphMatEngine, PushesAlongOutEdgesOfADirectedGraph) {
  // 2 -> 0 is an in-edge of the root: reading A^T's orientation would
  // reach 2, and would give 1 the reverse edge's weight.
  EdgeList el;
  el.num_vertices = 4;
  el.directed = true;
  el.weighted = true;
  el.edges = {Edge{0, 1, 5.0f}, Edge{1, 0, 1.0f}, Edge{2, 0, 1.0f},
              Edge{1, 3, 2.0f}};
  for (const int threads : {1, 4}) {
    ThreadScope scope(threads);
    GraphMatSystem sys;
    sys.set_edges(el);
    sys.build();
    EXPECT_EQ(sys.bfs(0).parent,
              (std::vector<vid_t>{0, 0, kNoVertex, 1}));
    const auto r = sys.sssp(0);
    EXPECT_EQ(r.dist[1], 5.0f);
    EXPECT_EQ(r.dist[2], kInfDist);
    EXPECT_EQ(r.dist[3], 7.0f);
  }
}

TEST(GraphMatEngine, DirectedWeightedKroneckerMatchesOracles) {
  const EdgeList el = kron_graph(10, /*symmetric=*/false, /*weighted=*/true);
  const CSRGraph out = CSRGraph::from_edges(el);
  for (const int threads : {1, 4}) {
    ThreadScope scope(threads);
    GraphMatSystem sys;
    sys.set_edges(el);
    sys.build();
    for (const vid_t root : busy_roots(el, 3)) {
      EXPECT_EQ(sys.bfs(root).levels(), ref::bfs_levels(out, root))
          << "root " << root << " at " << threads << " threads";
      // Integer weights sum exactly in float, in any order.
      EXPECT_EQ(sys.sssp(root).dist, ref::dijkstra(out, root))
          << "root " << root << " at " << threads << " threads";
    }
  }
}

TEST(GraphMatEngine, ThreadedResultsAreBitIdentical) {
  // The (depth, sender) min and the min-plus reduce do not depend on the
  // order a tile sees its sources in, so 2 and 4 tiles (and a last tile
  // narrower than the others) give 1 tile's answers bit for bit.
  const std::vector<EdgeList> graphs = {
      kron_graph(10, true, false), kron_graph(10, false, true),
      test::line_graph(100, /*weighted=*/true)};
  for (const EdgeList& el : graphs) {
    std::vector<std::vector<vid_t>> parents;
    std::vector<std::vector<weight_t>> dists;
    for (const int threads : {1, 2, 4}) {
      ThreadScope scope(threads);
      GraphMatSystem sys;
      sys.set_edges(el);
      sys.build();
      for (const vid_t root : busy_roots(el, 3)) {
        parents.push_back(sys.bfs(root).parent);
        dists.push_back(sys.sssp(root).dist);
      }
    }
    const std::size_t per_run = parents.size() / 3;
    for (std::size_t i = per_run; i < parents.size(); ++i) {
      EXPECT_EQ(parents[i], parents[i % per_run]) << i;
      ASSERT_EQ(dists[i].size(), dists[i % per_run].size());
      EXPECT_EQ(std::memcmp(dists[i].data(), dists[i % per_run].data(),
                            dists[i].size() * sizeof(weight_t)),
                0)
          << i;
    }
  }
}

TEST(GraphMatEngine, ThreadedEpochsOnASeriallyBuiltGraph) {
  // The ThreadSanitizer job runs this case: 4 tiles write plain words of
  // y, touched and next_active, and only the engine's own annotated
  // regions run threaded. The graph is drawn and built on one thread, so
  // no unannotated region (the generators, the CSR's first touch) runs.
  const vid_t n = 3000;
  EdgeList el;
  el.num_vertices = n;
  el.directed = true;
  el.weighted = true;
  Xoshiro256 rng(11);
  for (int i = 0; i < 12000; ++i) {
    const auto u = static_cast<vid_t>(rng.next() % n);
    const auto v = static_cast<vid_t>(rng.next() % n);
    el.edges.push_back(Edge{u, v, static_cast<weight_t>(rng.next() % 9 + 1)});
  }
  CSRGraph out;
  std::vector<vid_t> roots;
  GraphMatSystem sys;
  {
    ThreadScope serial(1);
    out = CSRGraph::from_edges(el);
    roots = busy_roots(el, 2);
    sys.set_edges(el);
    sys.build();
  }
  ThreadScope scope(4);
  for (const vid_t root : roots) {
    EXPECT_EQ(sys.bfs(root).levels(), ref::bfs_levels(out, root)) << root;
    EXPECT_EQ(sys.sssp(root).dist, ref::dijkstra(out, root)) << root;
  }
}

}  // namespace
}  // namespace epgs::systems
