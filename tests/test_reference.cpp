#include "systems/common/reference.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace epgs {
namespace {

using test::line_graph;
using test::pagerank_graph;
using test::star_graph;
using test::two_triangles;

TEST(RefBfs, LineGraphLevels) {
  const auto g = CSRGraph::from_edges(line_graph(5));
  const auto levels = ref::bfs_levels(g, 0);
  EXPECT_EQ(levels, (std::vector<vid_t>{0, 1, 2, 3, 4}));
  const auto mid = ref::bfs_levels(g, 2);
  EXPECT_EQ(mid, (std::vector<vid_t>{2, 1, 0, 1, 2}));
}

TEST(RefBfs, UnreachableIsNoVertex) {
  const auto g = CSRGraph::from_edges(two_triangles());
  const auto levels = ref::bfs_levels(g, 0);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[3], kNoVertex);
  EXPECT_EQ(levels[6], kNoVertex);
}

TEST(RefBfs, DirectedEdgesOnly) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 1, 1.0f}, Edge{2, 1, 1.0f}};
  const auto g = CSRGraph::from_edges(el);
  const auto levels = ref::bfs_levels(g, 0);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], kNoVertex);  // edge 2->1 cannot be traversed backwards
}

TEST(RefDijkstra, WeightedLine) {
  const auto g = CSRGraph::from_edges(line_graph(4, /*weighted=*/true));
  // weights: 0-1 w=1, 1-2 w=2, 2-3 w=3 (v % 5 + 1)
  const auto dist = ref::dijkstra(g, 0);
  EXPECT_FLOAT_EQ(dist[0], 0.0f);
  EXPECT_FLOAT_EQ(dist[1], 1.0f);
  EXPECT_FLOAT_EQ(dist[2], 3.0f);
  EXPECT_FLOAT_EQ(dist[3], 6.0f);
}

TEST(RefDijkstra, PrefersCheaperLongerPath) {
  EdgeList el;
  el.num_vertices = 3;
  el.weighted = true;
  el.edges = {Edge{0, 2, 10.0f}, Edge{0, 1, 1.0f}, Edge{1, 2, 2.0f}};
  const auto g = CSRGraph::from_edges(el);
  const auto dist = ref::dijkstra(g, 0);
  EXPECT_FLOAT_EQ(dist[2], 3.0f);
}

TEST(RefDijkstra, UnreachableInfinite) {
  const auto g = CSRGraph::from_edges(two_triangles());
  const auto dist = ref::dijkstra(g, 3);
  EXPECT_FLOAT_EQ(dist[4], 1.0f);
  EXPECT_EQ(dist[0], kInfDist);
}

TEST(RefPageRank, SumsToOneAndConverges) {
  const auto el = pagerank_graph();
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto pr = ref::pagerank(out, in, PageRankParams{});
  double sum = 0.0;
  for (const double r : pr.rank) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(pr.iterations, 1);
  // Vertex 2 has the most in-links, vertex 3/4 have none.
  EXPECT_GT(pr.rank[2], pr.rank[3]);
  EXPECT_GT(pr.rank[2], pr.rank[4]);
}

TEST(RefPageRank, SymmetricGraphUniformRank) {
  const auto el = test::cycle_graph(6);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto pr = ref::pagerank(out, in, PageRankParams{});
  for (const double r : pr.rank) EXPECT_NEAR(r, 1.0 / 6.0, 1e-7);
}

TEST(RefPageRank, MaxIterationsRespected) {
  const auto el = pagerank_graph();
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  PageRankParams p;
  p.max_iterations = 3;
  p.epsilon = 0.0;
  EXPECT_EQ(ref::pagerank(out, in, p).iterations, 3);
}

TEST(RefCdlp, TrianglesConvergeToMinLabel) {
  const auto el = two_triangles();
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::cdlp(out, in, 10);
  EXPECT_EQ(r.label[0], r.label[1]);
  EXPECT_EQ(r.label[1], r.label[2]);
  EXPECT_EQ(r.label[3], r.label[4]);
  EXPECT_EQ(r.label[4], r.label[5]);
  EXPECT_NE(r.label[0], r.label[3]);
  EXPECT_EQ(r.label[6], 6u);  // isolated keeps its own label
}

TEST(RefCdlp, IterationCap) {
  const auto el = line_graph(30);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::cdlp(out, in, 3);
  EXPECT_EQ(r.iterations, 3);
}

TEST(RefLcc, TriangleIsFullyClustered) {
  const auto el = two_triangles();
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::lcc(out, in);
  for (vid_t v = 0; v < 6; ++v) EXPECT_DOUBLE_EQ(r.coefficient[v], 1.0);
  EXPECT_DOUBLE_EQ(r.coefficient[6], 0.0);
}

TEST(RefLcc, StarHasZeroClustering) {
  const auto el = star_graph(6);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::lcc(out, in);
  for (vid_t v = 0; v < 6; ++v) EXPECT_DOUBLE_EQ(r.coefficient[v], 0.0);
}

TEST(RefLcc, PartialClustering) {
  // Square 0-1-2-3 plus diagonal 0-2: lcc(1) = lcc(3) = 1 (their two
  // neighbours 0,2 are connected), lcc(0) = lcc(2) = 2/6 * 2 = 2/3... —
  // compute: N(0) = {1,2,3}; links among them (symmetric counted both
  // ways): 1-2, 2-1, 2-3, 3-2 = 4 of 6 ordered pairs -> 2/3.
  EdgeList el;
  el.num_vertices = 4;
  const std::vector<std::pair<vid_t, vid_t>> pairs = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  for (const auto& [a, b] : pairs) {
    el.edges.push_back(Edge{a, b, 1.0f});
    el.edges.push_back(Edge{b, a, 1.0f});
  }
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::lcc(out, in);
  EXPECT_DOUBLE_EQ(r.coefficient[1], 1.0);
  EXPECT_DOUBLE_EQ(r.coefficient[3], 1.0);
  EXPECT_NEAR(r.coefficient[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.coefficient[2], 2.0 / 3.0, 1e-12);
}

TEST(RefWcc, ComponentsGetMinIds) {
  const auto r = ref::wcc(two_triangles());
  EXPECT_EQ(r.component, (std::vector<vid_t>{0, 0, 0, 3, 3, 3, 6}));
  EXPECT_EQ(r.num_components(), 3u);
}

TEST(RefWcc, DirectionIgnored) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{1, 0, 1.0f}, Edge{2, 3, 1.0f}};
  const auto r = ref::wcc(el);
  EXPECT_EQ(r.component, (std::vector<vid_t>{0, 0, 2, 2}));
}

TEST(RefTriangleCount, KnownCounts) {
  {
    const auto el = two_triangles();
    const auto out = CSRGraph::from_edges(el);
    const auto in = CSRGraph::from_edges(el).transposed();
    EXPECT_EQ(ref::triangle_count(out, in).triangles, 2u);
  }
  {
    const auto el = test::complete_graph(5);  // C(5,3) = 10
    const auto out = CSRGraph::from_edges(el);
    const auto in = CSRGraph::from_edges(el).transposed();
    EXPECT_EQ(ref::triangle_count(out, in).triangles, 10u);
  }
  {
    const auto el = star_graph(8);
    const auto out = CSRGraph::from_edges(el);
    const auto in = CSRGraph::from_edges(el).transposed();
    EXPECT_EQ(ref::triangle_count(out, in).triangles, 0u);
  }
}

TEST(RefTriangleCount, DirectionIgnored) {
  // A directed 3-cycle is one triangle in the undirected view.
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 1, 1.0f}, Edge{1, 2, 1.0f}, Edge{2, 0, 1.0f}};
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  EXPECT_EQ(ref::triangle_count(out, in).triangles, 1u);
}

TEST(RefBrandesBc, LineGraphDependencies) {
  const auto el = line_graph(5);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::brandes_bc(out, in, 0);
  // sigma = 1 everywhere; delta(v) = #vertices strictly beyond v.
  EXPECT_DOUBLE_EQ(r.dependency[4], 0.0);
  EXPECT_DOUBLE_EQ(r.dependency[3], 1.0);
  EXPECT_DOUBLE_EQ(r.dependency[2], 2.0);
  EXPECT_DOUBLE_EQ(r.dependency[1], 3.0);
}

TEST(RefBrandesBc, StarFromLeaf) {
  const auto el = star_graph(5);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::brandes_bc(out, in, 1);
  EXPECT_DOUBLE_EQ(r.dependency[0], 3.0);  // hub covers 3 other leaves
  EXPECT_DOUBLE_EQ(r.dependency[2], 0.0);
  EXPECT_DOUBLE_EQ(r.dependency[3], 0.0);
}

TEST(RefBrandesBc, MultiplePathsSplitCredit) {
  // Diamond: 0->1, 0->2, 1->3, 2->3. sigma(3) = 2, so 1 and 2 each get
  // half the credit for 3.
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{0, 1, 1.0f}, Edge{0, 2, 1.0f}, Edge{1, 3, 1.0f},
              Edge{2, 3, 1.0f}};
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::brandes_bc(out, in, 0);
  EXPECT_DOUBLE_EQ(r.dependency[1], 0.5);
  EXPECT_DOUBLE_EQ(r.dependency[2], 0.5);
  EXPECT_DOUBLE_EQ(r.dependency[3], 0.0);
  EXPECT_DOUBLE_EQ(r.dependency[0], 3.0);  // 1 + 0.5 + 1 + 0.5
}

TEST(RefBrandesBc, UnreachableVerticesZero) {
  const auto el = two_triangles();
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  const auto r = ref::brandes_bc(out, in, 0);
  EXPECT_DOUBLE_EQ(r.dependency[3], 0.0);
  EXPECT_DOUBLE_EQ(r.dependency[6], 0.0);
}

TEST(RefNeighborUnion, MergesAndExcludesSelf) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{0, 1, 1.0f}, Edge{2, 0, 1.0f}, Edge{0, 0, 1.0f},
              Edge{0, 1, 1.0f}};
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  EXPECT_EQ(ref::neighbor_union(out, in, 0), (std::vector<vid_t>{1, 2}));
}

}  // namespace
}  // namespace epgs
