// GraphBIG-specific behaviour: the property-graph store and the
// visitor-dispatch traversal engine.
#include "systems/graphbig/graphbig_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/parallel.hpp"
#include "gen/kronecker.hpp"
#include "graph/transforms.hpp"
#include "test_util.hpp"

namespace epgs::systems {
namespace {

using graphbig_detail::EdgeObj;
using graphbig_detail::EdgeVisitor;
using graphbig_detail::PropertyGraph;
using graphbig_detail::VertexObj;

TEST(PropertyGraph, LoadBuildsSortedAdjacency) {
  PropertyGraph g;
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 2, 5.0f}, Edge{0, 1, 3.0f}, Edge{2, 0, 1.0f}};
  el.weighted = true;
  g.load(el);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(g.vertex(0).out_edges.size(), 2u);
  EXPECT_EQ(g.vertex(0).out_edges[0].target, 1u);
  EXPECT_FLOAT_EQ(g.vertex(0).out_edges[0].weight, 3.0f);
  EXPECT_EQ(g.vertex(0).out_edges[1].target, 2u);
  ASSERT_EQ(g.vertex(0).in_edges.size(), 1u);
  EXPECT_EQ(g.vertex(0).in_edges[0], 2u);
}

TEST(PropertyGraph, EdgeIdsAreUnique) {
  PropertyGraph g;
  g.load(test::two_triangles());
  std::vector<std::uint64_t> ids;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (const auto& e : g.vertex(v).out_edges) ids.push_back(e.edge_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), g.num_edges());
}

TEST(PropertyGraph, ExpandDispatchesEveryFrontierEdge) {
  PropertyGraph g;
  g.load(test::star_graph(6));

  struct CountingVisitor final : EdgeVisitor {
    int calls = 0;
    bool examine(VertexObj&, EdgeObj&, VertexObj&) override {
      ++calls;
      return false;
    }
  } visitor;

  std::uint64_t examined = 0;
  const auto next = g.expand({0}, visitor, examined);
  EXPECT_EQ(visitor.calls, 5);
  EXPECT_EQ(examined, 5u);
  EXPECT_TRUE(next.empty()) << "visitor returned false for every edge";
}

TEST(PropertyGraph, ExpandCollectsAcceptedTargets) {
  PropertyGraph g;
  g.load(test::star_graph(4));

  struct AcceptOdd final : EdgeVisitor {
    bool examine(VertexObj&, EdgeObj& e, VertexObj&) override {
      return e.target % 2 == 1;
    }
  } visitor;

  std::uint64_t examined = 0;
  auto next = g.expand({0}, visitor, examined);
  std::sort(next.begin(), next.end());
  EXPECT_EQ(next, (std::vector<vid_t>{1, 3}));
}

TEST(PropertyGraph, BytesGrowWithGraph) {
  PropertyGraph small, large;
  small.load(test::line_graph(4));
  large.load(test::line_graph(400));
  EXPECT_GT(large.bytes(), small.bytes());
}

TEST(GraphBigSystem, FullCapabilitySurface) {
  GraphBigSystem sys;
  const auto caps = sys.capabilities();
  EXPECT_TRUE(caps.bfs && caps.sssp && caps.pagerank && caps.cdlp &&
              caps.lcc && caps.wcc);
  EXPECT_FALSE(caps.separate_construction);
}

// The modelled per-edge costs of GraphBIG's BFS: every out-edge of a
// frontier vertex is examined, each a 32-byte edge object. At one thread
// the first examiner of an unvisited vertex claims it, frontier order
// first, as a serial read-then-mark BFS over the same store does.
TEST(GraphBigSystem, BfsPaysTheModelledCostPerEdge) {
  static_assert(sizeof(EdgeObj) == 32);
  gen::KroneckerParams p;
  p.scale = 9;
  p.edgefactor = 8;
  const EdgeList el = dedupe(symmetrize(gen::kronecker(p)));
  PropertyGraph g;
  g.load(el);
  const vid_t root = 5;

  std::vector<vid_t> parent(g.num_vertices(), kNoVertex);
  parent[root] = root;
  std::uint64_t examined = 0;
  for (std::vector<vid_t> frontier{root}; !frontier.empty();) {
    std::vector<vid_t> next;
    for (const vid_t u : frontier) {
      for (const EdgeObj& e : g.vertex(u).out_edges) {
        ++examined;
        if (parent[e.target] != kNoVertex) continue;
        parent[e.target] = u;
        next.push_back(e.target);
      }
    }
    frontier.swap(next);
  }

  ThreadScope one(1);
  GraphBigSystem sys;
  sys.borrow_edges(el);
  sys.build();
  EXPECT_EQ(sys.bfs(root).parent, parent);
  const auto alg = sys.log().find(phase::kAlgorithm);
  ASSERT_TRUE(alg.has_value());
  EXPECT_EQ(alg->work.edges_processed, examined);
  EXPECT_EQ(alg->work.bytes_touched, examined * sizeof(EdgeObj));
}

TEST(GraphBigSystem, SsspRevisitsImprovedVertices) {
  // Chaotic relaxation must still converge when a later frontier improves
  // an already-settled vertex: 0->1 (w 10), 0->2 (w 1), 2->1 (w 1).
  EdgeList el;
  el.num_vertices = 3;
  el.weighted = true;
  el.edges = {Edge{0, 1, 10.0f}, Edge{0, 2, 1.0f}, Edge{2, 1, 1.0f}};
  GraphBigSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto r = sys.sssp(0);
  EXPECT_FLOAT_EQ(r.dist[1], 2.0f);
}

TEST(GraphBigSystem, PageRankIsSlowestByDesignNotByWrongness) {
  // The store is object-heavy, but the result must still be a valid
  // distribution.
  GraphBigSystem sys;
  sys.set_edges(test::pagerank_graph());
  sys.build();
  const auto pr = sys.pagerank();
  double sum = 0.0;
  for (const double r : pr.rank) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GraphBigSystem, CdlpIsolatedVertexKeepsLabel) {
  GraphBigSystem sys;
  sys.set_edges(test::two_triangles());
  sys.build();
  const auto r = sys.cdlp(5);
  EXPECT_EQ(r.label[6], 6u);
}

}  // namespace
}  // namespace epgs::systems
