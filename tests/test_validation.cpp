#include "systems/common/validation.hpp"

#include <gtest/gtest.h>

#include "systems/common/reference.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

BfsResult good_bfs(const CSRGraph& g, vid_t root) {
  // Build a valid parent tree from reference levels.
  const auto levels = ref::bfs_levels(g, root);
  BfsResult r;
  r.root = root;
  r.parent.assign(g.num_vertices(), kNoVertex);
  r.parent[root] = root;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (v == root || levels[v] == kNoVertex) continue;
    for (const vid_t u : g.neighbors(v)) {
      if (levels[u] + 1 == levels[v]) {
        r.parent[v] = u;
        break;
      }
    }
  }
  return r;
}

// Validate through both forms: the two-argument one computes the
// reference answer itself, the three-argument one takes it precomputed.
// They must agree on the verdict and the message.
ValidationError check_bfs(const CSRGraph& g, const BfsResult& r) {
  const auto err = validate_bfs(g, r);
  const auto truth = r.root < g.num_vertices() ? ref::bfs_levels(g, r.root)
                                               : std::vector<vid_t>{};
  EXPECT_EQ(validate_bfs(g, r, truth), err);
  return err;
}

ValidationError check_sssp(const CSRGraph& g, const SsspResult& r) {
  const auto err = validate_sssp(g, r);
  const auto truth = r.root < g.num_vertices() ? ref::dijkstra(g, r.root)
                                               : std::vector<weight_t>{};
  EXPECT_EQ(validate_sssp(g, r, truth), err);
  return err;
}

TEST(ValidateBfs, AcceptsValidTree) {
  const auto g = CSRGraph::from_edges(test::two_triangles());
  EXPECT_FALSE(check_bfs(g, good_bfs(g, 0)).has_value());
}

TEST(ValidateBfs, RejectsWrongRootParent) {
  const auto g = CSRGraph::from_edges(test::line_graph(4));
  auto r = good_bfs(g, 0);
  r.parent[0] = 1;
  const auto err = check_bfs(g, r);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("rule 1"), std::string::npos);
}

TEST(ValidateBfs, RejectsNonEdgeParent) {
  const auto g = CSRGraph::from_edges(test::line_graph(4));
  auto r = good_bfs(g, 0);
  r.parent[3] = 0;  // (0,3) is not an edge
  const auto err = check_bfs(g, r);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("rule"), std::string::npos);
}

TEST(ValidateBfs, RejectsMissedReachableVertex) {
  const auto g = CSRGraph::from_edges(test::line_graph(4));
  auto r = good_bfs(g, 0);
  r.parent[3] = kNoVertex;
  const auto err = check_bfs(g, r);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("rule 4"), std::string::npos);
}

TEST(ValidateBfs, RejectsPhantomReachability) {
  const auto g = CSRGraph::from_edges(test::two_triangles());
  auto r = good_bfs(g, 0);
  r.parent[4] = 3;  // component of 3 is not reachable from 0
  const auto err = check_bfs(g, r);
  ASSERT_TRUE(err.has_value());
}

TEST(ValidateBfs, RejectsNonShortestTree) {
  const auto g = CSRGraph::from_edges(test::cycle_graph(6));
  auto r = good_bfs(g, 0);
  // Detour: hang vertex 1 off the far side (1's other neighbor is 2).
  r.parent[1] = 2;
  const auto err = check_bfs(g, r);
  ASSERT_TRUE(err.has_value());
}

TEST(ValidateBfs, RejectsCyclicParentArray) {
  const auto g = CSRGraph::from_edges(test::cycle_graph(4));
  BfsResult r;
  r.root = 0;
  r.parent = {0, 2, 1, 0};  // 1 <-> 2 cycle
  const auto err = check_bfs(g, r);
  ASSERT_TRUE(err.has_value());
}

TEST(ValidateBfs, RejectsSizeMismatch) {
  const auto g = CSRGraph::from_edges(test::line_graph(4));
  BfsResult r;
  r.root = 0;
  r.parent = {0, 0};
  EXPECT_TRUE(check_bfs(g, r).has_value());
}

TEST(ValidateBfs, RejectsReferenceOfWrongSize) {
  const auto g = CSRGraph::from_edges(test::line_graph(4));
  const auto r = good_bfs(g, 0);
  const std::vector<vid_t> short_truth = {0, 1};
  const auto err = validate_bfs(g, r, short_truth);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("size mismatch"), std::string::npos);
  EXPECT_TRUE(validate_bfs(g, r, {}).has_value());
}

// Rule 2 accepts a tree edge present in either direction. On this
// directed graph 0->1 exists only forwards (parent to child) and 3->2
// only backwards (child to parent); both are valid tree edges. 3 and 4
// share no edge in either direction.
TEST(ValidateBfs, TreeEdgeMayRunEitherWayOnDirectedGraph) {
  EdgeList el;
  el.num_vertices = 5;
  el.directed = true;
  for (const auto [u, v] : {std::pair<vid_t, vid_t>{0, 1},
                            {0, 2},
                            {0, 4},
                            {1, 3},
                            {3, 2}}) {
    el.edges.push_back(Edge{u, v, 1.0f});
  }
  const auto g = CSRGraph::from_edges(el);
  BfsResult r;
  r.root = 0;
  r.parent = {0, 0, 0, 2, 0};  // 0->1 forwards, 2<-3 backwards
  EXPECT_FALSE(check_bfs(g, r).has_value());
  r.parent[3] = 1;  // the forward-only edge 1->3
  EXPECT_FALSE(check_bfs(g, r).has_value());
  r.parent[3] = 4;  // same level as 2, but no edge between 3 and 4
  const auto err = check_bfs(g, r);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("rule 2: tree edge not in graph"), std::string::npos);
}

TEST(ValidateSssp, AcceptsDijkstra) {
  const auto g =
      CSRGraph::from_edges(test::line_graph(6, /*weighted=*/true));
  SsspResult r;
  r.root = 0;
  r.dist = ref::dijkstra(g, 0);
  EXPECT_FALSE(check_sssp(g, r).has_value());
}

TEST(ValidateSssp, RejectsUnrelaxedEdge) {
  const auto g =
      CSRGraph::from_edges(test::line_graph(4, /*weighted=*/true));
  SsspResult r;
  r.root = 0;
  r.dist = ref::dijkstra(g, 0);
  r.dist[2] += 5.0f;
  const auto err = check_sssp(g, r);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("relaxed"), std::string::npos);
}

TEST(ValidateSssp, RejectsTooSmallDistance) {
  const auto g =
      CSRGraph::from_edges(test::line_graph(4, /*weighted=*/true));
  SsspResult r;
  r.root = 0;
  r.dist = ref::dijkstra(g, 0);
  r.dist[3] = 0.5f;  // all edges still relaxed, but not the true distance
  EXPECT_TRUE(check_sssp(g, r).has_value());
}

TEST(ValidateSssp, RejectsNonZeroRoot) {
  const auto g = CSRGraph::from_edges(test::line_graph(3));
  SsspResult r;
  r.root = 0;
  r.dist = {1.0f, 1.0f, 2.0f};
  EXPECT_TRUE(check_sssp(g, r).has_value());
}

TEST(ValidateSssp, RejectsReferenceOfWrongSize) {
  const auto g =
      CSRGraph::from_edges(test::line_graph(4, /*weighted=*/true));
  SsspResult r;
  r.root = 0;
  r.dist = ref::dijkstra(g, 0);
  const std::vector<weight_t> long_truth(5, 0.0f);
  const auto err = validate_sssp(g, r, long_truth);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("size mismatch"), std::string::npos);
  EXPECT_TRUE(validate_sssp(g, r, {}).has_value());
}

TEST(ValidatePagerank, AcceptsNormalizedPositive) {
  PageRankResult r;
  r.rank = {0.25, 0.25, 0.5};
  EXPECT_FALSE(validate_pagerank(r).has_value());
}

TEST(ValidatePagerank, RejectsBadSumOrSign) {
  PageRankResult r;
  r.rank = {0.9, 0.9};
  EXPECT_TRUE(validate_pagerank(r).has_value());
  r.rank = {1.5, -0.5};
  EXPECT_TRUE(validate_pagerank(r).has_value());
}

TEST(ValidatePagerank, MessageSaysByHowMuchTheSumMissed) {
  // At six digits a sum of 1 + 2^-19 would print as "1".
  PageRankResult r;
  r.rank = {0.5, 0.5 + 0x1p-19};
  const auto err = validate_pagerank(r);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("rank sum 1.0000019073486328"), std::string::npos)
      << *err;
  EXPECT_NE(err->find("by 1.9073486328125e-06"), std::string::npos) << *err;
}

TEST(ValidateWcc, AcceptsReference) {
  const auto el = test::two_triangles();
  EXPECT_FALSE(validate_wcc(el, ref::wcc(el)).has_value());
}

TEST(ValidateWcc, RejectsSplitEdge) {
  const auto el = test::line_graph(4);
  auto r = ref::wcc(el);
  r.component[3] = 3;
  EXPECT_TRUE(validate_wcc(el, r).has_value());
}

TEST(ValidateWcc, RejectsNonMinRepresentative) {
  const auto el = test::two_triangles();
  auto r = ref::wcc(el);
  for (vid_t v = 3; v <= 5; ++v) r.component[v] = 4;  // 4 is not the min
  EXPECT_TRUE(validate_wcc(el, r).has_value());
}

}  // namespace
}  // namespace epgs
