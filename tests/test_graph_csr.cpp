#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "gen/datasets.hpp"
#include "gen/kronecker.hpp"
#include "graph/transforms.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

EdgeList small_directed() {
  EdgeList el;
  el.num_vertices = 4;
  el.directed = true;
  el.edges = {Edge{0, 2, 1.0f}, Edge{0, 1, 1.0f}, Edge{1, 3, 1.0f},
              Edge{2, 3, 1.0f}, Edge{3, 0, 1.0f}};
  return el;
}

TEST(Csr, BuildsOutAdjacency) {
  const auto g = CSRGraph::from_edges(small_directed());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);  // sorted
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.neighbors(3)[0], 0u);
}

TEST(Csr, TransposeBuildsInAdjacency) {
  const auto g = CSRGraph::from_edges(small_directed()).transposed();
  const auto in3 = g.neighbors(3);
  ASSERT_EQ(in3.size(), 2u);
  EXPECT_EQ(in3[0], 1u);
  EXPECT_EQ(in3[1], 2u);
  EXPECT_EQ(g.degree(0), 1u);  // only 3 -> 0
}

TEST(Csr, WeightsFollowSort) {
  EdgeList el;
  el.num_vertices = 3;
  el.weighted = true;
  el.edges = {Edge{0, 2, 20.0f}, Edge{0, 1, 10.0f}};
  const auto g = CSRGraph::from_edges(el);
  ASSERT_TRUE(g.weighted());
  const auto nbrs = g.neighbors(0);
  const auto ws = g.edge_weights(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_FLOAT_EQ(ws[0], 10.0f);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_FLOAT_EQ(ws[1], 20.0f);
}

TEST(Csr, HasEdge) {
  const auto g = CSRGraph::from_edges(small_directed());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Csr, EmptyGraph) {
  EdgeList el;
  el.num_vertices = 3;
  const auto g = CSRGraph::from_edges(el);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(Csr, OutOfRangeEndpointThrows) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 5, 1.0f}};
  EXPECT_THROW(CSRGraph::from_edges(el), EpgsError);
}

TEST(Csr, OffsetsAreMonotone) {
  const auto g = CSRGraph::from_edges(test::two_triangles());
  const auto& off = g.offsets();
  ASSERT_EQ(off.size(), g.num_vertices() + 1u);
  EXPECT_EQ(off.front(), 0u);
  EXPECT_EQ(off.back(), g.num_edges());
  EXPECT_TRUE(std::is_sorted(off.begin(), off.end()));
}

TEST(Csr, BytesAccountsForStorage) {
  const auto g = CSRGraph::from_edges(test::line_graph(10));
  EXPECT_GT(g.bytes(), 0u);
  EXPECT_GE(g.bytes(), g.num_edges() * sizeof(vid_t));
}

TEST(Csr, ParallelEdgesPreserved) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 1, 1.0f}, Edge{0, 1, 1.0f}};
  const auto g = CSRGraph::from_edges(el);
  EXPECT_EQ(g.degree(0), 2u);
}

// Inputs the build and the transpose must reproduce exactly: a shuffled
// Kronecker multigraph, the same graph sorted and deduped (the one-pass
// build), a weighted one whose parallel edges tie on target with
// different weights, a small graph with self loops, parallel edges and
// isolated vertices, a sorted list with empty first and last rows, a
// sorted list that repeats one pair with descending weights (the
// one-pass build must fall back to counting), and an empty list.
std::vector<EdgeList> build_inputs() {
  gen::KroneckerParams p;
  p.scale = 9;
  p.edgefactor = 8;
  EdgeList shuffled = gen::kronecker(p);
  std::mt19937_64 rng(7);
  std::shuffle(shuffled.edges.begin(), shuffled.edges.end(), rng);
  EdgeList corner;
  corner.num_vertices = 10;  // 2, 7, 8 and 9 have no edges
  corner.weighted = true;
  corner.edges = {Edge{3, 1, 5.0f}, Edge{3, 1, 2.0f}, Edge{3, 3, 4.0f},
                  Edge{0, 1, 7.0f}, Edge{3, 1, 2.0f}, Edge{0, 0, 1.0f},
                  Edge{3, 0, 9.0f}, Edge{1, 3, 3.0f}, Edge{1, 3, 3.0f},
                  Edge{5, 6, 8.0f}, Edge{4, 4, 6.0f}, Edge{1, 3, 0.5f}};
  EdgeList sparse_ends;
  sparse_ends.num_vertices = 9;  // rows 0, 1, 5, 7 and 8 are empty
  sparse_ends.edges = {Edge{2, 0, 1.0f}, Edge{2, 6, 1.0f}, Edge{3, 3, 1.0f},
                       Edge{4, 1, 1.0f}, Edge{4, 1, 1.0f}, Edge{6, 8, 1.0f}};
  EdgeList descending;
  descending.num_vertices = 4;
  descending.weighted = true;
  descending.edges = {Edge{0, 1, 1.0f}, Edge{1, 2, 9.0f}, Edge{1, 2, 4.0f},
                      Edge{1, 3, 2.0f}, Edge{3, 0, 5.0f}};
  EdgeList empty;
  empty.num_vertices = 5;
  return {shuffled,    dedupe(symmetrize(shuffled)),
          with_random_weights(shuffled, 1, 15),
          corner,      sparse_ends,
          descending,  empty};
}

void expect_same(const CSRGraph& got, const CSRGraph& want) {
  EXPECT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.offsets(), want.offsets());
  EXPECT_EQ(got.targets(), want.targets());
  EXPECT_EQ(got.weights(), want.weights());
}

TEST(Csr, CountingBuildMatchesSerialBuild) {
  // The build (one pass or counting) and the counting transpose must be
  // bit-identical to the seed's sequential build: same offsets, same
  // sorted targets, and weights ordered identically (rows sort on
  // (target, weight) pairs). 4 threads split the one-pass build and the
  // first-touch passes, and must not change a bit either.
  const auto inputs = build_inputs();
  for (const int threads : {1, 4}) {
    ThreadScope scope(threads);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      SCOPED_TRACE("input " + std::to_string(k) + ", threads " +
                   std::to_string(threads));
      const auto out = CSRGraph::from_edges(inputs[k]);
      expect_same(out, CSRGraph::from_edges_serial(inputs[k], false));
      expect_same(out.transposed(),
                  CSRGraph::from_edges_serial(inputs[k], true));
    }
  }
}

TEST(Csr, TransposeTwiceIsIdentity) {
  for (const auto& el : build_inputs()) {
    const auto g = CSRGraph::from_edges(el);
    EXPECT_TRUE(g.transposed().transposed() == g);
  }
}

TEST(Csr, BuildsRejectOutOfRange) {
  for (const Edge bad : {Edge{0, 5, 1.0f}, Edge{5, 0, 1.0f}}) {
    EdgeList el;
    el.num_vertices = 2;
    el.edges = {Edge{0, 1, 1.0f}, bad};
    EXPECT_THROW(CSRGraph::from_edges(el), EpgsError);
    EXPECT_THROW(CSRGraph::from_edges_serial(el), EpgsError);
    EXPECT_THROW(CSRGraph::from_edges_serial(el, true), EpgsError);
  }
  // A sorted list long enough to split across threads, whose last edge
  // leaves the range: the one-pass build must still throw.
  EdgeList sorted = build_inputs()[1];
  sorted.edges.push_back(Edge{sorted.num_vertices, 0, 1.0f});
  for (const int threads : {1, 4}) {
    ThreadScope scope(threads);
    EXPECT_THROW(CSRGraph::from_edges(sorted), EpgsError);
  }
}

TEST(Csr, IsSymmetricIffOwnTranspose) {
  gen::KroneckerParams p;
  p.scale = 8;
  p.edgefactor = 8;
  const EdgeList raw = gen::kronecker(p);
  const EdgeList sym = dedupe(symmetrize(raw));
  gen::DotaLikeParams dota;
  dota.fraction = 0.004;
  EdgeList missing_reverse = sym;  // drop the last row's last edge only
  missing_reverse.edges.pop_back();
  EdgeList doubled_reverse;  // 0 -> 1 once, 1 -> 0 twice
  doubled_reverse.num_vertices = 2;
  doubled_reverse.edges = {Edge{0, 1, 1.0f}, Edge{1, 0, 1.0f},
                           Edge{1, 0, 1.0f}};

  struct Case {
    const char* name;
    EdgeList el;
    std::optional<bool> symmetric;  // nullopt: only the identity is checked
  };
  std::vector<Case> cases = {
      {"dedupe(symmetrize)", sym, true},
      {"symmetrize with parallel edges", symmetrize(raw), true},
      {"dota_like", gen::dota_like(dota), true},
      {"weights differ by direction", with_random_weights(sym, 3, 15), false},
      {"one reverse edge missing", missing_reverse, false},
      {"one reverse edge doubled", doubled_reverse, false},
  };
  for (auto& el : build_inputs()) {
    cases.push_back({"build input", std::move(el), std::nullopt});
  }
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto g = CSRGraph::from_edges(c.el);
    EXPECT_EQ(g.is_symmetric(), g.transposed() == g);
    if (c.symmetric) {
      EXPECT_EQ(g.is_symmetric(), *c.symmetric);
    }
  }
}

}  // namespace
}  // namespace epgs
