// Ligra primitives and system behaviour (the framework-extension system).
#include "systems/ligra/ligra_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "systems/common/reference.hpp"
#include "systems/common/validation.hpp"
#include "systems/ligra/ligra_primitives.hpp"
#include "test_util.hpp"

namespace epgs::systems {
namespace {

using ligra_detail::edge_map;
using ligra_detail::vertex_map;
using ligra_detail::VertexSubset;

TEST(VertexSubsetT, Constructors) {
  const auto single = VertexSubset::single(10, 3);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.vertices()[0], 3u);

  const auto all = VertexSubset::all(4);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_TRUE(VertexSubset(5).empty());
}

TEST(VertexSubsetT, DenseViewAndDegree) {
  const auto g = CSRGraph::from_edges(test::star_graph(6));
  const auto s = VertexSubset::from_sparse(6, {0, 2});
  const auto bm = s.to_dense();
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(2));
  EXPECT_FALSE(bm.test(1));
  EXPECT_EQ(s.out_degree(g), 6u);  // hub 5 + leaf 1
}

TEST(VertexMap, FiltersByPredicate) {
  const auto s = VertexSubset::all(6);
  const auto evens =
      vertex_map(s, [](vid_t v) { return v % 2 == 0; });
  EXPECT_EQ(evens.vertices(), (std::vector<vid_t>{0, 2, 4}));
}

struct CollectF {
  std::vector<std::uint8_t>* hit;
  bool cond(vid_t) const { return true; }
  bool update(vid_t, vid_t d, weight_t) const {
    (*hit)[d] = 1;
    return true;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t w) const {
    return update(s, d, w);
  }
};

TEST(EdgeMap, SparseModeVisitsOutNeighbors) {
  const auto el = test::star_graph(64);  // sparse frontier from a leaf
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  std::vector<std::uint8_t> hit(64, 0);
  std::uint64_t examined = 0;
  const auto next = edge_map(out, in, VertexSubset::single(64, 5),
                             CollectF{&hit}, examined);
  EXPECT_EQ(next.size(), 1u);
  EXPECT_EQ(next.vertices()[0], 0u);  // leaf 5 -> hub 0
  EXPECT_EQ(examined, 1u);
}

TEST(EdgeMap, DenseModeMatchesSparseResults) {
  // Force both regimes on the same frontier by exploiting the threshold:
  // a hub frontier in a star is dense (degree ~ m), a leaf is sparse.
  const auto el = test::star_graph(32);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  std::vector<std::uint8_t> hit(32, 0);
  std::uint64_t examined = 0;
  auto next = edge_map(out, in, VertexSubset::single(32, 0),
                       CollectF{&hit}, examined);
  auto vs = next.vertices();
  std::sort(vs.begin(), vs.end());
  std::vector<vid_t> expect(31);
  for (vid_t v = 1; v < 32; ++v) expect[v - 1] = v;
  EXPECT_EQ(vs, expect) << "dense pull must reach every leaf";
}

TEST(EdgeMap, CondPrunesDestinations) {
  struct OnlyOddF {
    bool cond(vid_t d) const { return d % 2 == 1; }
    bool update(vid_t, vid_t, weight_t) const { return true; }
    bool update_atomic(vid_t, vid_t, weight_t) const { return true; }
  };
  const auto el = test::star_graph(8);
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();
  std::uint64_t examined = 0;
  auto next = edge_map(out, in, VertexSubset::single(8, 0), OnlyOddF{},
                       examined);
  auto vs = next.vertices();
  std::sort(vs.begin(), vs.end());
  EXPECT_EQ(vs, (std::vector<vid_t>{1, 3, 5, 7}));
}

TEST(LigraSystem, CapabilitiesAndFormat) {
  LigraSystem sys;
  const auto caps = sys.capabilities();
  EXPECT_TRUE(caps.bfs && caps.sssp && caps.pagerank && caps.wcc &&
              caps.bc);
  EXPECT_FALSE(caps.cdlp || caps.lcc || caps.tc);
  EXPECT_TRUE(caps.separate_construction);
  EXPECT_EQ(sys.native_format(), GraphFormat::kLigraAdj);
}

TEST(LigraSystem, BfsSwitchesRegimesAndValidates) {
  // Star from the hub: frontier jumps from 1 vertex to n-1 (dense), then
  // back to empty — exercising both edgeMap modes in one run.
  const auto el = test::star_graph(128);
  LigraSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto csr = CSRGraph::from_edges(el);
  for (const vid_t root : {vid_t{0}, vid_t{7}}) {
    const auto err = validate_bfs(csr, sys.bfs(root));
    EXPECT_FALSE(err.has_value()) << err.value_or("");
  }
}

TEST(LigraSystem, BcMatchesBrandesOnDiamond) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{0, 1, 1.0f}, Edge{0, 2, 1.0f}, Edge{1, 3, 1.0f},
              Edge{2, 3, 1.0f}};
  LigraSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto r = sys.bc(0);
  EXPECT_DOUBLE_EQ(r.dependency[1], 0.5);
  EXPECT_DOUBLE_EQ(r.dependency[2], 0.5);
  EXPECT_DOUBLE_EQ(r.dependency[0], 3.0);
}

}  // namespace
}  // namespace epgs::systems
