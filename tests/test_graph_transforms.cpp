#include "graph/transforms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

TEST(Transforms, SymmetrizeDoublesEdges) {
  EdgeList el;
  el.num_vertices = 3;
  el.directed = true;
  el.edges = {Edge{0, 1, 5.0f}, Edge{1, 2, 7.0f}};
  const auto sym = symmetrize(el);
  EXPECT_EQ(sym.num_edges(), 4u);
  EXPECT_FALSE(sym.directed);
  // Reverse edges carry the same weight.
  EXPECT_NE(std::find(sym.edges.begin(), sym.edges.end(), Edge{1, 0, 5.0f}),
            sym.edges.end());
  EXPECT_NE(std::find(sym.edges.begin(), sym.edges.end(), Edge{2, 1, 7.0f}),
            sym.edges.end());
}

TEST(Transforms, SymmetrizeDoesNotDuplicateSelfLoops) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 0, 1.0f}, Edge{0, 1, 1.0f}};
  const auto sym = symmetrize(el);
  EXPECT_EQ(sym.num_edges(), 3u);  // loop once + both directions of (0,1)
}

TEST(Transforms, DedupeRemovesDuplicatesAndLoops) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 1, 3.0f}, Edge{0, 1, 2.0f}, Edge{1, 1, 1.0f},
              Edge{2, 0, 4.0f}};
  const auto d = dedupe(el);
  EXPECT_EQ(d.num_edges(), 2u);
  // Keeps the minimum weight among duplicates.
  EXPECT_EQ(d.edges[0], (Edge{0, 1, 2.0f}));
  EXPECT_EQ(d.edges[1], (Edge{2, 0, 4.0f}));
}

TEST(Transforms, DedupeMayKeepSelfLoops) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{1, 1, 1.0f}, Edge{1, 1, 1.0f}};
  const auto d = dedupe(el, /*drop_self_loops=*/false);
  EXPECT_EQ(d.num_edges(), 1u);
  EXPECT_EQ(d.edges[0].src, d.edges[0].dst);
}

/// The comparison-sort dedupe the radix sort replaced: sort by
/// (src, dst, w), then keep the first edge of every (src, dst) run.
EdgeList reference_dedupe(const EdgeList& el, bool drop_self_loops) {
  EdgeList out = el;
  if (drop_self_loops) {
    std::erase_if(out.edges, [](const Edge& e) { return e.src == e.dst; });
  }
  std::sort(out.edges.begin(), out.edges.end(),
            [](const Edge& a, const Edge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.w < b.w;
            });
  out.edges.erase(
      std::unique(out.edges.begin(), out.edges.end(),
                  [](const Edge& a, const Edge& b) {
                    return a.src == b.src && a.dst == b.dst;
                  }),
      out.edges.end());
  return out;
}

/// Random edges with ids in [0, id_bound), each pair repeated up to three
/// times with random weights, plus the odd self loop.
EdgeList random_multigraph(std::uint64_t seed, std::uint64_t id_bound,
                           std::size_t m, vid_t num_vertices) {
  Xoshiro256 rng(seed);
  EdgeList el;
  el.num_vertices = num_vertices;
  el.weighted = true;
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<vid_t>(rng.uniform_u64(id_bound));
    const auto v = static_cast<vid_t>(rng.uniform_u64(id_bound));
    const auto copies = 1 + rng.uniform_u64(3);
    for (std::uint64_t c = 0; c < copies; ++c) {
      el.edges.push_back(
          Edge{u, v, static_cast<weight_t>(rng.uniform_u64(1000)) / 8.0f});
    }
    if (rng.uniform_u64(8) == 0) el.edges.push_back(Edge{u, u, 2.0f});
  }
  return el;
}

void expect_same_bytes(const EdgeList& got, const EdgeList& want,
                       const std::string& what) {
  EXPECT_EQ(got.num_vertices, want.num_vertices) << what;
  EXPECT_EQ(got.directed, want.directed) << what;
  EXPECT_EQ(got.weighted, want.weighted) << what;
  ASSERT_EQ(got.edges.size(), want.edges.size()) << what;
  if (got.edges.empty()) return;  // memcmp must not see null pointers
  EXPECT_EQ(std::memcmp(got.edges.data(), want.edges.data(),
                        got.edges.size() * sizeof(Edge)),
            0)
      << what;
}

struct DedupeCase {
  std::string name;
  EdgeList el;
};

/// Lists that cover every shape of the radix passes.
std::vector<DedupeCase> dedupe_cases() {
  std::vector<DedupeCase> cases;
  // One 16-bit digit per key, then two.
  cases.push_back({"ids<2^16", random_multigraph(1, 1u << 16, 4000, 1u << 16)});
  cases.push_back({"ids<2^22", random_multigraph(2, 1u << 22, 4000, 1u << 22)});
  // Few distinct ids: long duplicate runs with distinct weights.
  cases.push_back({"dense", random_multigraph(3, 7, 500, 7)});
  // num_vertices of 0, or below the largest id: dedupe must read the ids
  // actually present, not trust the declared size.
  cases.push_back({"n=0", random_multigraph(4, 300, 200, 0)});
  cases.push_back({"n<max id", random_multigraph(5, 1u << 20, 300, 17)});
  {
    constexpr vid_t kMax = std::numeric_limits<vid_t>::max();
    EdgeList el = random_multigraph(6, 1u << 18, 300, kMax);
    el.edges.push_back(Edge{kMax, 3, 9.0f});
    el.edges.push_back(Edge{kMax, 3, 4.0f});
    el.edges.push_back(Edge{3, kMax, 1.5f});
    el.edges.push_back(Edge{kMax, kMax, 1.0f});
    el.edges.push_back(Edge{0, kMax, 7.0f});
    cases.push_back({"id 0xFFFFFFFF", el});
  }
  {
    // Small dst ids, large src ids: an odd number of passes leaves the
    // sorted edges in the scratch array.
    EdgeList el = random_multigraph(8, 1u << 20, 2000, 1u << 20);
    for (auto& e : el.edges) e.dst &= 0xFF;
    cases.push_back({"odd pass count", el});
  }
  cases.push_back({"empty", EdgeList{}});
  {
    EdgeList el;
    el.num_vertices = 1;
    el.edges = {Edge{0, 0, 3.0f}, Edge{0, 0, 1.0f}};
    cases.push_back({"only id 0", el});
  }
  {
    // Fewer edges than threads: some radix blocks are empty.
    EdgeList el;
    el.num_vertices = 1u << 17;
    el.weighted = true;
    el.edges = {Edge{70000, 5, 2.0f}, Edge{3, 70000, 1.0f},
                Edge{70000, 5, 1.0f}};
    cases.push_back({"shorter than the team", el});
  }
  return cases;
}

TEST(Transforms, DedupeMatchesComparisonSortReference) {
  for (const auto& c : dedupe_cases()) {
    for (const bool drop : {true, false}) {
      const std::string what =
          c.name + (drop ? " dropping loops" : " keeping loops");
      expect_same_bytes(dedupe(c.el, drop), reference_dedupe(c.el, drop),
                        what);
    }
  }
}

TEST(Transforms, ParallelDedupeMatchesReferenceAtEveryThreadCount) {
  // Each radix pass splits the edges into one block per thread; the
  // result must be the serial stable sort's at any team size.
  for (const int threads : {1, 2, 3, 4}) {
    ThreadScope scope(threads);
    for (const auto& c : dedupe_cases()) {
      for (const bool drop : {true, false}) {
        const std::string what = c.name + " at " + std::to_string(threads) +
                                 (drop ? " threads dropping loops"
                                       : " threads keeping loops");
        expect_same_bytes(dedupe(c.el, drop), reference_dedupe(c.el, drop),
                          what);
      }
    }
  }
}

TEST(Transforms, RandomWeightsDeterministicAndInRange) {
  const auto base = test::line_graph(50);
  const auto w1 = with_random_weights(base, 123, 10);
  const auto w2 = with_random_weights(base, 123, 10);
  const auto w3 = with_random_weights(base, 124, 10);
  ASSERT_TRUE(w1.weighted);
  EXPECT_EQ(w1.edges, w2.edges);
  EXPECT_NE(w1.edges, w3.edges);
  for (const auto& e : w1.edges) {
    EXPECT_GE(e.w, 1.0f);
    EXPECT_LE(e.w, 10.0f);
    EXPECT_EQ(e.w, static_cast<float>(static_cast<int>(e.w)))
        << "weights must be integer-valued for cross-system exactness";
  }
}

TEST(Transforms, UnweightedViewClearsWeights) {
  const auto w = with_random_weights(test::line_graph(4), 1, 9);
  const auto u = unweighted_view(w);
  EXPECT_FALSE(u.weighted);
  for (const auto& e : u.edges) EXPECT_FLOAT_EQ(e.w, 1.0f);
}

TEST(Transforms, Degrees) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 1, 1.0f}, Edge{0, 2, 1.0f}, Edge{1, 2, 1.0f}};
  EXPECT_EQ(out_degrees(el), (std::vector<eid_t>{2, 1, 0}));
  EXPECT_EQ(in_degrees(el), (std::vector<eid_t>{0, 1, 2}));
  EXPECT_EQ(total_degrees(el), (std::vector<eid_t>{2, 2, 2}));
}

TEST(Transforms, CountVerticesWithDegreeAbove) {
  const auto star = test::star_graph(5);  // center degree 8, leaves 2
  EXPECT_EQ(count_vertices_with_degree_above(star, 1), 5u);
  EXPECT_EQ(count_vertices_with_degree_above(star, 2), 1u);
  EXPECT_EQ(count_vertices_with_degree_above(star, 100), 0u);
}

}  // namespace
}  // namespace epgs
