// GAS engine unit tests: superstep semantics, mirror synchronisation,
// the replica table, scatter seeding, and counters — independent of any
// full algorithm.
#include "systems/powergraph/gas_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "gen/kronecker.hpp"
#include "graph/transforms.hpp"
#include "test_util.hpp"

namespace epgs::systems::powergraph_detail {
namespace {

/// Minimal program: propagate minimum label over in-edges.
struct MinProgram {
  struct VData {
    vid_t label = kNoVertex;
  };
  using Gather = vid_t;
  static constexpr bool gather_both = false;
  static constexpr bool scatter_both = false;

  [[nodiscard]] Gather gather_init() const { return kNoVertex; }
  void gather(const VData& nbr, weight_t, Gather& acc) const {
    acc = std::min(acc, nbr.label);
  }
  void combine(Gather& into, const Gather& partial) const {
    into = std::min(into, partial);
  }
  bool apply(VData& v, const Gather& acc, bool any) const {
    if (any && acc < v.label) {
      v.label = acc;
      return true;
    }
    return false;
  }
};

/// Drive supersteps from every vertex until none is active, as the
/// adapters do under a KernelRun; returns the supersteps run.
int run_to_fixpoint(GasEngine<MinProgram>& engine) {
  auto active = engine.all_vertices();
  int iters = 0;
  for (; !active.empty(); ++iters) active = engine.superstep(active);
  return iters;
}

TEST(GasEngine, SuperstepPropagatesOneHop) {
  // Directed chain 0 -> 1 -> 2 -> 3.
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{0, 1, 1.0f}, Edge{1, 2, 1.0f}, Edge{2, 3, 1.0f}};
  const auto vc = VertexCut::build(el, 2);
  GasEngine<MinProgram> engine(vc, MinProgram{});
  for (vid_t v = 0; v < 4; ++v) engine.data()[v].label = v + 10;

  // One superstep with everyone active: each vertex pulls from its
  // in-neighbour's *pre-superstep* state (synchronous semantics).
  const auto next = engine.superstep(engine.all_vertices());
  EXPECT_EQ(engine.data()[1].label, 10u);
  EXPECT_EQ(engine.data()[2].label, 11u);  // old label of 1, not 10
  EXPECT_EQ(engine.data()[3].label, 12u);

  // Changed vertices signalled their out-neighbours.
  EXPECT_EQ(next, (std::vector<vid_t>{2, 3}));
}

TEST(GasEngine, RunReachesFixpoint) {
  const auto el = test::cycle_graph(8);
  const auto vc = VertexCut::build(el, 3);
  GasEngine<MinProgram> engine(vc, MinProgram{});
  for (vid_t v = 0; v < 8; ++v) engine.data()[v].label = v;

  const int iters = run_to_fixpoint(engine);
  for (vid_t v = 0; v < 8; ++v) {
    EXPECT_EQ(engine.data()[v].label, 0u);
  }
  // Min label needs ~diameter supersteps plus the final quiet round.
  EXPECT_GE(iters, 4);
  EXPECT_LE(iters, 10);
}

TEST(GasEngine, MaxIterationsCapsRun) {
  // An adapter's iteration cap stops its superstep loop early; the
  // engine state is then exactly that many synchronous rounds old.
  const auto el = test::line_graph(64);
  const auto vc = VertexCut::build(el, 2);
  GasEngine<MinProgram> engine(vc, MinProgram{});
  for (vid_t v = 0; v < 64; ++v) engine.data()[v].label = v;
  auto active = engine.all_vertices();
  for (int it = 0; it < 3 && !active.empty(); ++it) {
    active = engine.superstep(active);
  }
  EXPECT_FALSE(active.empty());
  EXPECT_EQ(engine.counters().supersteps, 3);
  // After 3 synchronous rounds, labels moved at most 3 hops.
  EXPECT_EQ(engine.data()[10].label, 7u);
}

TEST(GasEngine, ScatterFromSeedsNeighbors) {
  EdgeList el;
  el.num_vertices = 5;
  el.edges = {Edge{0, 1, 1.0f}, Edge{0, 2, 1.0f}, Edge{3, 4, 1.0f}};
  const auto vc = VertexCut::build(el, 2);
  GasEngine<MinProgram> engine(vc, MinProgram{});
  const auto seeded = engine.scatter_from({0});
  EXPECT_EQ(seeded, (std::vector<vid_t>{1, 2}));
  EXPECT_TRUE(engine.scatter_from({4}).empty()) << "4 has no out-edges";
}

TEST(GasEngine, CountersAccumulate) {
  const auto el = test::cycle_graph(16);
  const auto vc = VertexCut::build(el, 4);
  GasEngine<MinProgram> engine(vc, MinProgram{});
  for (vid_t v = 0; v < 16; ++v) engine.data()[v].label = v;
  run_to_fixpoint(engine);
  const auto& c = engine.counters();
  EXPECT_GT(c.supersteps, 0);
  EXPECT_GT(c.gather_edges, 0u);
  EXPECT_GT(c.scatter_signals, 0u);
  EXPECT_GT(c.sync_copies, 0u)
      << "mirror broadcast must run every superstep";
  // Sync volume = replicas x supersteps.
  std::uint64_t replicas = 0;
  for (vid_t v = 0; v < 16; ++v) replicas += vc.replicas_of(v).size();
  EXPECT_EQ(c.sync_copies,
            replicas * static_cast<std::uint64_t>(c.supersteps));
}

TEST(GasEngine, ReplicaTableIndexesEveryLocalVertex) {
  gen::KroneckerParams kp;
  kp.scale = 8;
  kp.edgefactor = 8;
  const auto el = dedupe(symmetrize(gen::kronecker(kp)));
  const auto vc = VertexCut::build(el, 4);
  GasEngine<MinProgram> engine(vc, MinProgram{});

  // Walking vertices in global order, each entry (p, lid) must be the
  // next local id on p: local ids ascend with global id.
  std::vector<vid_t> next_lid(4, 0);
  for (vid_t v = 0; v < vc.num_vertices(); ++v) {
    const auto reps = engine.replicas(v);
    const auto& parts = vc.replicas_of(v);
    ASSERT_EQ(reps.size(), parts.size()) << v;
    if (!reps.empty()) EXPECT_EQ(reps.front().part, vc.master_of(v)) << v;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const Replica& r = reps[i];
      EXPECT_EQ(r.part, parts[i]) << v;
      const auto& local = engine.local_vertices(r.part);
      ASSERT_LT(r.lid, local.size()) << v;
      EXPECT_EQ(local[r.lid], v);
      EXPECT_EQ(r.lid, next_lid[r.part]++) << v;
    }
  }
  for (int p = 0; p < 4; ++p) {
    const auto& local = engine.local_vertices(p);
    EXPECT_EQ(local.size(), next_lid[static_cast<std::size_t>(p)]) << p;
    EXPECT_EQ(std::ranges::adjacent_find(local, std::greater_equal<>()),
              local.end())
        << "partition " << p << " local ids do not ascend";
  }
}

TEST(GasEngine, IsolatedVerticesHarmless) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{0, 1, 1.0f}};
  const auto vc = VertexCut::build(el, 2);
  GasEngine<MinProgram> engine(vc, MinProgram{});
  for (vid_t v = 0; v < 4; ++v) engine.data()[v].label = v;
  run_to_fixpoint(engine);
  EXPECT_EQ(engine.data()[0].label, 0u);
  EXPECT_EQ(engine.data()[1].label, 0u);
  EXPECT_EQ(engine.data()[2].label, 2u);  // isolated: untouched
  EXPECT_EQ(engine.data()[3].label, 3u);
}

}  // namespace
}  // namespace epgs::systems::powergraph_detail
