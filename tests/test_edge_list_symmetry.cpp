// EdgeList::symmetric: a list claims symmetry only when it is its own
// transpose, so Kernel 1 may take the claim instead of proving it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/transforms.hpp"
#include "harness/experiment.hpp"
#include "systems/common/reference.hpp"
#include "systems/gap/gap_system.hpp"
#include "systems/ligra/ligra_system.hpp"

namespace epgs {
namespace {

using harness::GraphSpec;

/// Every generator at a test size, under every combination of the
/// homogenizer's symmetrize, dedupe and --weights steps.
std::vector<GraphSpec> all_shapes() {
  std::vector<GraphSpec> specs;
  for (const auto kind : {GraphSpec::Kind::kKronecker,
                          GraphSpec::Kind::kPatentsLike,
                          GraphSpec::Kind::kDotaLike}) {
    for (int mask = 0; mask < 8; ++mask) {
      GraphSpec s;
      s.kind = kind;
      s.scale = 8;
      s.edgefactor = 8;
      s.fraction = kind == GraphSpec::Kind::kDotaLike ? 0.003 : 0.002;
      s.symmetrize = (mask & 1) != 0;
      s.deduplicate = (mask & 2) != 0;
      s.add_weights = (mask & 4) != 0;
      specs.push_back(s);
    }
  }
  return specs;
}

std::string describe(const GraphSpec& s) {
  return s.name() + (s.symmetrize ? " symmetrize" : "") +
         (s.deduplicate ? " dedupe" : "") + (s.add_weights ? " weights" : "");
}

TEST(EdgeListSymmetry, EveryClaimIsTrueAndWeightsNeverClaim) {
  int claims = 0;
  for (const auto& spec : all_shapes()) {
    SCOPED_TRACE(describe(spec));
    const EdgeList el = harness::materialize(spec);
    if (el.symmetric) {
      ++claims;
      EXPECT_TRUE(CSRGraph::from_edges(el).is_symmetric());
    }
    // --weights draws each direction's weight apart, and only the
    // homogenizer's symmetrize makes a claim.
    if (spec.add_weights || !spec.symmetrize) EXPECT_FALSE(el.symmetric);
  }
  EXPECT_GT(claims, 0);
}

TEST(EdgeListSymmetry, DefaultKroneckerSpecClaimsIt) {
  GraphSpec spec;  // what `epg run` and the sweeps materialize
  spec.scale = 8;
  EXPECT_TRUE(harness::materialize(spec).symmetric);
  spec.add_weights = true;
  EXPECT_FALSE(harness::materialize(spec).symmetric);
}

TEST(EdgeListSymmetry, EachTransformSetsKeepsOrClearsIt) {
  gen::KroneckerParams p;
  p.scale = 7;
  p.edgefactor = 8;
  const EdgeList raw = gen::kronecker(p);
  EXPECT_FALSE(raw.symmetric);
  EXPECT_FALSE(dedupe(raw).symmetric);
  const EdgeList sym = symmetrize(raw);
  EXPECT_TRUE(sym.symmetric);
  EXPECT_TRUE(dedupe(sym).symmetric);
  EXPECT_TRUE(dedupe(sym, /*drop_self_loops=*/false).symmetric);
  EXPECT_TRUE(unweighted_view(sym).symmetric);
  const EdgeList weighted = with_random_weights(sym, 5);
  EXPECT_FALSE(weighted.symmetric);
  EXPECT_FALSE(unweighted_view(weighted).symmetric);
  EXPECT_TRUE(symmetrize(weighted).symmetric);

  gen::DotaLikeParams d;
  d.fraction = 0.003;
  EXPECT_FALSE(gen::dota_like(d).symmetric);  // raw output: proved instead
}

/// A claimed list shares the out-CSR; a weighted one gets a real
/// transpose, and SSSP, whose dense steps pull weights from it in Ligra,
/// still matches Dijkstra.
template <typename Sys>
void check_in_csr(const EdgeList& el, bool shared) {
  Sys sys;
  sys.borrow_edges(el);
  sys.build();
  EXPECT_EQ(&sys.in_csr() == &sys.out_csr(), shared);
  EXPECT_TRUE(sys.in_csr() == sys.out_csr().transposed());
  const CSRGraph csr = CSRGraph::from_edges(el);
  for (const vid_t root : {vid_t{0}, vid_t{3}, vid_t{17}}) {
    EXPECT_EQ(sys.sssp(root).dist, ref::dijkstra(csr, root));
  }
}

TEST(EdgeListSymmetry, WeightedListStillBuildsATrueTranspose) {
  GraphSpec spec;
  spec.scale = 8;
  spec.edgefactor = 8;
  const EdgeList unweighted = harness::materialize(spec);
  spec.add_weights = true;
  const EdgeList weighted = harness::materialize(spec);
  ASSERT_TRUE(unweighted.symmetric);
  ASSERT_FALSE(CSRGraph::from_edges(weighted).is_symmetric());
  check_in_csr<systems::GapSystem>(unweighted, true);
  check_in_csr<systems::LigraSystem>(unweighted, true);
  check_in_csr<systems::GapSystem>(weighted, false);
  check_in_csr<systems::LigraSystem>(weighted, false);
}

}  // namespace
}  // namespace epgs
