// Adapter life-cycle and registry behaviour shared by all systems.
#include <gtest/gtest.h>

#include <filesystem>

#include "graph/homogenizer.hpp"
#include "systems/common/registry.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

TEST(Registry, FiveSystemsInPaperOrder) {
  const auto names = all_system_names();
  ASSERT_EQ(names.size(), 5u);
  for (const auto n : names) {
    EXPECT_EQ(make_system(n)->name(), n);
  }
}

TEST(Registry, ExtensionSystemsInstantiable) {
  for (const auto n : extension_system_names()) {
    EXPECT_EQ(make_system(n)->name(), n);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_system("GraphX"), EpgsError);
  EXPECT_THROW(make_system("gap"), EpgsError);  // case-sensitive
}

TEST(SystemLifecycle, AlgorithmBeforeBuildThrows) {
  auto sys = make_system("GAP");
  sys->set_edges(test::line_graph(4));
  EXPECT_THROW(sys->bfs(0), EpgsError);
  sys->build();
  EXPECT_NO_THROW(sys->bfs(0));
}

TEST(SystemLifecycle, BuildWithoutEdgesThrows) {
  auto sys = make_system("GAP");
  EXPECT_THROW(sys->build(), EpgsError);
}

TEST(SystemLifecycle, NumVerticesBeforeAndAfterBuild) {
  auto sys = make_system("GraphMat");
  sys->set_edges(test::line_graph(7));
  EXPECT_EQ(sys->num_vertices(), 7u);
  sys->build();
  EXPECT_EQ(sys->num_vertices(), 7u);
  EXPECT_TRUE(sys->is_built());
}

TEST(SystemLifecycle, UnsupportedAlgorithmThrowsTypedError) {
  auto g500 = make_system("Graph500");
  g500->set_edges(test::line_graph(4));
  g500->build();
  EXPECT_THROW(g500->sssp(0), UnsupportedAlgorithm);
  EXPECT_THROW(g500->pagerank(), UnsupportedAlgorithm);
  EXPECT_THROW(g500->cdlp(), UnsupportedAlgorithm);
  EXPECT_THROW(g500->lcc(), UnsupportedAlgorithm);
  EXPECT_THROW(g500->wcc(), UnsupportedAlgorithm);

  auto pg = make_system("PowerGraph");
  pg->set_edges(test::line_graph(4));
  pg->build();
  EXPECT_THROW(pg->bfs(0), UnsupportedAlgorithm)
      << "PowerGraph provides no BFS reference implementation (Fig 8)";
}

TEST(SystemLifecycle, CapabilityMatrixEnforcedForEveryPair) {
  // The advertised flags are the contract: every supported pair runs,
  // every unsupported pair throws the typed error — no silent fallback
  // and no capability that dies at runtime.
  std::vector<std::string> names;
  for (const auto n : all_system_names()) names.emplace_back(n);
  for (const auto n : extension_system_names()) names.emplace_back(n);

  int negative_pairs = 0;
  for (const auto& name : names) {
    auto sys = make_system(name);
    sys->set_edges(test::line_graph(8, /*weighted=*/true));
    sys->build();
    const Capabilities caps = sys->capabilities();
    const auto check = [&](bool supported, auto&& call, const char* alg) {
      if (supported) {
        EXPECT_NO_THROW(call()) << name << "/" << alg;
      } else {
        ++negative_pairs;
        EXPECT_THROW(call(), UnsupportedAlgorithm) << name << "/" << alg;
      }
    };
    check(caps.bfs, [&] { (void)sys->bfs(0); }, "bfs");
    check(caps.sssp, [&] { (void)sys->sssp(0); }, "sssp");
    check(caps.pagerank, [&] { (void)sys->pagerank(); }, "pagerank");
    check(caps.cdlp, [&] { (void)sys->cdlp(); }, "cdlp");
    check(caps.lcc, [&] { (void)sys->lcc(); }, "lcc");
    check(caps.wcc, [&] { (void)sys->wcc(); }, "wcc");
    check(caps.tc, [&] { (void)sys->tc(); }, "tc");
    check(caps.bc, [&] { (void)sys->bc(0); }, "bc");
  }
  EXPECT_GT(negative_pairs, 0)
      << "the matrix has no negative pairs left to enforce";
}

TEST(SystemLifecycle, PhaseLogRecordsBuildAndAlgorithm) {
  auto sys = make_system("GAP");
  sys->set_edges(test::line_graph(8));
  sys->build();
  (void)sys->bfs(0);
  const auto& log = sys->log();
  ASSERT_TRUE(log.find(phase::kBuild).has_value());
  const auto alg = log.find(phase::kAlgorithm);
  ASSERT_TRUE(alg.has_value());
  EXPECT_EQ(alg->extra.at("alg"), "bfs");
  EXPECT_GT(alg->work.edges_processed, 0u);
}

TEST(SystemLifecycle, PageRankLogsIterations) {
  auto sys = make_system("GAP");
  sys->set_edges(test::cycle_graph(8));
  sys->build();
  const auto pr = sys->pagerank();
  const auto alg = sys->log().find(phase::kAlgorithm);
  ASSERT_TRUE(alg.has_value());
  EXPECT_EQ(alg->extra.at("iterations"), std::to_string(pr.iterations));
}

TEST(SystemLifecycle, SeparateConstructionLogsFileReadDistinctly) {
  const auto dir = fs::temp_directory_path() / "epgs_sys_load";
  const auto ds = homogenize(test::line_graph(12), "line", dir);

  auto sys = make_system("GraphMat");  // separable construction
  sys->load_file(ds.path(sys->native_format()));
  sys->build();
  EXPECT_TRUE(sys->log().find(phase::kFileRead).has_value());
  const auto build = sys->log().find(phase::kBuild);
  ASSERT_TRUE(build.has_value());
  EXPECT_EQ(build->extra.count("fused_read"), 0u);
  fs::remove_all(dir);
}

TEST(SystemLifecycle, FusedSystemsReadAndBuildTogether) {
  const auto dir = fs::temp_directory_path() / "epgs_sys_fused";
  const auto ds = homogenize(test::line_graph(12), "line", dir);

  for (const auto name : {"GraphBIG", "PowerGraph"}) {
    auto sys = make_system(name);
    EXPECT_FALSE(sys->capabilities().separate_construction) << name;
    sys->load_file(ds.path(sys->native_format()));
    // No phase logged yet: the read is deferred into build().
    EXPECT_FALSE(sys->log().find(phase::kFileRead).has_value()) << name;
    sys->build();
    const auto build = sys->log().find(phase::kBuild);
    ASSERT_TRUE(build.has_value()) << name;
    EXPECT_EQ(build->extra.at("fused_read"), "1") << name;
  }
  fs::remove_all(dir);
}

TEST(SystemLifecycle, RebuildAfterSetEdges) {
  auto sys = make_system("GAP");
  sys->set_edges(test::line_graph(4));
  sys->build();
  (void)sys->bfs(0);
  sys->set_edges(test::star_graph(6));
  EXPECT_FALSE(sys->is_built());
  sys->build();
  const auto r = sys->bfs(0);
  EXPECT_EQ(r.parent.size(), 6u);
}

TEST(SystemLifecycle, BorrowedEdgesBuildLikeOwnedOnesAndMayBeReleased) {
  const EdgeList el = test::star_graph(6);
  auto owned = make_system("GAP");
  owned->set_edges(el);
  owned->build();
  auto borrowed = make_system("GAP");
  borrowed->borrow_edges(el);
  EXPECT_EQ(borrowed->num_vertices(), 6u);
  borrowed->build();
  const auto built = [](const System& s) {
    return s.log().find(phase::kBuild)->work.bytes_touched;
  };
  EXPECT_EQ(built(*borrowed), built(*owned));
  EXPECT_EQ(borrowed->bfs(0).parent, owned->bfs(0).parent);

  // A released system keeps its build but has nothing to rebuild from.
  borrowed->release_edges();
  EXPECT_TRUE(borrowed->is_built());
  EXPECT_EQ(borrowed->num_vertices(), 6u);
  EXPECT_EQ(borrowed->bfs(0).parent, owned->bfs(0).parent);
  EXPECT_THROW(borrowed->build(), EpgsError);
}

TEST(SystemLifecycle, NativeFormatsAreDistinctPerSystem) {
  std::vector<GraphFormat> formats;
  for (const auto n : all_system_names()) {
    formats.push_back(make_system(n)->native_format());
  }
  for (const auto n : extension_system_names()) {
    formats.push_back(make_system(n)->native_format());
  }
  std::sort(formats.begin(), formats.end());
  EXPECT_EQ(std::unique(formats.begin(), formats.end()), formats.end());
}

}  // namespace
}  // namespace epgs
