#include "graph/snap_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

TEST(SnapIo, ParseBasic) {
  const auto el = parse_snap("# comment\n0 1\n1 2\n2 0\n");
  EXPECT_EQ(el.num_vertices, 3u);
  EXPECT_EQ(el.num_edges(), 3u);
  EXPECT_FALSE(el.weighted);
  EXPECT_EQ(el.edges[0], (Edge{0, 1, 1.0f}));
}

TEST(SnapIo, ParseWeighted) {
  const auto el = parse_snap("0 1 2.5\n1 0 3\n");
  EXPECT_TRUE(el.weighted);
  EXPECT_FLOAT_EQ(el.edges[0].w, 2.5f);
  EXPECT_FLOAT_EQ(el.edges[1].w, 3.0f);
}

TEST(SnapIo, ParseTabsAndPadding) {
  const auto el = parse_snap("  0\t7 \n\t3   4\t\n");
  EXPECT_EQ(el.num_vertices, 8u);
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_EQ(el.edges[1], (Edge{3, 4, 1.0f}));
}

TEST(SnapIo, CommentsAndBlankLinesIgnored) {
  const auto el = parse_snap("# a\n\n   # indented comment\n5 6\n");
  EXPECT_EQ(el.num_edges(), 1u);
  EXPECT_EQ(el.num_vertices, 7u);
}

TEST(SnapIo, NonContiguousIdsKeptVerbatim) {
  const auto el = parse_snap("10 20\n");
  EXPECT_EQ(el.num_vertices, 21u);  // max id + 1; no relabeling
}

TEST(SnapIo, MalformedLineThrows) {
  EXPECT_THROW(parse_snap("0\n"), EpgsError);
  EXPECT_THROW(parse_snap("a b\n"), EpgsError);
  EXPECT_THROW(parse_snap("1 -2\n"), EpgsError);
}

TEST(SnapIo, MixedWeightednessThrows) {
  EXPECT_THROW(parse_snap("0 1 2.0\n1 2\n"), EpgsError);
}

TEST(SnapIo, WriteIncludesHeaderComment) {
  std::ostringstream os;
  write_snap(os, test::line_graph(3));
  const auto text = os.str();
  EXPECT_NE(text.find("# "), std::string::npos);
  EXPECT_NE(text.find("Nodes: 3"), std::string::npos);
}

TEST(SnapIo, FileRoundTripUnweighted) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("epgs_snap_rt_" + std::to_string(::getpid()) + ".snap");
  const auto original = test::two_triangles();
  write_snap_file(path, original);
  const auto back = read_snap_file(path);
  EXPECT_EQ(back.num_vertices, original.num_vertices);
  EXPECT_EQ(back.edges, original.edges);
  std::filesystem::remove(path);
}

TEST(SnapIo, FileRoundTripWeighted) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("epgs_snap_w_" + std::to_string(::getpid()) + ".snap");
  const auto original = test::line_graph(5, /*weighted=*/true);
  write_snap_file(path, original);
  const auto back = read_snap_file(path);
  ASSERT_TRUE(back.weighted);
  EXPECT_EQ(back.edges, original.edges);
  std::filesystem::remove(path);
}

TEST(SnapIo, EdgeLinesMatchPrintfAtTheExtremes) {
  // The edge-line writer replaced one snprintf("%u<sep>%u[<sep>%g]\n")
  // per edge; it must print the same bytes, including the 1-based id of
  // 0xFFFFFFFF wrapping to 0 and the non-finite weights.
  constexpr vid_t kMax = std::numeric_limits<vid_t>::max();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<Edge> edges = {
      {kMax, 0, 0.1f},        {0, kMax, 1e-7f},
      {kMax - 1, 1, 3.4e38f}, {123456789, 42, -kInf},
      {7, 7, kInf},           {1, 2, std::numeric_limits<float>::quiet_NaN()},
      {3, 4, -0.0f},          {5, 6, std::numeric_limits<float>::denorm_min()},
      {8, 9, 999999.f},       {9, 8, -999999.f},
      {10, 11, 1e6f},         {11, 10, -2.5f},
  };
  for (const char sep : {'\t', ' ', ','}) {
    for (const vid_t base : {0u, 1u}) {
      for (const bool weighted : {false, true}) {
        std::string want;
        char line[96];
        for (const auto& e : edges) {
          const int len =
              weighted ? std::snprintf(line, sizeof line, "%u%c%u%c%g\n",
                                       e.src + base, sep, e.dst + base, sep,
                                       static_cast<double>(e.w))
                       : std::snprintf(line, sizeof line, "%u%c%u\n",
                                       e.src + base, sep, e.dst + base);
          want.append(line, static_cast<std::size_t>(len));
        }
        std::ostringstream os;
        write_edge_lines(os, edges, sep, weighted, base);
        EXPECT_EQ(os.str(), want)
            << "sep " << int(sep) << " base " << base << " weighted "
            << weighted;
      }
    }
  }
}

TEST(SnapIo, MissingFileThrows) {
  EXPECT_THROW(read_snap_file("/nonexistent/epgs.snap"), EpgsError);
}

}  // namespace
}  // namespace epgs
