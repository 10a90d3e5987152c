#include "graph/homogenizer.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "graph/csr.hpp"
#include "graph/snap_io.hpp"
#include "graph/transforms.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

/// A scratch path private to this process: ctest -j runs the test
/// processes side by side, and a shared name lets one test's clean-up
/// delete another's files.
fs::path temp_path(const std::string& name) {
  return fs::temp_directory_path() /
         (name + "_" + std::to_string(::getpid()));
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Sort edges for order-insensitive comparison.
std::vector<Edge> canonical(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.w < b.w;
  });
  return edges;
}

using FormatCase = std::tuple<GraphFormat, bool>;

const auto kAllFormatCases = ::testing::Combine(
    ::testing::Values(GraphFormat::kSnapText, GraphFormat::kGraph500Bin,
                      GraphFormat::kGapSg, GraphFormat::kGraphMatMtx,
                      GraphFormat::kGraphBigCsv, GraphFormat::kPowerGraphTsv,
                      GraphFormat::kLigraAdj),
    ::testing::Bool());

std::string format_case_name(
    const ::testing::TestParamInfo<FormatCase>& info) {
  std::string name(format_name(std::get<0>(info.param)));
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_" + (std::get<1>(info.param) ? "weighted" : "unweighted");
}

class HomogenizerRoundTrip : public ::testing::TestWithParam<FormatCase> {
 protected:
  static EdgeList input(bool weighted) {
    auto el = test::line_graph(9, weighted);
    // A vertex with no edges at the top of the id range, to catch formats
    // that only infer the vertex set from edge endpoints.
    el.num_vertices = 11;
    return el;
  }

  static EdgeList round_trip(GraphFormat fmt, const EdgeList& el,
                             const fs::path& dir) {
    const auto ds = homogenize(el, "rt", dir);
    const auto& p = ds.path(fmt);
    switch (fmt) {
      case GraphFormat::kSnapText: return read_snap_file(p);
      case GraphFormat::kGraph500Bin: return read_graph500_bin(p);
      case GraphFormat::kGapSg: return read_gap_sg(p);
      case GraphFormat::kGraphMatMtx: return read_graphmat_mtx(p);
      case GraphFormat::kGraphBigCsv: return read_graphbig_csv(p);
      case GraphFormat::kPowerGraphTsv: return read_powergraph_tsv(p);
      case GraphFormat::kLigraAdj: return read_ligra_adj(p);
    }
    throw std::logic_error("unreachable");
  }
};

TEST_P(HomogenizerRoundTrip, EdgesSurviveAsMultiset) {
  const auto [fmt, weighted] = GetParam();
  const auto dir = temp_path("epgs_homog_" + std::string(format_name(fmt)) +
                             (weighted ? "_w" : "_u"));
  const auto el = input(weighted);
  const auto back = round_trip(fmt, el, dir);

  EXPECT_EQ(back.num_vertices, el.num_vertices)
      << "format " << format_name(fmt);
  EXPECT_EQ(back.weighted, el.weighted);
  EXPECT_EQ(canonical(back.edges), canonical(el.edges));
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, HomogenizerRoundTrip, kAllFormatCases,
                         format_case_name);

TEST(Homogenizer, ProducesAllSevenFormats) {
  const auto dir = temp_path("epgs_homog_all");
  const auto ds = homogenize(test::two_triangles(), "tri", dir);
  EXPECT_EQ(ds.files.size(), 7u);
  for (const auto& [fmt, path] : ds.files) {
    EXPECT_TRUE(fs::exists(path)) << format_name(fmt);
  }
  fs::remove_all(dir);
}

TEST(Homogenizer, PathThrowsForMissingFormat) {
  HomogenizedDataset ds;
  ds.name = "x";
  EXPECT_THROW(ds.path(GraphFormat::kGapSg), EpgsError);
}

TEST(Homogenizer, FormatNamesDistinct) {
  const GraphFormat all[] = {
      GraphFormat::kSnapText,    GraphFormat::kGraph500Bin,
      GraphFormat::kGapSg,       GraphFormat::kGraphMatMtx,
      GraphFormat::kGraphBigCsv, GraphFormat::kPowerGraphTsv,
      GraphFormat::kLigraAdj};
  std::vector<std::string_view> names;
  for (const auto f : all) names.push_back(format_name(f));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Homogenizer, GapSgNormalisesToSortedCsrOrder) {
  // The .sg format serialises a CSR, so the round-trip is sorted by
  // (src, dst) — a permutation of the input, which canonical() hides; the
  // byte-level guarantee is row-major sortedness.
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{2, 0, 1.0f}, Edge{0, 2, 1.0f}, Edge{0, 1, 1.0f}};
  const auto dir = temp_path("epgs_homog_sg");
  const auto back =
      read_gap_sg(homogenize(el, "g", dir).path(GraphFormat::kGapSg));
  ASSERT_EQ(back.edges.size(), 3u);
  EXPECT_TRUE(std::is_sorted(back.edges.begin(), back.edges.end(),
                             [](const Edge& a, const Edge& b) {
                               return a.src != b.src ? a.src < b.src
                                                     : a.dst < b.dst;
                             }));
  fs::remove_all(dir);
}

TEST(Homogenizer, GraphMatMtxIsOneIndexed) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 1, 1.0f}};
  const auto dir = temp_path("epgs_homog_mtx");
  std::ifstream in(homogenize(el, "g", dir).path(GraphFormat::kGraphMatMtx));
  std::string header, sizes, edge;
  std::getline(in, header);
  std::getline(in, sizes);
  std::getline(in, edge);
  EXPECT_NE(header.find("MatrixMarket"), std::string::npos);
  EXPECT_EQ(sizes, "2 2 1");
  EXPECT_EQ(edge, "1 2");
  fs::remove_all(dir);
}

// --- Byte-for-byte pins of every writer ---------------------------------
//
// The reference writers below are the per-edge snprintf / ostream code the
// chunked writers replaced. Every format must keep producing exactly their
// bytes, so homogenized cache entries stay valid across the change.

template <typename T>
void put_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T, typename A>
void put_vec(std::string& out, const std::vector<T, A>& v) {
  put_pod<std::uint64_t>(out, v.size());
  out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

/// printf("%u<sep>%u[<sep>%g]\n") per edge, ids shifted by `base`.
void printf_edge_lines(std::string& out, const EdgeList& el, char sep,
                       vid_t base) {
  char buf[96];
  for (const auto& e : el.edges) {
    const int len =
        el.weighted
            ? std::snprintf(buf, sizeof buf, "%u%c%u%c%g\n", e.src + base,
                            sep, e.dst + base, sep, static_cast<double>(e.w))
            : std::snprintf(buf, sizeof buf, "%u%c%u\n", e.src + base, sep,
                            e.dst + base);
    out.append(buf, static_cast<std::size_t>(len));
  }
}

/// Reference bytes of `fmt`, keyed by file name relative to the format's
/// path (empty for a single-file format).
std::map<std::string, std::string> reference_files(GraphFormat fmt,
                                                   const EdgeList& el) {
  std::string out;
  switch (fmt) {
    case GraphFormat::kSnapText: {
      std::ostringstream os;
      os << "# easy-parallel-graph SNAP export\n";
      os << "# Nodes: " << el.num_vertices << " Edges: " << el.num_edges()
         << '\n';
      out = os.str();
      printf_edge_lines(out, el, '\t', 0);
      return {{"", out}};
    }
    case GraphFormat::kGraph500Bin: {
      put_pod<std::uint64_t>(out, 0x4735303045504753ULL);
      put_pod<std::uint64_t>(out, el.num_vertices);
      put_pod<std::uint64_t>(out, el.num_edges());
      put_pod<std::uint8_t>(out, el.weighted ? 1 : 0);
      for (const auto& e : el.edges) {
        put_pod<std::uint64_t>(out, e.src);
        put_pod<std::uint64_t>(out, e.dst);
        if (el.weighted) put_pod<float>(out, e.w);
      }
      return {{"", out}};
    }
    case GraphFormat::kGapSg: {
      const CSRGraph g = CSRGraph::from_edges(el);
      put_pod<std::uint64_t>(out, 0x5347455047530001ULL);
      put_pod<std::uint64_t>(out, g.num_vertices());
      put_pod<std::uint8_t>(out, el.weighted ? 1 : 0);
      put_vec(out, g.offsets());
      put_vec(out, g.targets());
      if (el.weighted) put_vec(out, g.weights());
      return {{"", out}};
    }
    case GraphFormat::kGraphMatMtx: {
      std::ostringstream os;
      os << "%%MatrixMarket matrix coordinate "
         << (el.weighted ? "real" : "pattern") << " general\n";
      os << el.num_vertices << ' ' << el.num_vertices << ' '
         << el.num_edges() << '\n';
      out = os.str();
      printf_edge_lines(out, el, ' ', 1);
      return {{"", out}};
    }
    case GraphFormat::kGraphBigCsv: {
      std::ostringstream vertices;
      vertices << "id\n";
      for (vid_t v = 0; v < el.num_vertices; ++v) vertices << v << '\n';
      out = el.weighted ? "src,dst,weight\n" : "src,dst\n";
      printf_edge_lines(out, el, ',', 0);
      return {{"vertex.csv", vertices.str()}, {"edge.csv", out}};
    }
    case GraphFormat::kPowerGraphTsv: {
      printf_edge_lines(out, el, '\t', 0);
      out += "#nv\t" + std::to_string(el.num_vertices) + "\n";
      return {{"", out}};
    }
    case GraphFormat::kLigraAdj: {
      const CSRGraph g = CSRGraph::from_edges(el);
      std::ostringstream os;
      os << (el.weighted ? "WeightedAdjacencyGraph" : "AdjacencyGraph")
         << '\n';
      os << g.num_vertices() << '\n' << g.num_edges() << '\n';
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        os << g.offsets()[v] << '\n';
      }
      for (const vid_t t : g.targets()) os << t << '\n';
      if (el.weighted) {
        for (const weight_t w : g.weights()) os << w << '\n';
      }
      return {{"", os.str()}};
    }
  }
  throw std::logic_error("unreachable");
}

/// Several write chunks' worth of edges whose weights stress "%g": short
/// and long mantissas, exponents both ways, the float extremes, signed
/// zeros, integers either side of 10^6, and infinity.
EdgeList stress_graph(bool weighted) {
  constexpr float kWeights[] = {
      0.1f,   1e-7f,   123456.7f, 1e6f,    16777216.f, 3.4e38f,
      0.f,    -0.f,    255.f,     999999.f, -3.f,       -999999.f,
      -1e6f,  0.5f,    std::numeric_limits<float>::infinity()};
  Xoshiro256 rng(2024);
  EdgeList el;
  el.num_vertices = 3001;  // vertex 3000 is isolated
  el.weighted = weighted;
  for (std::size_t i = 0; i < 30000; ++i) {
    Edge e;
    e.src = static_cast<vid_t>(rng.uniform_u64(3000));
    e.dst = static_cast<vid_t>(rng.uniform_u64(3000));
    e.w = i % 3 == 0 ? static_cast<float>(rng.uniform_u64(1u << 24)) / 7.0f
                     : kWeights[i % std::size(kWeights)];
    if (!weighted) e.w = 1.0f;
    el.edges.push_back(e);
  }
  return el;
}

class HomogenizerBytes : public ::testing::TestWithParam<FormatCase> {};

TEST_P(HomogenizerBytes, MatchTheReferenceWriter) {
  const auto [fmt, weighted] = GetParam();
  const auto dir = temp_path("epgs_homog_bytes");
  const auto el = stress_graph(weighted);
  const auto ds = homogenize(el, "b", dir);
  for (const auto& [rel, want] : reference_files(fmt, el)) {
    const auto p = rel.empty() ? ds.path(fmt) : ds.path(fmt) / rel;
    const std::string got = slurp(p);
    EXPECT_EQ(got.size(), want.size()) << p;
    EXPECT_TRUE(got == want) << p << " differs from the reference writer";
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, HomogenizerBytes, kAllFormatCases,
                         format_case_name);

TEST(Homogenizer, ConcurrentWritersGiveTheSameFilesAtEveryThreadCount) {
  // The formats are written as concurrent tasks on the default OpenMP
  // team; the bytes must not depend on how many threads share them.
  struct Case {
    std::string name;
    EdgeList el;
  };
  std::vector<Case> cases;
  for (const bool weighted : {false, true}) {
    const std::string w = weighted ? " weighted" : " unweighted";
    cases.push_back({"directed" + w, stress_graph(weighted)});
    cases.push_back({"symmetric" + w, symmetrize(stress_graph(weighted))});
  }
  for (const auto& c : cases) {
    std::map<std::string, std::string> want;
    for (const int threads : {1, 2, 4}) {
      const auto dir = temp_path("epgs_homog_threads");
      {
        ThreadScope scope(threads);
        homogenize(c.el, "t", dir);
      }
      const auto got = test::tree_bytes(dir);
      fs::remove_all(dir);
      EXPECT_EQ(got.size(), 8u) << c.name;  // GraphBIG writes two files
      if (threads == 1) {
        want = got;
        continue;
      }
      EXPECT_TRUE(got == want) << c.name << " at " << threads << " threads";
    }
  }
}

TEST(Homogenizer, EnospcInsideEveryTextWriterThrowsTyped) {
  // The chunked writers still reach the disk through fsx::OutStream: a
  // full disk at the second or a later write call, mid-file, must raise
  // the typed error out of homogenize() rather than leave a silently
  // truncated file, while the other files' writers run on.
  const auto dir = temp_path("epgs_homog_enospc");
  const auto el = stress_graph(/*weighted=*/true);
  for (const std::string file : {"w.snap", "w.mtx", "edge.csv", "w.tsv",
                                 "w.adj"}) {
    for (const int at : {2, 3}) {
      fsx::Plan plan;
      plan.op = fsx::Op::kWrite;
      plan.error_code = ENOSPC;
      plan.at_call = at;
      plan.path_substr = file;
      fsx::Scoped armed(plan);
      EXPECT_THROW(homogenize(el, "w", dir), ResourceExhaustedError)
          << file << " at write call " << at;
      EXPECT_GE(fsx::fire_count(), 1) << file << " at write call " << at;
    }
    // Disarmed, the same files are written.
    EXPECT_NO_THROW(homogenize(el, "w", dir)) << file;
  }
  fs::remove_all(dir);
}

/// Malformed numerics must raise a typed ParseError, not silently default
/// the field (the old sscanf/istringstream readers did the latter).
class ReaderRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = temp_path("epgs_homog_reject");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& name, const std::string& text) {
    const auto p = dir_ / name;
    std::ofstream(p) << text;
    return p;
  }

  fs::path dir_;
};

TEST_F(ReaderRejection, MtxBadIndexAndWeight) {
  const auto bad_id = write("a.mtx",
                            "%%MatrixMarket matrix coordinate pattern "
                            "general\n2 2 1\n1 two\n");
  EXPECT_THROW(read_graphmat_mtx(bad_id), ParseError);
  const auto bad_w = write("b.mtx",
                           "%%MatrixMarket matrix coordinate real "
                           "general\n2 2 1\n1 2 heavy\n");
  EXPECT_THROW(read_graphmat_mtx(bad_w), ParseError);
}

TEST_F(ReaderRejection, PowerGraphTsvBadFields) {
  EXPECT_THROW(read_powergraph_tsv(write("a.tsv", "1\tx\n")), ParseError);
  EXPECT_THROW(read_powergraph_tsv(write("b.tsv", "1\t2\theavy\n")),
               ParseError);
  EXPECT_THROW(read_powergraph_tsv(write("c.tsv", "#nv\tmany\n")),
               ParseError);
}

TEST_F(ReaderRejection, GraphBigCsvBadFieldsAndTrailingJunk) {
  const auto mk = [&](const std::string& edge_csv) {
    const auto d = dir_ / "gb";
    fs::create_directories(d);
    std::ofstream(d / "vertex.csv") << "id\n0\n1\n";
    std::ofstream(d / "edge.csv") << edge_csv;
    return d;
  };
  EXPECT_THROW(read_graphbig_csv(mk("src,dst\n0,one\n")), ParseError);
  EXPECT_THROW(read_graphbig_csv(mk("src,dst,weight\n0,1,w\n")),
               ParseError);
  EXPECT_THROW(read_graphbig_csv(mk("src,dst\n0,1,junk\n")), ParseError);
}

TEST_F(ReaderRejection, LigraAdjBadCountAndTruncation) {
  EXPECT_THROW(read_ligra_adj(write("a.adj", "AdjacencyGraph\nx\n1\n")),
               ParseError);
  // Declares 2 vertices / 1 edge but the token stream ends early.
  EXPECT_THROW(read_ligra_adj(write("b.adj", "AdjacencyGraph\n2\n1\n0\n")),
               ParseError);
}

TEST_F(ReaderRejection, SnapBadWeight) {
  EXPECT_THROW(read_snap_file(write("a.snap", "0\t1\theavy\n")), ParseError);
  EXPECT_THROW(read_snap_file(write("b.snap", "0\n")), ParseError);
}

TEST_F(ReaderRejection, BinaryTruncationDetected) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {Edge{0, 1, 1.0f}, Edge{1, 2, 1.0f}};
  const auto ds = homogenize(el, "g", dir_);
  const auto& g500 = ds.path(GraphFormat::kGraph500Bin);
  fs::resize_file(g500, fs::file_size(g500) - 3);
  EXPECT_THROW(read_graph500_bin(g500), EpgsError);

  const auto& sg = ds.path(GraphFormat::kGapSg);
  fs::resize_file(sg, fs::file_size(sg) - 3);
  EXPECT_THROW(read_gap_sg(sg), EpgsError);
}

}  // namespace
}  // namespace epgs
