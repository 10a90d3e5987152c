#include "graph/homogenizer.hpp"

#include <cstring>

#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/mapped_file.hpp"
#include "core/text_scan.hpp"
#include "graph/csr.hpp"
#include "graph/snap_io.hpp"

namespace epgs {
namespace {

constexpr std::uint64_t kG500Magic = 0x4735303045504753ULL;  // "G500EPGS"
constexpr std::uint64_t kSgMagic = 0x5347455047530001ULL;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T, typename A>
void write_vec(std::ostream& os, const std::vector<T, A>& v) {
  write_pod<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// All homogenized-format writers emit through the fs_shim stream: an
/// injected (or real) ENOSPC surfaces as a typed ResourceExhaustedError
/// at the failing write, never as a silently truncated file.
fsx::OutStream open_out(const std::filesystem::path& p) {
  return fsx::OutStream(p);
}

/// Bounds-checked cursor over a mapped binary file: the zero-copy
/// counterpart of the old read_pod/read_vec ifstream loops.
class BinCursor {
 public:
  BinCursor(const MappedFile& file, const std::filesystem::path& p)
      : p_(file.data()), end_(file.data() + file.size()), path_(p) {}

  template <typename T>
  T pod() {
    T v{};
    need(sizeof v);
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }

  template <typename T>
  std::vector<T> vec() {
    const auto n = pod<std::uint64_t>();
    need(n * sizeof(T));
    std::vector<T> v(n);
    std::memcpy(v.data(), p_, n * sizeof(T));
    p_ += n * sizeof(T);
    return v;
  }

  /// Raw view of the next `bytes` without copying.
  const char* raw(std::size_t bytes) {
    need(bytes);
    const char* q = p_;
    p_ += bytes;
    return q;
  }

 private:
  void need(std::size_t bytes) const {
    EPGS_CHECK(static_cast<std::size_t>(end_ - p_) >= bytes,
               "unexpected end of binary graph file " + path_.string());
  }

  const char* p_;
  const char* end_;
  std::filesystem::path path_;
};

/// Whitespace-token stream across lines (the Ligra/PBBS adj format is one
/// number per token, newlines insignificant).
class TokenStream {
 public:
  explicit TokenStream(std::string_view txt) : lines_(txt) {}

  std::string_view next() {
    for (;;) {
      const auto tok = text::next_token(cur_);
      if (!tok.empty()) return tok;
      if (!lines_.next(cur_)) return {};
    }
  }

  [[nodiscard]] std::size_t line_no() const { return lines_.line_no(); }

 private:
  text::LineScanner lines_;
  std::string_view cur_;
};

}  // namespace

std::string_view format_name(GraphFormat f) {
  switch (f) {
    case GraphFormat::kSnapText: return "snap";
    case GraphFormat::kGraph500Bin: return "graph500-bin";
    case GraphFormat::kGapSg: return "gap-sg";
    case GraphFormat::kGraphMatMtx: return "graphmat-mtx";
    case GraphFormat::kGraphBigCsv: return "graphbig-csv";
    case GraphFormat::kPowerGraphTsv: return "powergraph-tsv";
    case GraphFormat::kLigraAdj: return "ligra-adj";
  }
  return "unknown";
}

const std::filesystem::path& HomogenizedDataset::path(GraphFormat f) const {
  const auto it = files.find(f);
  EPGS_CHECK(it != files.end(),
             "dataset '" + name + "' has no file for format " +
                 std::string(format_name(f)));
  return it->second;
}

// --- Graph500: flat little-endian packed (u64 src, u64 dst, f32 w) ----

void write_graph500_bin(const std::filesystem::path& p, const EdgeList& el) {
  auto out = open_out(p);
  write_pod(out, kG500Magic);
  write_pod<std::uint64_t>(out, el.num_vertices);
  write_pod<std::uint64_t>(out, el.num_edges());
  write_pod<std::uint8_t>(out, el.weighted ? 1 : 0);
  const std::size_t stride = el.weighted ? 20 : 16;
  write_chunked(out, el.edges.size(), [&](char* q, std::size_t i) {
    const Edge& e = el.edges[i];
    const std::uint64_t src = e.src;
    const std::uint64_t dst = e.dst;
    std::memcpy(q, &src, 8);
    std::memcpy(q + 8, &dst, 8);
    if (el.weighted) std::memcpy(q + 16, &e.w, 4);
    return q + stride;
  });
  out.close();
}

EdgeList read_graph500_bin(const std::filesystem::path& p) {
  const MappedFile file(p);
  BinCursor in(file, p);
  EPGS_CHECK(in.pod<std::uint64_t>() == kG500Magic,
             "bad magic in " + p.string());
  EdgeList el;
  el.num_vertices = static_cast<vid_t>(in.pod<std::uint64_t>());
  const auto m = in.pod<std::uint64_t>();
  el.weighted = in.pod<std::uint8_t>() != 0;
  el.edges.resize(m);
  // One bounds check and one pass over the mapping, not 2-3 stream reads
  // per edge.
  const std::size_t stride = el.weighted ? 20 : 16;
  const char* q = in.raw(m * stride);
  for (std::uint64_t i = 0; i < m; ++i, q += stride) {
    std::uint64_t src = 0, dst = 0;
    std::memcpy(&src, q, 8);
    std::memcpy(&dst, q + 8, 8);
    Edge& e = el.edges[i];
    e.src = static_cast<vid_t>(src);
    e.dst = static_cast<vid_t>(dst);
    if (el.weighted) {
      std::memcpy(&e.w, q + 16, 4);
    } else {
      e.w = 1.0f;
    }
  }
  return el;
}

// --- GAP .sg: serialized CSR (offsets + sorted targets [+ weights]) ---

void write_gap_sg(const std::filesystem::path& p, const EdgeList& el) {
  const CSRGraph g = CSRGraph::from_edges(el);
  auto out = open_out(p);
  write_pod(out, kSgMagic);
  write_pod<std::uint64_t>(out, g.num_vertices());
  write_pod<std::uint8_t>(out, el.weighted ? 1 : 0);
  write_vec(out, g.offsets());
  write_vec(out, g.targets());
  if (el.weighted) write_vec(out, g.weights());
  out.close();
}

EdgeList read_gap_sg(const std::filesystem::path& p) {
  const MappedFile file(p);
  BinCursor in(file, p);
  EPGS_CHECK(in.pod<std::uint64_t>() == kSgMagic,
             "bad magic in " + p.string());
  EdgeList el;
  el.num_vertices = static_cast<vid_t>(in.pod<std::uint64_t>());
  el.weighted = in.pod<std::uint8_t>() != 0;
  const auto offsets = in.vec<eid_t>();
  const auto targets = in.vec<vid_t>();
  std::vector<weight_t> weights;
  if (el.weighted) weights = in.vec<weight_t>();
  EPGS_CHECK(offsets.size() == static_cast<std::size_t>(el.num_vertices) + 1,
             "corrupt .sg offsets");
  EPGS_CHECK(!el.weighted || weights.size() == targets.size(),
             "corrupt .sg weights");
  el.edges.reserve(targets.size());
  for (vid_t u = 0; u < el.num_vertices; ++u) {
    EPGS_CHECK(offsets[u] <= offsets[u + 1] &&
                   offsets[u + 1] <= targets.size(),
               "corrupt .sg offsets");
    for (eid_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      el.edges.push_back(
          Edge{u, targets[i], el.weighted ? weights[i] : 1.0f});
    }
  }
  return el;
}

// --- GraphMat: 1-indexed MatrixMarket-like triples -------------------

void write_graphmat_mtx(const std::filesystem::path& p, const EdgeList& el) {
  auto out = open_out(p);
  out << "%%MatrixMarket matrix coordinate "
      << (el.weighted ? "real" : "pattern") << " general\n";
  out << el.num_vertices << ' ' << el.num_vertices << ' ' << el.num_edges()
      << '\n';
  write_edge_lines(out, el.edges, ' ', el.weighted, /*base=*/1);
  out.close();
}

EdgeList read_graphmat_mtx(const std::filesystem::path& p) {
  constexpr std::string_view kCtx = "GraphMat mtx";
  const MappedFile file(p);
  bool weighted = false;
  bool header_seen = false;
  EdgeList el;
  std::uint64_t declared_edges = 0;

  text::LineScanner lines(file.view());
  std::string_view line;
  while (lines.next(line)) {
    std::string_view rest = line;
    const std::string_view first = text::next_token(rest);
    if (first.empty()) continue;
    if (first.front() == '%') {
      if (line.find("pattern") != std::string_view::npos) weighted = false;
      if (line.find("real") != std::string_view::npos) weighted = true;
      continue;
    }
    if (!header_seen) {
      const auto rows = text::parse<std::uint64_t>(first, kCtx, "row count",
                                                   lines.line_no());
      const auto cols = text::parse<std::uint64_t>(
          text::next_token(rest), kCtx, "column count", lines.line_no());
      declared_edges = text::parse<std::uint64_t>(
          text::next_token(rest), kCtx, "edge count", lines.line_no());
      EPGS_CHECK(rows == cols, "GraphMat mtx: non-square matrix");
      el.num_vertices = static_cast<vid_t>(rows);
      header_seen = true;
      continue;
    }
    const auto r = text::parse<std::uint64_t>(first, kCtx, "row index",
                                              lines.line_no());
    const auto c = text::parse<std::uint64_t>(
        text::next_token(rest), kCtx, "column index", lines.line_no());
    double w = 1.0;
    if (weighted) {
      w = text::parse<double>(text::next_token(rest), kCtx, "weight",
                              lines.line_no());
    }
    EPGS_CHECK(r >= 1 && c >= 1, "GraphMat mtx: ids are 1-indexed");
    el.edges.push_back(Edge{static_cast<vid_t>(r - 1),
                            static_cast<vid_t>(c - 1),
                            static_cast<weight_t>(w)});
  }
  el.weighted = weighted;
  EPGS_CHECK(el.edges.size() == declared_edges,
             "GraphMat mtx: edge count mismatch in " + p.string());
  return el;
}

// --- GraphBIG: vertex.csv + edge.csv directory ------------------------

void write_graphbig_csv(const std::filesystem::path& dir, const EdgeList& el) {
  std::filesystem::create_directories(dir);
  {
    auto out = open_out(dir / "vertex.csv");
    out << "id\n";
    write_number_lines(out, el.num_vertices,
                       [](std::size_t v) { return static_cast<vid_t>(v); });
    out.close();
  }
  {
    auto out = open_out(dir / "edge.csv");
    out << (el.weighted ? "src,dst,weight\n" : "src,dst\n");
    write_edge_lines(out, el.edges, ',', el.weighted);
    out.close();
  }
}

EdgeList read_graphbig_csv(const std::filesystem::path& dir) {
  constexpr std::string_view kCtx = "GraphBIG csv";
  EdgeList el;
  {
    const MappedFile file(dir / "vertex.csv");
    text::LineScanner lines(file.view());
    std::string_view line;
    lines.next(line);  // header
    vid_t count = 0;
    while (lines.next(line)) {
      if (!line.empty() && line != "\r") ++count;
    }
    el.num_vertices = count;
  }
  {
    const MappedFile file(dir / "edge.csv");
    text::LineScanner lines(file.view());
    std::string_view line;
    EPGS_CHECK(lines.next(line), "GraphBIG edge.csv: missing header");
    el.weighted = line.find("weight") != std::string_view::npos;
    while (lines.next(line)) {
      if (line.empty() || line == "\r") continue;
      std::string_view rest = line;
      Edge e;
      e.src = text::parse_vid(text::next_field(rest, ','), kCtx,
                              lines.line_no());
      e.dst = text::parse_vid(text::next_field(rest, ','), kCtx,
                              lines.line_no());
      if (el.weighted) {
        e.w = static_cast<weight_t>(text::parse<double>(
            text::next_field(rest, ','), kCtx, "weight", lines.line_no()));
      } else {
        e.w = 1.0f;
      }
      if (!rest.empty()) {
        text::fail(kCtx, "trailing field", rest, lines.line_no());
      }
      el.edges.push_back(e);
    }
  }
  return el;
}

// --- PowerGraph: tab-separated values ---------------------------------

void write_powergraph_tsv(const std::filesystem::path& p,
                          const EdgeList& el) {
  auto out = open_out(p);
  write_edge_lines(out, el.edges, '\t', el.weighted);
  // PowerGraph infers the vertex set from edge endpoints; isolated trailing
  // vertices need a marker so the count round-trips.
  out << "#nv\t" << el.num_vertices << '\n';
  out.close();
}

EdgeList read_powergraph_tsv(const std::filesystem::path& p) {
  constexpr std::string_view kCtx = "PowerGraph tsv";
  const MappedFile file(p);
  EdgeList el;
  bool saw_weight = false;

  text::LineScanner lines(file.view());
  std::string_view line;
  while (lines.next(line)) {
    if (line.empty() || line == "\r") continue;
    if (line.front() == '#') {
      std::string_view rest = line;
      if (text::next_field(rest, '\t') == "#nv") {
        el.num_vertices = static_cast<vid_t>(text::parse<std::uint64_t>(
            text::next_field(rest, '\t'), kCtx, "vertex count",
            lines.line_no()));
      }
      continue;
    }
    std::string_view rest = line;
    Edge e;
    e.src = text::parse_vid(text::next_field(rest, '\t'), kCtx,
                            lines.line_no());
    e.dst = text::parse_vid(text::next_field(rest, '\t'), kCtx,
                            lines.line_no());
    if (!rest.empty()) {
      e.w = static_cast<weight_t>(text::parse<double>(
          text::next_field(rest, '\t'), kCtx, "weight", lines.line_no()));
      saw_weight = true;
    } else {
      e.w = 1.0f;
    }
    el.ensure_vertex(e.src);
    el.ensure_vertex(e.dst);
    el.edges.push_back(e);
  }
  el.weighted = saw_weight;
  return el;
}

// --- Ligra: PBBS (Weighted)AdjacencyGraph text format ------------------

void write_ligra_adj(const std::filesystem::path& p, const EdgeList& el) {
  const CSRGraph g = CSRGraph::from_edges(el);
  auto out = open_out(p);
  out << (el.weighted ? "WeightedAdjacencyGraph" : "AdjacencyGraph")
      << '\n';
  out << g.num_vertices() << '\n' << g.num_edges() << '\n';
  const auto& offsets = g.offsets();
  const auto& targets = g.targets();
  write_number_lines(out, g.num_vertices(),
                     [&](std::size_t v) { return offsets[v]; });
  write_number_lines(out, targets.size(),
                     [&](std::size_t e) { return targets[e]; });
  if (el.weighted) {
    const auto& weights = g.weights();
    write_number_lines(out, weights.size(),
                       [&](std::size_t e) { return weights[e]; });
  }
  out.close();
}

EdgeList read_ligra_adj(const std::filesystem::path& p) {
  constexpr std::string_view kCtx = "Ligra adj";
  const MappedFile file(p);
  TokenStream toks(file.view());

  const std::string_view header = toks.next();
  const bool weighted = header == "WeightedAdjacencyGraph";
  EPGS_CHECK(weighted || header == "AdjacencyGraph",
             "Ligra adj: bad header in " + p.string());
  const auto n = text::parse<std::uint64_t>(toks.next(), kCtx,
                                            "vertex count", toks.line_no());
  const auto m = text::parse<std::uint64_t>(toks.next(), kCtx, "edge count",
                                            toks.line_no());

  std::vector<eid_t> offsets(n + 1, m);
  for (std::uint64_t v = 0; v < n; ++v) {
    offsets[v] = text::parse<std::uint64_t>(toks.next(), kCtx, "offset",
                                            toks.line_no());
  }
  std::vector<vid_t> targets(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    targets[e] = text::parse_vid(toks.next(), kCtx, toks.line_no());
  }
  std::vector<weight_t> weights;
  if (weighted) {
    weights.resize(m);
    for (std::uint64_t e = 0; e < m; ++e) {
      weights[e] = static_cast<weight_t>(
          text::parse<double>(toks.next(), kCtx, "weight", toks.line_no()));
    }
  }

  EdgeList el;
  el.num_vertices = static_cast<vid_t>(n);
  el.weighted = weighted;
  el.edges.reserve(m);
  for (vid_t u = 0; u < n; ++u) {
    EPGS_CHECK(offsets[u] <= offsets[u + 1] && offsets[u + 1] <= m,
               "Ligra adj: non-monotone offsets");
    for (eid_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      EPGS_CHECK(targets[e] < n, "Ligra adj: target out of range");
      el.edges.push_back(
          Edge{u, targets[e], weighted ? weights[e] : 1.0f});
    }
  }
  return el;
}

HomogenizedDataset homogenize(const EdgeList& el, const std::string& name,
                              const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  HomogenizedDataset ds;
  ds.name = name;
  ds.dir = dir;

  const auto snap = dir / (name + ".snap");
  write_snap_file(snap, el);
  ds.files[GraphFormat::kSnapText] = snap;

  const auto g500 = dir / (name + ".g500");
  write_graph500_bin(g500, el);
  ds.files[GraphFormat::kGraph500Bin] = g500;

  const auto sg = dir / (name + (el.weighted ? ".wsg" : ".sg"));
  write_gap_sg(sg, el);
  ds.files[GraphFormat::kGapSg] = sg;

  const auto mtx = dir / (name + ".mtx");
  write_graphmat_mtx(mtx, el);
  ds.files[GraphFormat::kGraphMatMtx] = mtx;

  const auto gbdir = dir / (name + ".graphbig");
  write_graphbig_csv(gbdir, el);
  ds.files[GraphFormat::kGraphBigCsv] = gbdir;

  const auto tsv = dir / (name + ".tsv");
  write_powergraph_tsv(tsv, el);
  ds.files[GraphFormat::kPowerGraphTsv] = tsv;

  const auto adj = dir / (name + ".adj");
  write_ligra_adj(adj, el);
  ds.files[GraphFormat::kLigraAdj] = adj;

  return ds;
}

}  // namespace epgs
