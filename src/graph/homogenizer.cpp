#include "graph/homogenizer.hpp"

#include <cstring>
#include <exception>
#include <optional>

#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/mapped_file.hpp"
#include "core/parallel.hpp"
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

namespace {

void put_graph500_bin(std::ostream& out, const EdgeList& el) {
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
}

}  // namespace

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

namespace {

void put_gap_sg(std::ostream& out, const CSRGraph& g, bool weighted) {
  write_pod(out, kSgMagic);
  write_pod<std::uint64_t>(out, g.num_vertices());
  write_pod<std::uint8_t>(out, weighted ? 1 : 0);
  write_vec(out, g.offsets());
  write_vec(out, g.targets());
  if (weighted) write_vec(out, g.weights());
}

}  // namespace

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

namespace {

void put_graphmat_mtx(std::ostream& out, const EdgeList& el) {
  out << "%%MatrixMarket matrix coordinate "
      << (el.weighted ? "real" : "pattern") << " general\n";
  out << el.num_vertices << ' ' << el.num_vertices << ' ' << el.num_edges()
      << '\n';
  write_edge_lines(out, el.edges, ' ', el.weighted, /*base=*/1);
}

}  // namespace

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

namespace {

void put_graphbig_vertices(std::ostream& out, const EdgeList& el) {
  out << "id\n";
  write_number_lines(out, el.num_vertices,
                     [](std::size_t v) { return static_cast<vid_t>(v); });
}

void put_graphbig_edges(std::ostream& out, const EdgeList& el) {
  out << (el.weighted ? "src,dst,weight\n" : "src,dst\n");
  write_edge_lines(out, el.edges, ',', el.weighted);
}

}  // namespace

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

namespace {

void put_powergraph_tsv(std::ostream& out, const EdgeList& el) {
  write_edge_lines(out, el.edges, '\t', el.weighted);
  // PowerGraph infers the vertex set from edge endpoints; isolated trailing
  // vertices need a marker so the count round-trips.
  out << "#nv\t" << el.num_vertices << '\n';
}

}  // namespace

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

namespace {

void put_ligra_adj(std::ostream& out, const CSRGraph& g, bool weighted) {
  out << (weighted ? "WeightedAdjacencyGraph" : "AdjacencyGraph") << '\n';
  out << g.num_vertices() << '\n' << g.num_edges() << '\n';
  const auto& offsets = g.offsets();
  const auto& targets = g.targets();
  write_number_lines(out, g.num_vertices(),
                     [&](std::size_t v) { return offsets[v]; });
  write_number_lines(out, targets.size(),
                     [&](std::size_t e) { return targets[e]; });
  if (weighted) {
    const auto& weights = g.weights();
    write_number_lines(out, weights.size(),
                       [&](std::size_t e) { return weights[e]; });
  }
}

}  // namespace

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
                              const std::filesystem::path& dir,
                              const StagedFile* staged) {
  HomogenizedDataset ds;
  ds.name = name;
  ds.dir = dir;
  ds.files = {
      {GraphFormat::kSnapText, dir / (name + ".snap")},
      {GraphFormat::kGraph500Bin, dir / (name + ".g500")},
      {GraphFormat::kGapSg, dir / (name + (el.weighted ? ".wsg" : ".sg"))},
      {GraphFormat::kGraphMatMtx, dir / (name + ".mtx")},
      {GraphFormat::kGraphBigCsv, dir / (name + ".graphbig")},
      {GraphFormat::kPowerGraphTsv, dir / (name + ".tsv")},
      {GraphFormat::kLigraAdj, dir / (name + ".adj")},
  };

  // The writers run concurrently, one task per file, and allocate
  // nothing: glibc gives a worker thread's first malloc a new 64 MiB
  // arena, which costs peak VM (DESIGN.md "Set-up cost"). So the streams
  // (and their buffers), GraphBIG's directory and the one CSR that the
  // .sg and .adj writers share are all made here, on the calling thread.
  std::filesystem::create_directories(ds.path(GraphFormat::kGraphBigCsv));
  const CSRGraph csr = CSRGraph::from_edges(el);
  const auto& p = ds.files;
  fsx::OutStream snap(p.at(GraphFormat::kSnapText));
  fsx::OutStream g500(p.at(GraphFormat::kGraph500Bin));
  fsx::OutStream sg(p.at(GraphFormat::kGapSg));
  fsx::OutStream mtx(p.at(GraphFormat::kGraphMatMtx));
  fsx::OutStream vertex_csv(p.at(GraphFormat::kGraphBigCsv) / "vertex.csv");
  fsx::OutStream edge_csv(p.at(GraphFormat::kGraphBigCsv) / "edge.csv");
  fsx::OutStream tsv(p.at(GraphFormat::kPowerGraphTsv));
  fsx::OutStream adj(p.at(GraphFormat::kLigraAdj));
  std::optional<fsx::OutStream> staged_out;
  if (staged != nullptr) staged_out.emplace(staged->path);

  // A staged cache entry fsyncs each file in the task that wrote it,
  // overlapping the flush with the other tasks' writes: a cold s16
  // publish measured 0.254 -> 0.231 s (median of 30, 4-vCPU KVM guest,
  // ext4) against one fsync pass over the closed files.
  const auto finish = [&](fsx::OutStream& out) {
    if (staged != nullptr) out.sync_now();
    out.close();
  };
  // Slowest first (s16 write times, DESIGN.md "Set-up cost"). Task -1,
  // run only when staging, is the staged file: it is as slow as the
  // slowest formats.
  constexpr int kFormats = 7;
  constexpr GraphFormat kBySlowest[kFormats] = {
      GraphFormat::kSnapText,      GraphFormat::kGraphMatMtx,
      GraphFormat::kGraphBigCsv,   GraphFormat::kPowerGraphTsv,
      GraphFormat::kLigraAdj,      GraphFormat::kGraph500Bin,
      GraphFormat::kGapSg};
  const auto write = [&](int task) {
    if (task < 0) {
      staged->write(*staged_out, el);
      finish(*staged_out);
      return;
    }
    switch (kBySlowest[task]) {
      case GraphFormat::kSnapText:
        write_snap(snap, el);
        finish(snap);
        break;
      case GraphFormat::kGraph500Bin:
        put_graph500_bin(g500, el);
        finish(g500);
        break;
      case GraphFormat::kGapSg:
        put_gap_sg(sg, csr, el.weighted);
        finish(sg);
        break;
      case GraphFormat::kGraphMatMtx:
        put_graphmat_mtx(mtx, el);
        finish(mtx);
        break;
      case GraphFormat::kGraphBigCsv:
        put_graphbig_vertices(vertex_csv, el);
        finish(vertex_csv);
        put_graphbig_edges(edge_csv, el);
        finish(edge_csv);
        break;
      case GraphFormat::kPowerGraphTsv:
        put_powergraph_tsv(tsv, el);
        finish(tsv);
        break;
      case GraphFormat::kLigraAdj:
        put_ligra_adj(adj, csr, el.weighted);
        finish(adj);
        break;
    }
  };
  // Each task keeps its own error; the first in format order (the staged
  // file's last) is rethrown after the join.
  std::exception_ptr errors[kFormats + 1];
  const int first = staged != nullptr ? -1 : 0;
  parallel_tasks(kFormats - first, [&](int i) {
    const int task = first + i;
    const int slot =
        task < 0 ? kFormats : static_cast<int>(kBySlowest[task]);
    try {
      write(task);
    } catch (...) {
      errors[slot] = std::current_exception();
    }
  });
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return ds;
}

}  // namespace epgs
