#include "graph/snap_io.hpp"

#include <ostream>

#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/mapped_file.hpp"
#include "core/text_scan.hpp"

namespace epgs {

EdgeList parse_snap(std::string_view text) {
  EdgeList el;
  el.directed = true;
  bool saw_weight = false;
  bool saw_unweighted = false;

  text::LineScanner lines(text);
  std::string_view line;
  while (lines.next(line)) {
    // Skip leading whitespace for comment detection.
    std::string_view peek = line;
    while (!peek.empty() && text::is_space(peek.front())) {
      peek.remove_prefix(1);
    }
    if (peek.empty() || peek.front() == '#') {
      // Honour the conventional "# Nodes: N ..." header so isolated
      // trailing vertices survive a round trip. It is a hint: a malformed
      // count is ignored.
      const auto pos = peek.find("Nodes:");
      if (pos != std::string_view::npos) {
        std::string_view rest = peek.substr(pos + 6);
        const auto n = text::try_parse<std::uint64_t>(text::next_token(rest));
        if (n && *n > 0 && *n <= 0xFFFFFFFFULL) {
          el.ensure_vertex(static_cast<vid_t>(*n - 1));
        }
      }
      continue;
    }

    const std::string_view t1 = text::next_token(line);
    const std::string_view t2 = text::next_token(line);
    if (t2.empty()) {
      throw ParseError("SNAP parse: line " + std::to_string(lines.line_no()) +
                       " has fewer than two fields");
    }
    Edge e;
    e.src = text::parse_vid(t1, "SNAP parse", lines.line_no());
    e.dst = text::parse_vid(t2, "SNAP parse", lines.line_no());

    const std::string_view t3 = text::next_token(line);
    if (!t3.empty()) {
      e.w = static_cast<weight_t>(
          text::parse<double>(t3, "SNAP parse", "weight", lines.line_no()));
      saw_weight = true;
    } else {
      e.w = 1.0f;
      saw_unweighted = true;
    }
    el.ensure_vertex(e.src);
    el.ensure_vertex(e.dst);
    el.edges.push_back(e);
  }
  if (saw_weight && saw_unweighted) {
    throw EpgsError("SNAP parse: mixed weighted and unweighted lines");
  }
  el.weighted = saw_weight;
  return el;
}

EdgeList read_snap_file(const std::filesystem::path& path) {
  // One mapping, parsed in place: the previous rdbuf-into-ostringstream
  // slurp briefly held two full copies of the file in memory.
  const MappedFile file(path);
  return parse_snap(file.view());
}

void write_snap(std::ostream& os, const EdgeList& el) {
  os << "# easy-parallel-graph SNAP export\n";
  os << "# Nodes: " << el.num_vertices << " Edges: " << el.num_edges()
     << '\n';
  write_edge_lines(os, el.edges, '\t', el.weighted);
}

void write_edge_lines(std::ostream& os, std::span<const Edge> edges,
                      char sep, bool weighted, vid_t base) {
  write_chunked(os, edges.size(), [&](char* p, std::size_t i) {
    const Edge& e = edges[i];
    p = put_number(p, static_cast<vid_t>(e.src + base));
    *p++ = sep;
    p = put_number(p, static_cast<vid_t>(e.dst + base));
    if (weighted) {
      *p++ = sep;
      p = put_number(p, e.w);
    }
    *p++ = '\n';
    return p;
  });
}

void write_snap_file(const std::filesystem::path& path, const EdgeList& el) {
  fsx::OutStream out(path);
  write_snap(out, el);
  out.close();
}

}  // namespace epgs
