// Shared fixtures: small graphs with known properties, used across the
// per-system and cross-system suites.
#pragma once

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/transforms.hpp"

namespace epgs::test {

/// Undirected path 0-1-2-...-(n-1), stored as symmetric directed pairs.
inline EdgeList line_graph(vid_t n, bool weighted = false) {
  EdgeList el;
  el.num_vertices = n;
  el.directed = false;
  el.weighted = weighted;
  for (vid_t v = 0; v + 1 < n; ++v) {
    const auto w = weighted ? static_cast<weight_t>(v % 5 + 1) : 1.0f;
    el.edges.push_back(Edge{v, v + 1, w});
    el.edges.push_back(Edge{v + 1, v, w});
  }
  return el;
}

/// Star: vertex 0 connected to 1..n-1 (symmetric).
inline EdgeList star_graph(vid_t n) {
  EdgeList el;
  el.num_vertices = n;
  el.directed = false;
  for (vid_t v = 1; v < n; ++v) {
    el.edges.push_back(Edge{0, v, 1.0f});
    el.edges.push_back(Edge{v, 0, 1.0f});
  }
  return el;
}

/// Undirected cycle of length n.
inline EdgeList cycle_graph(vid_t n) {
  EdgeList el;
  el.num_vertices = n;
  el.directed = false;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t u = (v + 1) % n;
    el.edges.push_back(Edge{v, u, 1.0f});
    el.edges.push_back(Edge{u, v, 1.0f});
  }
  return el;
}

/// Two disjoint triangles {0,1,2} and {3,4,5} plus isolated vertex 6.
inline EdgeList two_triangles() {
  EdgeList el;
  el.num_vertices = 7;
  el.directed = false;
  const std::vector<std::pair<vid_t, vid_t>> pairs = {
      {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}};
  for (const auto& [a, b] : pairs) {
    el.edges.push_back(Edge{a, b, 1.0f});
    el.edges.push_back(Edge{b, a, 1.0f});
  }
  return el;
}

/// Complete graph K_n, weighted with w(u,v) = |u-v|.
inline EdgeList complete_graph(vid_t n, bool weighted = false) {
  EdgeList el;
  el.num_vertices = n;
  el.directed = false;
  el.weighted = weighted;
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v = 0; v < n; ++v) {
      if (u == v) continue;
      const auto w =
          weighted ? static_cast<weight_t>(u > v ? u - v : v - u) : 1.0f;
      el.edges.push_back(Edge{u, v, w});
    }
  }
  return el;
}

/// Small directed graph with a dangling vertex (for PageRank edge cases):
/// 0->1, 0->2, 1->2, 2->0, 3->2 ; vertex 4 is isolated; 3 has no in-edges.
inline EdgeList pagerank_graph() {
  EdgeList el;
  el.num_vertices = 5;
  el.directed = true;
  el.edges = {Edge{0, 1, 1.0f}, Edge{0, 2, 1.0f}, Edge{1, 2, 1.0f},
              Edge{2, 0, 1.0f}, Edge{3, 2, 1.0f}};
  return el;
}

/// Every file under `dir`, keyed by its path relative to `dir`.
inline std::map<std::string, std::string> tree_bytes(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& f : std::filesystem::recursive_directory_iterator(dir)) {
    if (!f.is_regular_file()) continue;
    std::ifstream in(f.path(), std::ios::binary);
    files[std::filesystem::relative(f.path(), dir).string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

}  // namespace epgs::test
