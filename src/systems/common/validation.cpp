#include "systems/common/validation.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "systems/common/reference.hpp"

namespace epgs {
namespace {

std::string describe(vid_t v, const char* what) {
  std::ostringstream os;
  os << what << " (vertex " << v << ")";
  return os.str();
}

}  // namespace

ValidationError validate_bfs(const CSRGraph& g, const BfsResult& result) {
  // A root out of range has no reference answer; the empty one is never
  // read, because the root check rejects the result first.
  return validate_bfs(g, result,
                      result.root < g.num_vertices()
                          ? ref::bfs_levels(g, result.root)
                          : std::vector<vid_t>{});
}

ValidationError validate_bfs(const CSRGraph& g, const BfsResult& result,
                             std::span<const vid_t> true_level) {
  const vid_t n = g.num_vertices();
  if (result.parent.size() != n) return "parent array size mismatch";
  if (result.root >= n) return "root out of range";
  if (true_level.size() != n) return "reference level array size mismatch";
  if (result.parent[result.root] != result.root) {
    return "rule 1: parent[root] != root";
  }

  // Rules 3 and 5 together: every reached vertex other than the root
  // sits one hop further from the root than its parent, by the true hop
  // distances. Distances then fall by one along every parent chain, so
  // each chain reaches the root (the one vertex at distance 0) without a
  // cycle, and the tree's levels are the true ones.
  for (vid_t v = 0; v < n; ++v) {
    const vid_t p = result.parent[v];
    const bool reached = p != kNoVertex;
    const bool reachable = true_level[v] != kNoVertex;
    if (reached != reachable) {
      return describe(v, "rule 4: reachability mismatch");
    }
    if (!reached || v == result.root) continue;
    if (p >= n) return describe(v, "rule 2: parent id out of range");
    // Tree edge must exist in either direction: the Graph500 treats the
    // graph as undirected, and our harness symmetrizes, so p->v must be
    // present as a directed edge. The child's row is searched first: on
    // skewed graphs the parent is usually a hub with a long row.
    if (!g.has_edge(v, p) && !g.has_edge(p, v)) {
      return describe(v, "rule 2: tree edge not in graph");
    }
    if (true_level[p] == kNoVertex || true_level[v] != true_level[p] + 1) {
      return describe(v, "rule 3/5: level(child) != level(parent) + 1 "
                         "by true hop distance");
    }
  }
  return std::nullopt;
}

ValidationError validate_sssp(const CSRGraph& g, const SsspResult& result) {
  return validate_sssp(g, result,
                       result.root < g.num_vertices()
                           ? ref::dijkstra(g, result.root)
                           : std::vector<weight_t>{});
}

ValidationError validate_sssp(const CSRGraph& g, const SsspResult& result,
                              std::span<const weight_t> truth) {
  const vid_t n = g.num_vertices();
  if (result.dist.size() != n) return "dist array size mismatch";
  if (result.root >= n) return "root out of range";
  if (truth.size() != n) return "reference distance array size mismatch";
  if (result.dist[result.root] != 0.0f) return "dist[root] != 0";

  // Every edge relaxed.
  for (vid_t u = 0; u < n; ++u) {
    if (result.dist[u] == kInfDist) continue;
    const auto nbrs = g.neighbors(u);
    const auto ws =
        g.weighted() ? g.edge_weights(u) : std::span<const weight_t>{};
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const weight_t w = g.weighted() ? ws[i] : 1.0f;
      if (result.dist[nbrs[i]] > result.dist[u] + w) {
        return describe(nbrs[i], "edge not relaxed");
      }
    }
  }
  // Exactness against Dijkstra.
  for (vid_t v = 0; v < n; ++v) {
    if (result.dist[v] != truth[v]) {
      return describe(v, "distance differs from Dijkstra");
    }
  }
  return std::nullopt;
}

ValidationError validate_pagerank(const PageRankResult& result, double tol) {
  double sum = 0.0;
  for (std::size_t v = 0; v < result.rank.size(); ++v) {
    const double r = result.rank[v];
    if (!(r > 0.0) || !std::isfinite(r)) {
      return describe(static_cast<vid_t>(v), "non-positive or non-finite rank");
    }
    sum += r;
  }
  const double deviation = std::abs(sum - 1.0);
  if (deviation > tol) {
    // Enough digits to tell by how much the sum missed: at the default
    // six, a sum of 1 + 1.1e-6 prints as "1".
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "rank sum " << sum << " deviates from 1 by " << deviation
       << std::setprecision(6) << ", more than the tolerance " << tol;
    return os.str();
  }
  return std::nullopt;
}

ValidationError validate_wcc(const EdgeList& el, const WccResult& result) {
  if (result.component.size() != el.num_vertices) {
    return "component array size mismatch";
  }
  for (const auto& e : el.edges) {
    if (result.component[e.src] != result.component[e.dst]) {
      return describe(e.src, "edge endpoints in different components");
    }
  }
  for (vid_t v = 0; v < el.num_vertices; ++v) {
    const vid_t c = result.component[v];
    if (c > v) return describe(v, "component id exceeds member id");
    if (result.component[c] != c) {
      return describe(v, "component id is not a representative");
    }
  }
  return std::nullopt;
}

}  // namespace epgs
