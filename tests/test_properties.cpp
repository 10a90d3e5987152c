// Property-based tests over seeded random graphs.
//
// Each property runs ~50 cases drawn from a seeded Xoshiro256 stream
// (fully deterministic; no test-order coupling). On failure the harness
// SHRINKS: it bisects the edge set while the property still fails and
// reports the minimal failing graph, so a red run hands the debugger a
// handful of edges instead of a thousand.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/transforms.hpp"
#include "systems/common/reference.hpp"
#include "systems/common/registry.hpp"

namespace epgs {
namespace {

/// Random multi-digraph: up to `max_n` vertices, `max_m` edges, possible
/// self loops, duplicates, and isolated vertices — the messy end of the
/// input space, where transform invariants earn their keep.
EdgeList random_graph(Xoshiro256& rng, vid_t max_n = 48, eid_t max_m = 256) {
  EdgeList el;
  el.num_vertices = static_cast<vid_t>(rng.uniform_u64(max_n - 2)) + 2;
  el.directed = true;
  el.weighted = rng.next() % 2 == 0;
  const eid_t m = rng.uniform_u64(max_m);
  el.edges.reserve(m);
  for (eid_t i = 0; i < m; ++i) {
    const auto u = static_cast<vid_t>(rng.uniform_u64(el.num_vertices));
    const auto v = static_cast<vid_t>(rng.uniform_u64(el.num_vertices));
    const auto w = el.weighted
                       ? static_cast<weight_t>(rng.uniform_u64(255) + 1)
                       : 1.0f;
    el.edges.push_back(Edge{u, v, w});
  }
  return el;
}

std::string describe(const EdgeList& el) {
  std::ostringstream os;
  os << el.num_vertices << " vertices, " << el.num_edges() << " edges:";
  for (const auto& e : el.edges) {
    os << " " << e.src << "->" << e.dst;
    if (el.weighted) os << "(" << e.w << ")";
  }
  return os.str();
}

/// Run `property` over `cases` seeded graphs. On a failure, shrink by
/// repeatedly dropping half (then quarters, ...) of the edges while the
/// property keeps failing, and FAIL with the minimal counterexample.
void check_property(std::uint64_t seed, int cases,
                    const std::function<bool(const EdgeList&)>& property) {
  Xoshiro256 rng(seed);
  for (int c = 0; c < cases; ++c) {
    EdgeList el = random_graph(rng);
    if (property(el)) continue;

    // Shrink: ddmin-style halving over the edge list.
    EdgeList minimal = el;
    std::size_t chunk = std::max<std::size_t>(1, minimal.edges.size() / 2);
    while (chunk >= 1 && !minimal.edges.empty()) {
      bool shrunk = false;
      for (std::size_t at = 0; at + chunk <= minimal.edges.size();
           at += chunk) {
        EdgeList candidate = minimal;
        candidate.edges.erase(
            candidate.edges.begin() + static_cast<std::ptrdiff_t>(at),
            candidate.edges.begin() + static_cast<std::ptrdiff_t>(at + chunk));
        if (!property(candidate)) {
          minimal = std::move(candidate);
          shrunk = true;
          break;
        }
      }
      if (!shrunk) {
        if (chunk == 1) break;
        chunk /= 2;
      }
    }
    FAIL() << "property failed at case " << c << " (seed " << seed
           << "); minimal counterexample: " << describe(minimal);
  }
}

TEST(Properties, SymmetrizeBalancesEveryVertexDegree) {
  // After symmetrize, the graph is undirected-as-pairs: per-vertex
  // in-degree == out-degree, and the total degree sum is exactly twice
  // the stored edge count.
  check_property(101, 50, [](const EdgeList& el) {
    const EdgeList sym = symmetrize(el);
    const auto out = out_degrees(sym);
    const auto in = in_degrees(sym);
    if (out != in) return false;
    const auto sum = std::accumulate(out.begin(), out.end(), eid_t{0}) +
                     std::accumulate(in.begin(), in.end(), eid_t{0});
    return sum == 2 * sym.num_edges();
  });
}

TEST(Properties, SymmetrizeIsIdempotentUnderCanonicalization) {
  // symmetrize twice == symmetrize once, modulo the canonical
  // (dedupe-sorted) edge order. Self loops are the classic off-by-one.
  const auto canonical = [](const EdgeList& el) {
    const EdgeList d = dedupe(el, /*drop_self_loops=*/false);
    std::vector<std::tuple<vid_t, vid_t, weight_t>> edges;
    edges.reserve(d.edges.size());
    for (const auto& e : d.edges) edges.emplace_back(e.src, e.dst, e.w);
    return edges;
  };
  check_property(202, 50, [&](const EdgeList& el) {
    const EdgeList once = symmetrize(el);
    const EdgeList twice = symmetrize(once);
    return canonical(once) == canonical(twice);
  });
}

TEST(Properties, TriangleCountInvariantUnderVertexRelabeling) {
  // Triangle count is a graph isomorphism invariant: relabeling vertices
  // by a random permutation must not change it.
  Xoshiro256 perm_rng(303);
  check_property(304, 30, [&](const EdgeList& el) {
    const CSRGraph out = CSRGraph::from_edges(el);
    const CSRGraph in = CSRGraph::from_edges(el).transposed();
    const auto want = ref::triangle_count(out, in).triangles;

    std::vector<vid_t> perm(el.num_vertices);
    std::iota(perm.begin(), perm.end(), vid_t{0});
    for (vid_t i = el.num_vertices; i > 1; --i) {
      std::swap(perm[i - 1],
                perm[static_cast<vid_t>(perm_rng.uniform_u64(i))]);
    }
    EdgeList relabeled = el;
    for (auto& e : relabeled.edges) {
      e.src = perm[e.src];
      e.dst = perm[e.dst];
    }
    const CSRGraph rout = CSRGraph::from_edges(relabeled);
    const CSRGraph rin = CSRGraph::from_edges(relabeled).transposed();
    return ref::triangle_count(rout, rin).triangles == want;
  });
}

TEST(Properties, BfsParentTreeDepthMatchesReferenceDistance) {
  // The BFS parent tree a system under test produces must induce exactly
  // the hop distances of the serial reference oracle: same reachable
  // set, and parent-chain depth == reference level for every vertex.
  check_property(405, 25, [](const EdgeList& el) {
    // BFS needs a connected-ish undirected view to be interesting.
    const EdgeList sym = symmetrize(el);
    const auto sys = make_system("GAP");
    sys->set_edges(sym);
    sys->build();
    const auto levels = sys->bfs(/*root=*/0).levels();
    const auto want = ref::bfs_levels(CSRGraph::from_edges(sym), 0);
    return levels == want;
  });
}

TEST(Properties, DedupeIsIdempotentAndOrdersEdges) {
  check_property(506, 50, [](const EdgeList& el) {
    const EdgeList once = dedupe(el);
    const EdgeList twice = dedupe(once);
    if (once.edges.size() != twice.edges.size()) return false;
    for (std::size_t i = 0; i < once.edges.size(); ++i) {
      if (once.edges[i].src != twice.edges[i].src ||
          once.edges[i].dst != twice.edges[i].dst ||
          once.edges[i].w != twice.edges[i].w) {
        return false;
      }
    }
    // Canonical order, no duplicates, no self loops.
    for (std::size_t i = 0; i < once.edges.size(); ++i) {
      if (once.edges[i].src == once.edges[i].dst) return false;
      if (i > 0) {
        const auto a = std::make_pair(once.edges[i - 1].src,
                                      once.edges[i - 1].dst);
        const auto b = std::make_pair(once.edges[i].src, once.edges[i].dst);
        if (!(a < b)) return false;
      }
    }
    return true;
  });
}

}  // namespace
}  // namespace epgs
