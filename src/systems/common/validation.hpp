// Result validation, Graph500 style.
//
// The Graph500 spec mandates five checks on every BFS output; we implement
// them (against the *input* graph, not any system's internal state) and add
// analogous validators for SSSP and PageRank. Every system's result in the
// test suite passes through these.
//
// BFS and SSSP compare against a reference answer for the result's root.
// Each has two forms: the three-argument form takes that answer
// precomputed, so a sweep that checks several systems from the same root
// computes it once (harness/runner.cpp); the two-argument form computes
// it with ref::bfs_levels / ref::dijkstra and forwards. Both run exactly
// the same checks and return the same messages.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "graph/csr.hpp"
#include "systems/common/results.hpp"

namespace epgs {

/// Outcome of a validation pass: empty optional means valid; otherwise a
/// human-readable description of the first violated rule.
using ValidationError = std::optional<std::string>;

/// Graph500 Kernel 2 result checks:
///  1. the BFS tree is rooted at `root` (parent[root] == root);
///  2. every tree edge (parent[v], v) exists in the graph;
///  3. tree levels of parent and child differ by exactly one;
///  4. exactly the vertices reachable from root have parents;
///  5. tree levels equal true hop distances (BFS trees are shortest).
/// Rules 3 and 5 are checked together, edge by edge: the true hop
/// distance of every reached non-root vertex is its parent's plus one.
/// That holds exactly when the parent chains are acyclic, end at the
/// root, and give every vertex its true level.
ValidationError validate_bfs(const CSRGraph& g, const BfsResult& result);

/// The same checks against `true_level`, the hop distances from
/// `result.root` in `g` as ref::bfs_levels returns them. The size and
/// root checks run before `true_level` is read; a `true_level` whose size
/// is not n is reported as an error.
ValidationError validate_bfs(const CSRGraph& g, const BfsResult& result,
                             std::span<const vid_t> true_level);

/// SSSP checks: dist[root] == 0; every edge is relaxed
/// (dist[v] <= dist[u] + w); every non-root finite vertex has a witness
/// in-edge achieving its distance; unreachable vertices are infinite.
/// Distances must equal Dijkstra's exactly.
ValidationError validate_sssp(const CSRGraph& g, const SsspResult& result);

/// The same checks against `truth`, the distances from `result.root` in
/// `g` as ref::dijkstra returns them. The size and root checks run before
/// `truth` is read; a `truth` whose size is not n is reported as an error.
ValidationError validate_sssp(const CSRGraph& g, const SsspResult& result,
                              std::span<const weight_t> truth);

/// PageRank sanity: all ranks positive, sum within `tol` of 1.
ValidationError validate_pagerank(const PageRankResult& result,
                                  double tol = 1e-6);

/// WCC checks: endpoints of every edge share a component; every
/// component id is the minimum vertex id within the component.
ValidationError validate_wcc(const EdgeList& el, const WccResult& result);

}  // namespace epgs
