// Edge-list transforms used by the dataset homogenizer.
//
// Phase 2 of the framework takes one input graph and prepares the variants
// each system expects: symmetrized for the undirected-only code paths,
// deduplicated, self-loop-free, weighted for SSSP, etc.
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace epgs {

/// Add the reverse of every edge (u,v) -> (v,u) with the same weight,
/// marking the result undirected-as-directed-pairs and `symmetric`. Self
/// loops are not duplicated.
EdgeList symmetrize(const EdgeList& el);

/// Remove duplicate edges (same src/dst; keeps the minimum weight) and,
/// optionally, self loops. Edge order is normalised (sorted by src, then
/// dst). A linear-time radix sort over the ids present: pass an rvalue to
/// sort in place, an lvalue is copied first. A `symmetric` list stays
/// symmetric: an edge and its reverse keep the same smallest weight.
EdgeList dedupe(EdgeList el, bool drop_self_loops = true);

/// Assign uniform-random integer-valued weights in [1, max_weight] (stored
/// as float so all systems agree exactly), deterministically per seed.
/// Mirrors the Graph500 SSSP extension's weight generation. The result
/// is not `symmetric`: an edge and its reverse draw their own weights.
EdgeList with_random_weights(const EdgeList& el, std::uint64_t seed,
                             std::uint32_t max_weight = 255);

/// Strip weights (e.g. BFS on a weighted input).
EdgeList unweighted_view(const EdgeList& el);

/// Count vertices with total degree strictly greater than `min_degree`.
vid_t count_vertices_with_degree_above(const EdgeList& el, eid_t min_degree);

}  // namespace epgs
