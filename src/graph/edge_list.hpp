// Unsorted edge list: the interchange representation.
//
// Every dataset enters the framework as an edge list (the Graph500 spec's
// Kernel 1 input is exactly "an unsorted edge list stored in RAM"); the
// homogenizer then converts it into each system's native format.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace epgs {

struct EdgeList {
  vid_t num_vertices = 0;
  bool directed = true;
  bool weighted = false;
  /// True only when `edges` equals its own transpose as a multiset of
  /// (src, dst, w): every edge has its reverse, weight included. It says
  /// how the list was made, so Kernel 1 can share one CSR for both
  /// directions without proving it: symmetrize() sets it, dedupe() and
  /// unweighted_view() keep it, with_random_weights() clears it (weights
  /// are drawn per direction). Lists read from disk and raw generator
  /// output leave it false, and are proved instead. It is never stored.
  /// Whoever edits `edges` of a list that has it set must clear it.
  bool symmetric = false;
  std::vector<Edge> edges;

  [[nodiscard]] eid_t num_edges() const { return edges.size(); }

  /// Grow num_vertices to cover vertex v.
  void ensure_vertex(vid_t v) {
    if (v >= num_vertices) num_vertices = v + 1;
  }
};

/// Out-degree of every vertex (in-degree contributions ignored).
std::vector<eid_t> out_degrees(const EdgeList& el);

/// In-degree of every vertex.
std::vector<eid_t> in_degrees(const EdgeList& el);

/// Total degree (out + in for directed graphs; for undirected edge lists
/// each stored edge contributes to both endpoints).
std::vector<eid_t> total_degrees(const EdgeList& el);

}  // namespace epgs
