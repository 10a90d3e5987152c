// Compressed sparse row graph.
//
// The paper notes that "most software packages represent graphs using CSR
// format" even though "the implementation details differ across packages".
// This is the *shared* CSR used by the framework's validators and by the
// GAP / Graph500 re-implementations; GraphMat layers DCSR on top of the
// same build path and GraphBIG/PowerGraph use their own stores.
#pragma once

#include <span>
#include <vector>

#include "core/numa_alloc.hpp"
#include "graph/edge_list.hpp"

namespace epgs {

class CSRGraph {
 public:
  // The flat adjacency arrays use the first-touch vector (resize leaves
  // pages untouched; the build's static zeroing pass places them) so
  // traversal kernels scanning with schedule(static) hit local pages.
  using OffsetVector = FirstTouchVector<eid_t>;
  using TargetVector = FirstTouchVector<vid_t>;
  using WeightVector = FirstTouchVector<weight_t>;

  CSRGraph() = default;

  /// Kernel 1: build the out-neighborhood CSR of an edge list.
  /// Adjacency of every row is sorted by (target, weight). A list
  /// already sorted by (src, dst, weight), as every deduplicated list
  /// is, is copied across in one pass; any other list takes one serial
  /// counting pass (degree count, prefix sum, stable scatter), then a
  /// sort of the rows that are not already in order.
  static CSRGraph from_edges(const EdgeList& el);

  /// The seed's sequential build, kept as the equivalence oracle for
  /// tests. If `transpose` is true, builds the in-neighborhood (CSC of
  /// the original): row u lists vertices with an edge into u.
  static CSRGraph from_edges_serial(const EdgeList& el,
                                    bool transpose = false);

  /// Counting transpose: row v of the result lists the sources of v's
  /// in-edges. The scatter keeps source order, so every result row
  /// comes out sorted by source (weights carried along) without a sort;
  /// for a graph from from_edges(el) the result equals
  /// from_edges_serial(el, true) bit for bit.
  [[nodiscard]] CSRGraph transposed() const;

  /// True exactly when transposed() == *this: every edge (u, v, w) has
  /// its reverse (v, u, w), parallel edges included, so one CSR serves
  /// both directions. Reads the graph once; returns at the first edge
  /// whose reverse is missing.
  [[nodiscard]] bool is_symmetric() const;

  /// The adjacency arrays, moved out of a graph that is given up
  /// (GraphMat's DCSR adopts them without a copy).
  struct Arrays {
    OffsetVector offsets;
    TargetVector targets;
    WeightVector weights;
  };
  [[nodiscard]] Arrays release() &&;

  [[nodiscard]] vid_t num_vertices() const { return n_; }
  [[nodiscard]] eid_t num_edges() const { return m_; }
  [[nodiscard]] bool weighted() const { return !weights_.empty(); }

  [[nodiscard]] eid_t degree(vid_t u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  [[nodiscard]] std::span<const vid_t> neighbors(vid_t u) const {
    return {targets_.data() + offsets_[u],
            static_cast<std::size_t>(degree(u))};
  }

  [[nodiscard]] std::span<const weight_t> edge_weights(vid_t u) const {
    return {weights_.data() + offsets_[u],
            static_cast<std::size_t>(degree(u))};
  }

  [[nodiscard]] const OffsetVector& offsets() const { return offsets_; }
  [[nodiscard]] const TargetVector& targets() const { return targets_; }
  [[nodiscard]] const WeightVector& weights() const { return weights_; }

  /// Estimated resident size in bytes (for log/power accounting).
  [[nodiscard]] std::size_t bytes() const;

  /// True iff (u, v) is an edge; binary search over sorted adjacency.
  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const;

  friend bool operator==(const CSRGraph&, const CSRGraph&) = default;

 private:
  vid_t n_ = 0;
  eid_t m_ = 0;
  OffsetVector offsets_;   // size n+1
  TargetVector targets_;   // size m
  WeightVector weights_;   // size m when weighted, else empty
};

/// Kernel 1's one symmetry decision: true when `out`, built from `el`,
/// equals its own transpose, so it serves as its own in-CSR. A list made
/// symmetric (`el.symmetric`) is taken at its word, as the GAP builder
/// takes its input's directedness and Ligra its `-s` flag; a list of
/// unknown origin is proved with `out.is_symmetric()`.
[[nodiscard]] bool is_own_transpose(const EdgeList& el, const CSRGraph& out);

}  // namespace epgs
