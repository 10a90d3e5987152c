// GraphBIG-style property graph ("openG" emulation).
//
// GraphBIG models industrial property-graph workloads: vertices and edges
// are objects carrying generic property slots, adjacency is stored as
// per-vertex containers of edge objects (AoS), and algorithms traverse
// through a generic visitor interface. That design costs a pointer-chase
// and a virtual dispatch per edge — which is precisely why the paper
// measures GraphBIG ~two orders of magnitude behind the flat-CSR systems
// on BFS, while remaining competitive where per-edge work dominates.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "graph/edge_list.hpp"

namespace epgs::systems::graphbig_detail {

/// Edge object with generic property payload (openG edges carry property
/// maps; we model the footprint with fixed slots).
struct EdgeObj {
  vid_t target = 0;
  weight_t weight = 1.0f;
  std::uint64_t edge_id = 0;
  std::array<double, 2> eprop{};  ///< generic edge property slots
};

/// Vertex object: adjacency + algorithm-visible property slots.
struct VertexObj {
  vid_t id = 0;
  std::vector<EdgeObj> out_edges;
  std::vector<vid_t> in_edges;

  // Property slots used by the algorithm kernels (status/depth/parent are
  // how GraphBIG's BFS annotates vertices).
  std::uint32_t status = 0;
  vid_t parent = kNoVertex;
  float fprop = 0.0f;                ///< e.g. tentative SSSP distance
  std::array<double, 4> vprop{};     ///< e.g. rank, next rank, scratch
  vid_t label = 0;                   ///< e.g. CDLP/WCC label
};

/// Generic per-edge visitor; the traversal engine dispatches every edge
/// through this interface (one virtual call per edge, as in openG's
/// generic algorithm templates).
class EdgeVisitor {
 public:
  virtual ~EdgeVisitor() = default;
  /// Examine edge src->e.target. Return true to add the target to the
  /// next frontier.
  virtual bool examine(VertexObj& src, EdgeObj& e, VertexObj& dst) = 0;
};

class PropertyGraph {
 public:
  void load(const EdgeList& el);

  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(vertices_.size());
  }
  [[nodiscard]] eid_t num_edges() const { return num_edges_; }
  [[nodiscard]] bool weighted() const { return weighted_; }

  [[nodiscard]] VertexObj& vertex(vid_t v) { return vertices_[v]; }
  [[nodiscard]] const VertexObj& vertex(vid_t v) const {
    return vertices_[v];
  }

  /// One level-synchronous expansion of `frontier` through `visitor`;
  /// returns the next frontier. `edges_examined` accumulates work.
  std::vector<vid_t> expand(const std::vector<vid_t>& frontier,
                            EdgeVisitor& visitor,
                            std::uint64_t& edges_examined);

  [[nodiscard]] std::size_t bytes() const;

 private:
  std::vector<VertexObj> vertices_;
  eid_t num_edges_ = 0;
  bool weighted_ = false;
};

}  // namespace epgs::systems::graphbig_detail
