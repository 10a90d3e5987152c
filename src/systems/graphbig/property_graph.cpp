#include "systems/graphbig/property_graph.hpp"

#include <algorithm>

#include "core/frontier.hpp"

namespace epgs::systems::graphbig_detail {

void PropertyGraph::load(const EdgeList& el) {
  vertices_.assign(el.num_vertices, VertexObj{});
  for (vid_t v = 0; v < el.num_vertices; ++v) vertices_[v].id = v;
  num_edges_ = el.num_edges();
  weighted_ = el.weighted;

  std::uint64_t edge_id = 0;
  for (const auto& e : el.edges) {
    EdgeObj obj;
    obj.target = e.dst;
    obj.weight = e.w;
    obj.edge_id = edge_id++;
    vertices_[e.src].out_edges.push_back(obj);
    vertices_[e.dst].in_edges.push_back(e.src);
  }
  // openG keeps adjacency sorted for lookup-style queries.
  for (auto& v : vertices_) {
    std::sort(v.out_edges.begin(), v.out_edges.end(),
              [](const EdgeObj& a, const EdgeObj& b) {
                return a.target < b.target;
              });
    std::sort(v.in_edges.begin(), v.in_edges.end());
  }
}

std::vector<vid_t> PropertyGraph::expand(const std::vector<vid_t>& frontier,
                                         EdgeVisitor& visitor,
                                         std::uint64_t& edges_examined) {
  // The visitor decides admission, so the only a-priori bound on the
  // output is the frontier's total out-degree; size the queue by a
  // cheap parallel degree reduction, then merge per-thread discoveries
  // through LocalBuffer fetch-add flushes instead of a critical section.
  std::size_t out_degree = 0;
#pragma omp parallel for schedule(static) reduction(+ : out_degree)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(frontier.size());
       ++i) {
    out_degree +=
        vertices_[frontier[static_cast<std::size_t>(i)]].out_edges.size();
  }
  SlidingQueue<vid_t> queue(out_degree);
  std::uint64_t examined = 0;
#pragma omp parallel reduction(+ : examined)
  {
    LocalBuffer<vid_t> local(queue);
#pragma omp for schedule(dynamic, 64) nowait
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(frontier.size());
         ++i) {
      VertexObj& src = vertices_[frontier[static_cast<std::size_t>(i)]];
      for (EdgeObj& e : src.out_edges) {
        ++examined;
        if (visitor.examine(src, e, vertices_[e.target])) {
          local.push_back(e.target);
        }
      }
    }
  }
  edges_examined += examined;
  return queue.take_appended();
}

std::size_t PropertyGraph::bytes() const {
  std::size_t b = vertices_.size() * sizeof(VertexObj);
  for (const auto& v : vertices_) {
    b += v.out_edges.size() * sizeof(EdgeObj) +
         v.in_edges.size() * sizeof(vid_t);
  }
  return b;
}

}  // namespace epgs::systems::graphbig_detail
