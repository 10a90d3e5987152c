// Ligra re-implementation (Shun & Blelloch, PPoPP'13) — the framework
// extension demonstrating that easy-parallel-graph-* "is not specific or
// limited to these graph packages and can be extended to others".
//
// Everything is built from the two Ligra primitives (vertexSubset +
// direction-switching edgeMap): BFS and BC are the Ligra paper's own
// flagship examples; SSSP is its Bellman-Ford; components its label
// propagation; PageRank its dense edgeMap iteration.
#pragma once

#include <optional>

#include "graph/csr.hpp"
#include "systems/common/system.hpp"

namespace epgs::systems {

class LigraSystem final : public System {
 public:
  [[nodiscard]] std::string_view name() const override { return "Ligra"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.bfs = true,
                        .sssp = true,
                        .pagerank = true,
                        .cdlp = false,
                        .lcc = false,
                        .wcc = true,
                        .tc = false,
                        .bc = true,
                        .separate_construction = true};
  }
  [[nodiscard]] GraphFormat native_format() const override {
    return GraphFormat::kLigraAdj;
  }

  /// Read-only access to the built CSR (tests compare layouts).
  [[nodiscard]] const CSRGraph& out_csr() const { return out_; }
  [[nodiscard]] const CSRGraph& in_csr() const { return in(); }

 protected:
  void do_build(const EdgeList& edges) override;
  BfsResult do_bfs(vid_t root) override;
  SsspResult do_sssp(vid_t root) override;
  PageRankResult do_pagerank(const PageRankParams& params) override;
  WccResult do_wcc() override;
  BcResult do_bc(vid_t source) override;

 private:
  /// In-edges: the transpose, or the out-CSR when it is symmetric (as
  /// Ligra keeps one adjacency for a symmetric graph).
  [[nodiscard]] const CSRGraph& in() const { return in_ ? *in_ : out_; }

  CSRGraph out_;
  std::optional<CSRGraph> in_;  // empty when out_ is its own transpose
};

}  // namespace epgs::systems
