// GraphBIG benchmark suite re-implementation (shared-memory CPU half).
//
// All six Graphalytics algorithms are provided (Table I has a full
// GraphBIG row). Reading the input and building the property graph happen
// simultaneously — the paper omits GraphBIG from the construction-time
// plots for exactly this reason — so separate_construction is false.
#pragma once

#include "systems/common/system.hpp"
#include "systems/graphbig/property_graph.hpp"

namespace epgs::systems {

class GraphBigSystem final : public System {
 public:
  [[nodiscard]] std::string_view name() const override { return "GraphBIG"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.bfs = true,
                        .sssp = true,
                        .pagerank = true,
                        .cdlp = true,
                        .lcc = true,
                        .wcc = true,
                        .tc = true,   // GraphBIG's "triangle count"
                        .bc = true,   // GraphBIG's "betweenness centr."
                        .separate_construction = false};
  }
  [[nodiscard]] GraphFormat native_format() const override {
    return GraphFormat::kGraphBigCsv;
  }

  [[nodiscard]] const graphbig_detail::PropertyGraph& store() const {
    return g_;
  }

 protected:
  void do_build(const EdgeList& edges) override;
  BfsResult do_bfs(vid_t root) override;
  SsspResult do_sssp(vid_t root) override;
  PageRankResult do_pagerank(const PageRankParams& params) override;
  CdlpResult do_cdlp(int max_iterations) override;
  LccResult do_lcc() override;
  WccResult do_wcc() override;
  TriangleCountResult do_tc() override;
  BcResult do_bc(vid_t source) override;

 private:
  graphbig_detail::PropertyGraph g_;
};

}  // namespace epgs::systems
