// PowerGraph re-implementation (single-node, OSDI'12 design).
//
// Faithful behaviours:
//  * edges are greedily vertex-cut across worker partitions at ingest;
//    reading the input and building the partitioned graph happen together
//    (no separable construction phase — paper Fig 3);
//  * every algorithm runs as a GAS vertex program on a synchronous engine
//    with per-superstep master<->mirror synchronisation, the fixed
//    overhead that makes PowerGraph the slowest system on the paper's
//    small graphs;
//  * "PowerGraph doesn't provide a reference implementation of BFS in its
//    toolkits" — bfs() throws UnsupportedAlgorithm, so the paper's Fig 8
//    BFS panel has no PowerGraph bar.
#pragma once

#include "systems/common/system.hpp"
#include "systems/powergraph/vertex_cut.hpp"

namespace epgs::systems {

class PowerGraphSystem final : public System {
 public:
  struct Options {
    /// Number of edge partitions ("machines"/fibers). 0 = auto
    /// (max(4, OpenMP threads), capped at 16).
    int num_partitions = 0;
  };

  PowerGraphSystem() = default;
  explicit PowerGraphSystem(const Options& opts) : opts_(opts) {}

  [[nodiscard]] std::string_view name() const override {
    return "PowerGraph";
  }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.bfs = false,
                        .sssp = true,
                        .pagerank = true,
                        .cdlp = true,
                        .lcc = true,
                        .wcc = true,
                        .tc = true,   // PowerGraph ships a TC toolkit
                        .bc = false,  // ...but no betweenness centrality
                        .separate_construction = false};
  }
  [[nodiscard]] GraphFormat native_format() const override {
    return GraphFormat::kPowerGraphTsv;
  }

  [[nodiscard]] const powergraph_detail::VertexCut& partitioning() const;

 protected:
  void do_build(const EdgeList& edges) override;
  SsspResult do_sssp(vid_t root) override;
  PageRankResult do_pagerank(const PageRankParams& params) override;
  CdlpResult do_cdlp(int max_iterations) override;
  LccResult do_lcc() override;
  WccResult do_wcc() override;
  TriangleCountResult do_tc() override;

 private:
  Options opts_;
  std::unique_ptr<powergraph_detail::VertexCut> cut_;
  std::vector<eid_t> out_degree_;
};

}  // namespace epgs::systems
